"""Seeded workload inputs and the correctness oracle behind ``failed``.

Every input is one ``orbit-rank`` call (``analyze`` or ``infer``). The
expected values are closed forms worked out here, per family, and never read
from the program:

* abelianization dimension r adds over direct sums; the real rank is r;
* the stable rank is 1 for the real line and 1 + max(floor(r/2), 1) otherwise;
* nilpotent families have no projections (``none_nilpotent``);
* a basis change preserves all of the above and the existence of open
  coadjoint orbits (which dense axb^k has).

Fields that later work may legitimately change (component counts, screen
statuses other than ``certified_no``, trace lengths) are not checked.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# One draw of M per dense algebra, in increasing k inside each pass (ROADMAP
# item 1's order). A segment certificate's cost depends much on M, so
# dense_large spreads its axb^3 samples over two draws.
DENSE_SMALL_K = 2
DENSE_SMALL_PER_PASS = 16
DENSE_SMALL_SAMPLES = 20
DENSE_LARGE = ((3, 6), (3, 6), (4, 2))  # (k, samples) for axb^k


@dataclass
class Call:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list[str]  # without the --json option, which the pass adds
    expect: dict


# -- closed forms -----------------------------------------------------------

def _family(spec: str) -> tuple[int, int, bool]:
    """(dim, abelianization dim, nilpotent) of one summand spec."""
    name, _, param = spec.partition(":")
    if name == "abelian":
        n = int(param)
        return n, n, True
    if name == "axb":
        return 2, 1, False
    if name == "heisenberg":
        m = int(param)
        return 2 * m + 1, 2 * m, True
    if name == "filiform":
        return int(param), 2, True
    if name == "grelaud":
        return 3, 1, False
    raise ValueError(f"no closed form for {spec!r}")


def _accepted(summands: list[str], open_orbits: bool | None = None) -> dict:
    dims = [_family(s) for s in summands]
    dim = sum(d for d, _, _ in dims)
    r = sum(a for _, a, _ in dims)
    expect = {
        "exit": 0,
        "real_rank": r,
        "stable_rank": 1 if dim == 1 else 1 + max(r // 2, 1),
        "nilpotent": all(n for _, _, n in dims),
    }
    if open_orbits is not None:
        expect["open_orbits"] = open_orbits
    return expect


def _axb_power(k: int) -> dict:
    return _accepted(["axb"] * k, open_orbits=True)


def _rank_values(rr: int, tsr: int) -> dict:
    """Expectation for ``infer``: the true ranks lie in the reported intervals."""
    return {"exit": 0, "infer_rr": rr, "infer_tsr": tsr}


# -- catalog ----------------------------------------------------------------

CATALOG_ACCEPTED = (
    ["abelian:1", "abelian:2", "abelian:3", "axb"]
    + [f"heisenberg:{m}" for m in range(1, 5)]
    + [f"filiform:{n}" for n in range(4, 11)]
    + ["grelaud:0", "grelaud:1", "grelaud:1/2"]
)
CATALOG_SUMS = ("axb+axb", "axb+axb+axb", "axb+heisenberg:1")
REFUSED = {
    "oscillator": {"exit": 2, "refusal": "NotExponential"},
    "e2": {"exit": 2, "refusal": "NotExponential"},
    "sl2": {"exit": 2, "refusal": "NotSolvable"},
}
FIXTURE_INFER = {
    # known ranks of the documented C*-algebras
    "axb.filt": (1, 2),
    "toeplitz.filt": (1, 2),
    "nilpotent_special.filt": (3, 2),
}


def catalog_calls(rng: random.Random) -> list[Call]:
    """Every catalog family at CLI defaults, the shipped fixtures, and the
    refusal and input-error paths, in an order drawn from ``rng``."""
    calls = []
    for spec in CATALOG_ACCEPTED:
        calls.append(Call(f"catalog:{spec}", ["analyze", f"catalog:{spec}"], _accepted([spec])))
    for spec in CATALOG_SUMS:
        expect = _accepted(spec.split("+"), open_orbits=True if spec.startswith("axb+axb") else None)
        calls.append(Call(f"catalog:direct_sum:{spec}", ["analyze", f"catalog:direct_sum:{spec}"], expect))
    for spec, expect in REFUSED.items():
        calls.append(Call(f"catalog:{spec}", ["analyze", f"catalog:{spec}"], dict(expect)))
    calls.append(Call("fixtures/axb.lie", ["analyze", "fixtures/axb.lie"], _accepted(["axb"])))
    calls.append(Call("fixtures/filiform4_broken.lie", ["analyze", "fixtures/filiform4_broken.lie"], {"exit": 1}))
    for name, (rr, tsr) in FIXTURE_INFER.items():
        calls.append(Call(f"fixtures/{name}", ["infer", f"fixtures/{name}"], _rank_values(rr, tsr)))
    rng.shuffle(calls)
    return calls


# -- dense algebras ---------------------------------------------------------


def draw_matrix(rng: random.Random, n: int, lib) -> list[list[int]]:
    """Integer entries in [-2, 2], redrawn until the matrix is invertible."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if lib.det(lib.Mat.from_rows(rows)):
            return rows


def write_dense(lib, k: int, rows: list[list[int]], path: str) -> None:
    """Write change_basis(axb^k, M) with render_lie and check that it parses
    back to exactly the generated structure constants."""
    base = lib.catalog_from_spec("direct_sum:" + "+".join(["axb"] * k))
    L = lib.change_basis(base, lib.Mat.from_rows(rows))
    text = lib.render_lie(L)
    back = lib.parse_lie_file(text)
    if (back.dim, back.basis_names, back.constants) != (L.dim, L.basis_names, L.constants):
        raise ValueError(f"{path}: .lie text does not parse back to the generated algebra")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_filtration(k: int, path: str) -> None:
    """The schematic filtration of axb^k: continuous-trace strata under the
    k-dimensional character space."""
    text = "\n".join(
        [
            "filtration 1",
            "node strata",
            "attr kind = continuous_trace",
            "attr separable = true",
            "attr irreps_infinite_dim = true",
            "attr hausdorff_spectrum = true",
            "attr fiber_dim = infinite",
            f"attr ambient_dim = {2 * k}",
            "node characters",
            "attr kind = commutative",
            f"attr spectrum_dim = {k}",
            "attr spectrum_compact = false",
            "attr hausdorff_spectrum = true",
            "attr no_compact_spectrum_component = true",
            "attr separable = true",
            "attr fiber_dim = 1",
            "flags liminary=unknown group_derived=true real_line=false",
        ]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def dense_calls(lib, rng: random.Random, plan: list[tuple[int, int]], folder: str, record: list) -> list[Call]:
    """Dense algebras for one pass, then the undeformed sums they came from
    (a basis-independence control that also exercises catalog parsing) and
    one generated filtration document per k for ``infer``.

    ``plan`` lists (k, samples) per dense algebra in draw order; every drawn
    matrix is appended to ``record``.
    """
    os.makedirs(folder, exist_ok=True)
    calls = []
    for i, (k, samples) in enumerate(plan):
        rows = draw_matrix(rng, 2 * k, lib)
        record.append({"k": k, "M": rows})
        path = os.path.relpath(os.path.join(folder, f"dense{i}_axb{k}.lie"))
        write_dense(lib, k, rows, path)
        calls.append(Call(path, ["analyze", path, "--samples", str(samples)], _axb_power(k)))
    for k, samples in sorted(set(plan)):
        spec = "direct_sum:" + "+".join(["axb"] * k)
        calls.append(Call(f"catalog:{spec}", ["analyze", f"catalog:{spec}", "--samples", str(samples)], _axb_power(k)))
    for k in sorted({k for k, _ in plan}):
        path = os.path.relpath(os.path.join(folder, f"axb{k}.filt"))
        write_filtration(k, path)
        calls.append(Call(path, ["infer", path], _rank_values(k, _axb_power(k)["stable_rank"])))
    return calls


def pass_calls(workload: str, lib, seed: int, rng: random.Random, folder: str, record: list) -> list[Call]:
    """The inputs of one pass. Catalog passes repeat the same requests, so
    their report bytes must repeat too; dense passes draw fresh matrices
    from ``rng``, which carries on from pass to pass."""
    if workload == "catalog":
        return catalog_calls(random.Random(seed))
    if workload == "dense_small":
        plan = [(DENSE_SMALL_K, DENSE_SMALL_SAMPLES)] * DENSE_SMALL_PER_PASS
    elif workload == "dense_large":
        plan = list(DENSE_LARGE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return dense_calls(lib, rng, plan, folder, record)


# -- the oracle -------------------------------------------------------------


def check(call: Call, code, stderr: str, json_text: str | None) -> list[str]:
    """Problems with one call's output; an empty list means correct."""
    e = call.expect
    if code != e["exit"]:
        return [f"exit {code}, expected {e['exit']}"]
    if e["exit"] == 1:
        return [] if stderr.startswith("error:") else ["no error message on stderr"]
    if json_text is None:
        return ["no JSON report written"]
    try:
        rep = json.loads(json_text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    if "infer_rr" in e:
        total = rep.get("facts", {}).get("total", {})
        for key, value in (("rr", e["infer_rr"]), ("tsr", e["infer_tsr"])):
            lo, hi = total.get(key, [None, None])
            want(lo is not None and lo <= value and (hi is None or value <= hi),
                 f"{key} interval {[lo, hi]} misses {value}")
        return problems
    if "refusal" in e:
        expo = rep["exponentiality"]
        if e["refusal"] == "NotSolvable":
            want(expo.get("refused", {}).get("reason") == "NotSolvable", "not refused as NotSolvable")
        else:
            want(expo.get("status") == "certified_no", "screen is not certified_no")
            want(bool(expo.get("witness")), "no witness")
            want(rep["invariants"].get("refused", {}).get("reason") == "NotExponential",
                 "invariants not refused as NotExponential")
        return problems
    inv = rep["invariants"]
    want(inv.get("real_rank") == e["real_rank"], f"real_rank {inv.get('real_rank')}, expected {e['real_rank']}")
    want(inv.get("stable_rank") == e["stable_rank"],
         f"stable_rank {inv.get('stable_rank')}, expected {e['stable_rank']}")
    want(rep["inference"].get("agreement") is True, "inference does not agree")
    if e["nilpotent"]:
        want(rep["projections"].get("verdict") == "none_nilpotent", "projections not none_nilpotent")
    if "open_orbits" in e:
        want(rep["coadjoint"].get("open_orbits") is e["open_orbits"], "open_orbits wrong")
    return problems
