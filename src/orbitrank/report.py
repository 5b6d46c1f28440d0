"""Analysis pipeline and deterministic report assembly.

The report is a plain dict ready for JSON serialization: all keys are always
present, refused sections carry a ``refused`` object with the reason (and
witness where one exists), and every randomized field records its seed, so
identical input and options produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import coadjoint as coad
from . import inference
from .catalog import catalog_from_spec
from .invariants import (
    GroupFlags,
    NotExponential,
    NotSimplyConnected,
    projection_verdict,
    real_rank,
    rr_upper_bound_nonsimply_connected,
    stable_rank,
)
from .liealg import ExponentialityVerdict, LieAlgebra, exponentiality_check, structure_report
from .lieio import LieParseError, parse_lie_file, read_utf8, render_bracket_terms

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REFUSED = 2
SCREEN_TRIALS = 50  # random combinations the exponentiality screen tries


def _vector(v) -> list[str]:
    return [str(Fraction(x)) for x in v]


def analyze_algebra(
    L: LieAlgebra,
    samples: int = 200,
    seed: int = 0,
    assume_exponential: bool = False,
    simply_connected: bool = True,
) -> tuple[dict, int]:
    """Run the full pipeline and return (report, exit_code)."""
    report: dict = {}

    report["algebra"] = {
        "dim": L.dim,
        "basis": list(L.basis_names),
        "brackets": [
            f"[{L.basis_names[j]},{L.basis_names[k]}] = "
            + render_bracket_terms(L.constants[(j, k)], L.basis_names)
            for (j, k) in sorted(L.constants)
        ],
    }

    st = structure_report(L)
    report["structure"] = {
        "derived_series_dims": list(st.derived_series_dims),
        "solvable": st.solvable,
        "nilpotent": st.nilpotent,
        "abelianization_dim": st.abelianization_dim,
        "center_dim": st.center_dim,
    }

    verdict: ExponentialityVerdict | None = None
    if not st.solvable:
        report["exponentiality"] = {"refused": {"reason": "NotSolvable"}}
    elif assume_exponential:
        verdict = ExponentialityVerdict(status="asserted")
        report["exponentiality"] = {"status": "asserted"}
    else:
        verdict = exponentiality_check(L, seed=seed, trials=SCREEN_TRIALS)
        section = {"status": verdict.status, "seed": seed, "trials": SCREEN_TRIALS}
        if verdict.witness is not None:
            section["witness"] = _vector(verdict.witness)
        report["exponentiality"] = section

    # coadjoint data is meaningful for any connected Lie group
    poly = coad.p_polynomial(L)
    names = [f"xi_{n}" for n in L.basis_names]
    estimate = coad.estimate_open_orbit_components(L, samples, seed)
    report["coadjoint"] = {
        "p_polynomial": poly.render(names),
        "open_orbits": not poly.is_zero(),
        "component_estimate": {
            "samples": estimate.sample_count,
            "seed": estimate.seed,
            "component_count": estimate.component_count,
            "certified_edges": len(estimate.certificates),
        },
    }

    # real_rank, projection_verdict and derive_group_filtration share one
    # hypothesis check, so one refusal covers the last three sections
    refusal: dict | None = None
    if verdict is None:
        refusal = {"reason": "NotSolvable"}
        report["invariants"] = {"refused": refusal}
    else:
        flags = GroupFlags(exponentiality=verdict, simply_connected=simply_connected)
        banner = f"exponential ({'asserted' if verdict.status == 'asserted' else 'heuristic'})"
        try:
            rr = real_rank(L, flags)
            sr = stable_rank(L, flags)
            report["invariants"] = {
                "real_rank": rr,
                "stable_rank": sr,
                "hypothesis": banner,
            }
        except NotExponential as exc:
            refusal = {"reason": "NotExponential", "witness": _vector(exc.witness)}
            report["invariants"] = {"refused": refusal}
        except NotSimplyConnected:
            refusal = {"reason": "NotSimplyConnected"}
            bound = rr_upper_bound_nonsimply_connected(L, flags)
            report["invariants"] = {
                "refused": refusal,
                "real_rank_upper_bound": bound,
                "upper_bound_possibly_strict": True,
                "hypothesis": banner,
            }
    if refusal is not None:
        report["projections"] = {"refused": refusal}
        report["inference"] = {"refused": refusal}
        return report, EXIT_REFUSED

    pv = projection_verdict(L, flags, samples=samples, seed=seed, component_estimate=estimate)
    section = {
        "verdict": pv.verdict,
        "gr_equals_J0": pv.gr_equals_J0,
        "J0_proper": pv.J0_proper,
    }
    if pv.open_orbit_count_estimate is not None:
        section["open_orbit_count_estimate"] = pv.open_orbit_count_estimate
    report["projections"] = section

    doc = inference.derive_group_filtration(L, flags)
    table = inference.infer(doc)
    rr_iv = table.rr_interval()
    tsr_iv = table.tsr_interval()
    report["inference"] = {
        "rr_interval": list(rr_iv),
        "tsr_interval": list(tsr_iv),
        "gr": table.gr_fact(),
        "agreement": rr_iv == (rr, rr) and tsr_iv == (sr, sr),
        "trace_length": len(table.trace),
    }
    return report, EXIT_OK


def load_algebra(source: str) -> LieAlgebra:
    """Build the algebra named by a .lie file path or a catalog:<name>[:<params>] pseudo-path."""
    if source.startswith("catalog:"):
        return catalog_from_spec(source[len("catalog:") :])
    return parse_lie_file(read_utf8(source, LieParseError))


def analyze_source(source: str, **options) -> tuple[dict, int]:
    """Analyze a .lie file path or a catalog:<name>[:<params>] pseudo-path."""
    return analyze_algebra(load_algebra(source), **options)


def report_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _render_section(lines: list[str], title: str, section: dict) -> None:
    lines.append(f"{title}:")
    if "refused" in section:
        reason = section["refused"]["reason"]
        extra = ""
        if "witness" in section["refused"]:
            extra = f" (witness {' '.join(section['refused']['witness'])})"
        lines.append(f"  refused: {reason}{extra}")
        for key in sorted(section):
            if key != "refused":
                lines.append(f"  {key}: {section[key]}")
        return
    for key, value in section.items():
        lines.append(f"  {key}: {value}")


def render_text(report: dict) -> str:
    lines: list[str] = []
    alg = report["algebra"]
    lines.append(f"algebra: dim {alg['dim']}, basis {' '.join(alg['basis'])}")
    for b in alg["brackets"]:
        lines.append(f"  {b}")
    for key in ("structure", "exponentiality", "invariants", "coadjoint", "projections", "inference"):
        _render_section(lines, key, report[key])
    return "\n".join(lines) + "\n"
