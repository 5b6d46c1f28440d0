"""Independent oracles and random generators shared by the tests.

The oracles here deliberately avoid the library's own code paths: the rank
oracle enumerates square minors with its own determinant, and the root-count
oracle bisects on sign changes. The three reference implementations of
``charpoly``, ``restrict_to_segment`` and ``sym_pfaffian`` run the same
algorithms as the library on ``Fraction`` values, where the library runs
them on integers over a common denominator (and memoizes the Pfaffian). Where a library value is checked against an oracle, the
oracle stays the authority. ``sym_det`` is a cofactor-expansion cross-check
for the library's Pfaffian route, ``exponentiality_check_reference`` is the
exponentiality screen without the library's nilpotent shortcut,
``SUBSUMED_RULES`` keeps three inference rules that the engine dropped
because other rules subsume them, and the two filtration renderers write a
document in each input format.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from orbitrank.inference import _max_interval, _stable_hyps
from orbitrank.liealg import (
    ExponentialityVerdict,
    NotSolvable,
    _has_nonzero_imaginary_eigenvalue,
    ad_matrix,
    is_solvable,
)
from orbitrank.linalg import Mat, charpoly
from orbitrank.poly import MPoly, UPoly, _frac


def rand_fraction(rng: random.Random, num=9, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]


def rand_skew(rng: random.Random, n: int) -> list[list[Fraction]]:
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_fraction(rng)
            a[i][j] = v
            a[j][i] = -v
    return a


def det_by_permutations(rows) -> Fraction:
    """Leibniz-formula determinant; fine up to 6x6."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def minor_rank_oracle(rows) -> int:
    """Rank as the largest k with some nonvanishing k x k minor."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in itertools.combinations(range(nr), k):
            for csel in itertools.combinations(range(nc), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                if det_by_permutations(minor) != 0:
                    return k
    return 0


def sym_det(m: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a square matrix of polynomials by cofactor expansion.

    A cross-check at small sizes; the library squares the Pfaffian instead.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = m[0][0].nvars
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")

    def det_rec(rows: list[int], cols: list[int]) -> MPoly:
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = MPoly.zero(nvars)
        r0 = rows[0]
        rest = rows[1:]
        for i, c in enumerate(cols):
            entry = m[r0][c]
            if entry.is_zero():
                continue
            sub = det_rec(rest, cols[:i] + cols[i + 1 :])
            term = entry * sub
            total = total + (term if i % 2 == 0 else -term)
        return total

    idx = list(range(n))
    return det_rec(idx, idx)


# ---------------------------------------------------------------------------
# Fraction reference implementations of the library's integer kernels

def charpoly_reference(m: Mat) -> UPoly:
    """Monic det(tI - m) by Faddeev-LeVerrier on Fraction entries."""
    n = m.rows
    if n == 0:
        return UPoly((1,))
    coeffs = [Fraction(1)]  # c_0 = 1 for t^n, then c_1 ... c_n
    mk = Mat.zero(n, n)
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        shifted = Mat.from_rows(
            [
                [mk.entries[i][j] + (coeffs[k - 1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        mk = m.mul(shifted)
        coeffs.append(-mk.trace() / k)
    return UPoly(list(reversed(coeffs)))


def sym_pfaffian_reference(m: Sequence[Sequence[MPoly]]) -> MPoly:
    """Pfaffian by plain first-row expansion in MPoly arithmetic, (n-1)!!
    products; zero for odd size, ValueError unless skew with zero diagonal."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = m[0][0].nvars
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("matrix is not square")
        if not m[i][i].is_zero():
            raise ValueError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, n):
            if not (m[i][j] + m[j][i]).is_zero():
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")
    if n % 2 == 1:
        return MPoly.zero(nvars)

    def pf(indices: list[int]) -> MPoly:
        if not indices:
            return MPoly.constant(1, nvars)
        i0 = indices[0]
        rest = indices[1:]
        total = MPoly.zero(nvars)
        for t, j in enumerate(rest):
            entry = m[i0][j]
            if entry.is_zero():
                continue
            sub = pf(rest[:t] + rest[t + 1 :])
            term = entry * sub
            total = total + (term if t % 2 == 0 else -term)
        return total

    return pf(list(range(n)))


def restrict_to_segment_reference(poly, start, end) -> UPoly:
    """poly along t -> start + t*(end - start), term by term in UPoly arithmetic."""
    p = [_frac(x) for x in start]
    d = [_frac(b) - a for a, b in zip(p, end)]
    lines = [UPoly((p[i], d[i])) for i in range(poly.nvars)]
    total = UPoly.zero()
    for exp, c in poly.terms.items():
        term = UPoly((c,))
        for line, e in zip(lines, exp):
            for _ in range(e):
                term = term * line
        total = total + term
    return total


# ---------------------------------------------------------------------------
# the exponentiality screen as it ran before the Engel shortcut

def exponentiality_check_reference(L, seed: int = 0, trials: int = 50) -> ExponentialityVerdict:
    """The spectral screen run on every candidate, nilpotent algebras included:
    each basis vector, then ``trials`` seeded random rational combinations."""
    if not is_solvable(L):
        raise NotSolvable("exponentiality screen requires a solvable algebra")
    candidates = [tuple(Fraction(1 if i == t else 0) for i in range(L.dim)) for t in range(L.dim)]
    rng = random.Random(seed)
    for _ in range(trials):
        candidates.append(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(L.dim))
        )
    for x in candidates:
        if any(x) and _has_nonzero_imaginary_eigenvalue(charpoly(ad_matrix(L, x))):
            return ExponentialityVerdict(status="certified_no", witness=x)
    return ExponentialityVerdict(status="heuristic_yes")


# ---------------------------------------------------------------------------
# bisection root-count oracle (independent of the Sturm implementation)

def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _deriv(cs):
    return _trim([k * c for k, c in enumerate(cs)][1:])


def _divmod(a: list[Fraction], b: list[Fraction]):
    rem = list(a)
    if len(rem) < len(b):
        return [], rem
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
    return _trim(quot), _trim(rem)


def _gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    return a


def _eval(cs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(cs):
        total = total * x + c
    return total


def _strip_root(cs, r: Fraction):
    factor = [-r, Fraction(1)]
    while cs and _eval(cs, r) == 0:
        cs, rem = _divmod(cs, factor)
        assert not rem
    return cs


def bisection_root_count(coeffs, a, b, grid=4096, tol=Fraction(1, 2**20)) -> int:
    """Distinct real roots of the polynomial strictly inside (a, b).

    Squarefree reduction, then a sign scan over a uniform grid with
    bisection refinement near sign changes down to width ``tol``. Exact
    rational arithmetic throughout; exact zeros at probe points count as
    roots and the scan restarts just past them.
    """
    cs = _trim([Fraction(c) for c in coeffs])
    assert cs, "zero polynomial"
    a, b = Fraction(a), Fraction(b)
    g = _gcd(cs, _deriv(cs))
    if len(g) > 1:
        cs, rem = _divmod(cs, g)
        assert not rem
    cs = _strip_root(cs, a)
    cs = _strip_root(cs, b)
    if len(cs) <= 1:
        return 0

    # integer-scaled sign evaluation: sign p(n/d) = sign sum c_k n^k d^(deg-k)
    scale = lcm(*[c.denominator for c in cs])
    ics = [int(c * scale) for c in cs]
    deg = len(ics) - 1

    def scaled(x: Fraction) -> int:
        n, d = x.numerator, x.denominator
        total = 0
        dp = 1
        for c in reversed(ics):
            total = total * n + c * dp
            dp *= d
        return total

    def probe_pair(x: Fraction, delta: Fraction):
        """Nonzero values just left and right of x."""
        fl, fr = scaled(x - delta), scaled(x + delta)
        while fl == 0 or fr == 0:
            delta /= 2
            fl, fr = scaled(x - delta), scaled(x + delta)
        return x - delta, fl, x + delta, fr

    def refine(lo, hi, flo, fhi):
        # flo, fhi nonzero with opposite signs: at least one root inside
        if hi - lo < tol:
            return 1
        mid = (lo + hi) / 2
        fm = scaled(mid)
        if fm == 0:
            xl, fl, xr, fr = probe_pair(mid, (hi - lo) / 8)
            count = 1
            if (flo > 0) != (fl > 0):
                count += refine(lo, xl, flo, fl)
            if (fr > 0) != (fhi > 0):
                count += refine(xr, hi, fr, fhi)
            return count
        if (flo > 0) != (fm > 0):
            return refine(lo, mid, flo, fm)
        return refine(mid, hi, fm, fhi)

    count = 0
    step = (b - a) / grid
    prev_x, prev_f = a, scaled(a)
    assert prev_f != 0
    for i in range(1, grid + 1):
        x = a + i * step
        f = scaled(x)
        if f == 0:
            if i < grid:  # roots at the open-interval endpoints are excluded
                count += 1
            xl, fl, xr, fr = probe_pair(x, step / 8)
            if (prev_f > 0) != (fl > 0):
                count += refine(prev_x, xl, prev_f, fl)
            prev_x, prev_f = xr, fr
            continue
        if (prev_f > 0) != (f > 0):
            count += refine(prev_x, x, prev_f, f)
        prev_x, prev_f = x, f
    return count


# ---------------------------------------------------------------------------
# inference rules subsumed by R4, R11 and R14 (their two-node cases)

def _rule_r3(doc, table):
    if len(doc.nodes) != 2:
        return
    if _stable_hyps(doc.nodes[0].ann, table.nodes[doc.nodes[0].name]):
        value = _max_interval(table.nodes[n.name].rr for n in doc.nodes)
        yield ("total", "rr", value, "extension max rule")


def _rule_r10(doc, table):
    if len(doc.nodes) != 2:
        return
    if _stable_hyps(doc.nodes[0].ann, table.nodes[doc.nodes[0].name]):
        hi = table.nodes[doc.nodes[1].name].tsr[1]
        if hi is not None:
            yield ("total", "tsr", (None, max(2, hi)), "")


def _rule_r13(doc, table):
    if len(doc.nodes) != 2:
        return
    if table.nodes[doc.nodes[1].name].gr == "zero":
        yield ("total", "gr", "equals_first_ideal", "")


SUBSUMED_RULES = (("R3", _rule_r3), ("R10", _rule_r10), ("R13", _rule_r13))


def with_subsumed_rules(rules):
    """The rule list with R3, R10 and R13 back in their numbered places."""
    return tuple(sorted(list(rules) + list(SUBSUMED_RULES), key=lambda r: int(r[0][1:])))


# ---------------------------------------------------------------------------
# filtration documents in both input formats, every field written out


def _filtration_fields(doc):
    nodes = [(n.name, list(zip(n.ann._fields, n.ann))) for n in doc.nodes]
    flags = [
        ("liminary", doc.flags.liminary),
        ("group_derived", doc.flags.group_derived),
        ("real_line", doc.flags.is_real_line_group),
    ]
    return nodes, flags


def _token(value) -> str:
    if value is None:
        return "unknown"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_filtration_text(doc) -> str:
    """The document in the line-based format; None is written ``unknown``."""
    nodes, flags = _filtration_fields(doc)
    lines = ["filtration 1"]
    for name, attrs in nodes:
        lines.append(f"node {name}")
        lines.extend(f"attr {key} = {_token(value)}" for key, value in attrs)
    lines.append("flags " + " ".join(f"{key}={_token(value)}" for key, value in flags))
    return "\n".join(lines) + "\n"


def render_filtration_json(doc) -> str:
    """The document as JSON; None is written ``"unknown"``."""
    nodes, flags = _filtration_fields(doc)

    def members(items):
        return {key: "unknown" if value is None else value for key, value in items}

    return json.dumps(
        {
            "filtration": 1,
            "nodes": [{"name": name, "attrs": members(attrs)} for name, attrs in nodes],
            "flags": members(flags),
        }
    )
