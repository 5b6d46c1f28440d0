"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import time
from contextlib import contextmanager

from conftest import FIXTURES
from helpers import bisection_root_count, rand_matrix, rand_skew, sym_det
from orbitrank.catalog import abelian, axb, direct_sum, e2, filiform, grelaud, heisenberg, oscillator, sl2
from orbitrank.coadjoint import (
    b_matrix_sym,
    estimate_open_orbit_components,
    has_open_orbits,
    orbit_data_at,
    p_polynomial,
)
from orbitrank.inference import derive_group_filtration, infer, parse_filtration, replay_trace
from orbitrank.invariants import (
    GroupFlags,
    projection_verdict,
    real_rank,
    rr_upper_bound_nonsimply_connected,
    stable_rank,
)
from orbitrank.liealg import NotSolvable, change_basis, exponentiality_check
from orbitrank.linalg import Mat, det
from orbitrank.poly import MPoly, UPoly, sym_pfaffian
from orbitrank.report import analyze_algebra
from orbitrank.sturm import sturm_root_count


@contextmanager
def criterion(number, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[acceptance] criterion {number:2d} ({description}): {'PASS' if ok else 'FAIL'}")


def screen(L, **kw):
    return GroupFlags(exponentiality=exponentiality_check(L, seed=0, trials=50), **kw)


GOLDEN = [
    ("abelian(1)", lambda: abelian(1), 1, 1),
    ("axb", axb, 1, 2),
    ("heisenberg(1)", lambda: heisenberg(1), 2, 2),
    ("heisenberg(2)", lambda: heisenberg(2), 4, 3),
    ("filiform(4)", lambda: filiform(4), 2, 2),
    ("grelaud(1)", lambda: grelaud(1), 1, 2),
    ("abelian(3)", lambda: abelian(3), 3, 2),
    ("direct_sum(axb,axb)", lambda: direct_sum(axb(), axb()), 2, 2),
]


def random_valid_odd_algebra(rng):
    """Random change of basis of an odd-dimensional catalog entry."""
    base = rng.choice(
        [heisenberg(1), heisenberg(2), e2(), grelaud(1), abelian(3), abelian(5), filiform(3), filiform(5), sl2()]
    )
    while True:
        m = Mat.from_rows(rand_matrix(rng, base.dim, base.dim))
        if det(m) != 0:
            return change_basis(base, m)


def test_criterion_1_golden_invariant_table():
    with criterion(1, "golden invariant table"):
        start = time.monotonic()
        for name, build, want_rr, want_sr in GOLDEN:
            L = build()
            flags = screen(L)
            assert real_rank(L, flags) == want_rr, name
            assert stable_rank(L, flags) == want_sr, name
        assert time.monotonic() - start < 1.0


def test_criterion_2_pfaffian_squares_to_determinant():
    with criterion(2, "Pfaffian property, 1000 matrices per size 2/4/6/8"):
        start = time.monotonic()
        rng = random.Random(2)
        for n in (2, 4, 6, 8):
            for _ in range(1000):
                rows = rand_skew(rng, n)
                m = [[MPoly.constant(x, 0) for x in row] for row in rows]
                pf = sym_pfaffian(m).constant_value()
                assert pf * pf == det(Mat.from_rows(rows))
        assert time.monotonic() - start < 30.0


def test_criterion_3_odd_dimension_vanishing():
    with criterion(3, "p_polynomial vanishes in odd dimension"):
        for L in (heisenberg(1), heisenberg(2), e2(), grelaud(1), abelian(3), filiform(5), sl2()):
            assert L.dim % 2 == 1
            assert p_polynomial(L).is_zero()
        rng = random.Random(3)
        for i in range(100):
            L = random_valid_odd_algebra(rng)
            assert p_polynomial(L).is_zero()
            if L.dim == 3 and i % 10 == 0:
                assert sym_det(b_matrix_sym(L)).is_zero()


def test_criterion_4_axb_coadjoint_suite():
    with criterion(4, "ax+b coadjoint suite"):
        L = axb()
        assert p_polynomial(L).render(["xi_X", "xi_Y"]) == "xi_Y^2"
        assert has_open_orbits(L)
        od = orbit_data_at(L, [0, 1])
        assert od.open and od.isotropy.dim == 0
        assert estimate_open_orbit_components(L, 200, seed=0).component_count == 2
        ds = direct_sum(axb(), axb())
        assert estimate_open_orbit_components(ds, 400, seed=0).component_count == 4


def test_criterion_5_projection_verdicts():
    with criterion(5, "projection verdicts"):
        for m in (1, 2):
            pv = projection_verdict(heisenberg(m), screen(heisenberg(m)))
            assert pv.verdict == "none_nilpotent"
        pv = projection_verdict(axb(), screen(axb()), samples=200, seed=0)
        assert pv.verdict == "exists_open_orbits" and pv.open_orbit_count_estimate == 2
        pv = projection_verdict(grelaud(1), screen(grelaud(1)))
        assert pv.verdict == "unknown" and pv.gr_equals_J0


def test_criterion_6_exponentiality_screen():
    with criterion(6, "exponentiality screen"):
        for L, dim in ((oscillator(), 4), (e2(), 3)):
            v = exponentiality_check(L, seed=0, trials=50)
            assert v.status == "certified_no"
            assert v.witness is not None and len(v.witness) == dim
        exponential = [build() for _, build, _, _ in GOLDEN]
        for L in exponential:
            assert exponentiality_check(L, seed=0, trials=50).status == "heuristic_yes"
        try:
            exponentiality_check(sl2(), seed=0, trials=50)
            assert False, "sl2 must be rejected"
        except NotSolvable:
            pass


def test_criterion_7_inference_cross_check():
    with criterion(7, "inference engine reproduces the closed forms"):
        for name, build, want_rr, want_sr in GOLDEN:
            start = time.monotonic()
            L = build()
            flags = screen(L)
            doc = derive_group_filtration(L, flags)
            table = infer(doc)
            assert table.rr_interval() == (want_rr, want_rr), name
            assert table.tsr_interval() == (want_sr, want_sr), name
            replayed = replay_trace(doc, table.trace)
            assert replayed.snapshot() == table.snapshot(), name
            assert time.monotonic() - start < 1.0, name


def test_criterion_8_external_fixture_inference():
    with criterion(8, "external fixture inference"):
        with open(os.path.join(FIXTURES, "toeplitz.filt"), encoding="utf-8") as fh:
            toeplitz = parse_filtration(fh.read())
        assert infer(toeplitz).rr_interval() == (1, 1)
        with open(os.path.join(FIXTURES, "nilpotent_special.filt"), encoding="utf-8") as fh:
            special = parse_filtration(fh.read())
        table = infer(special)
        # the last node's spectrum is the character space of dimension 3
        assert special.nodes[-1].ann.spectrum_dim == 3
        assert table.rr_interval() == (3, 3)


def test_criterion_9_sturm_against_bisection_oracle():
    with criterion(9, "Sturm counts match the bisection oracle on 500 polynomials"):
        rng = random.Random(9)
        for _ in range(500):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-15, 15) for _ in range(deg)]
            coeffs.append(rng.choice([c for c in range(-15, 16) if c]))
            p = UPoly(coeffs)
            assert sturm_root_count(p, -10, 10) == bisection_root_count(coeffs, -10, 10)


def test_criterion_10_corollary_bound_possibly_strict():
    with criterion(10, "non-simply-connected upper bound marked possibly strict"):
        L = abelian(1)
        flags = screen(L, simply_connected=False)
        # bound is 1 although the circle group itself has real rank 0
        assert rr_upper_bound_nonsimply_connected(L, flags) == 1
        report, code = analyze_algebra(L, simply_connected=False)
        assert code == 2
        assert report["invariants"]["real_rank_upper_bound"] == 1
        assert report["invariants"]["upper_bound_possibly_strict"] is True
