"""Property-based checks of the algebraic invariants."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    charpoly_reference,
    det_by_permutations,
    restrict_to_segment_reference,
    sym_pfaffian_reference,
)
from orbitrank.linalg import Mat, charpoly, kernel_basis, rref_rank
from orbitrank.poly import MPoly, UPoly, sym_pfaffian
from orbitrank.sturm import sturm_root_count

fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(4, 5))
def test_rref_idempotent_and_rank_nullity(rows):
    m = Mat.from_rows(rows)
    reduced, rank = rref_rank(m)
    again, rank2 = rref_rank(reduced)
    assert again == reduced and rank2 == rank
    assert rank == m.cols - kernel_basis(m).dim


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(3, 3))
def test_kernel_vectors_annihilated(rows):
    m = Mat.from_rows(rows)
    for v in kernel_basis(m).basis.entries:
        assert all(x == 0 for x in m.mul_vec(v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(fractions, min_size=6, max_size=6))
def test_pfaffian_squared_is_determinant_4x4(uppers):
    a = [[Fraction(0)] * 4 for _ in range(4)]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (i, j), v in zip(pairs, uppers):
        a[i][j] = v
        a[j][i] = -v
    m = [[MPoly.constant(x, 0) for x in row] for row in a]
    pf = sym_pfaffian(m).constant_value()
    assert pf * pf == det_by_permutations(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=7),
    st.integers(min_value=-3, max_value=3),
)
def test_sturm_interval_additivity(coeffs, mid):
    p = UPoly(coeffs)
    if p.is_zero():
        return
    a, b, c = Fraction(-11), Fraction(mid), Fraction(11)
    if p.evaluate(a) == 0 or p.evaluate(c) == 0:
        return
    at_mid = 1 if p.evaluate(b) == 0 else 0
    assert sturm_root_count(p, a, b) + sturm_root_count(p, b, c) + at_mid == sturm_root_count(p, a, c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(fractions, min_size=4, max_size=4), st.lists(fractions, min_size=4, max_size=4))
def test_segment_restriction_matches_evaluation(p_coords, q_coords):
    poly = MPoly.variable(0, 4) * MPoly.variable(1, 4) + MPoly.variable(3, 4) ** 2
    seg = poly.restrict_to_segment(p_coords, q_coords)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        point = [a + t * (b - a) for a, b in zip(p_coords, q_coords)]
        assert seg.evaluate(t) == poly.evaluate(point)


# -- integer kernels against their Fraction references ----------------------

wide_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def square_matrices(max_n, entries):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(square_matrices(9, wide_fractions))
@example([])
@example([[0] * 5 for _ in range(5)])
@example([[Fraction(1, 999983), Fraction(-1, 10**6)], [Fraction(7, 999979), 0]])
def test_charpoly_matches_fraction_reference(rows):
    m = Mat.from_rows(rows)
    assert charpoly(m) == charpoly_reference(m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_matrices(5, fractions))
def test_charpoly_is_det_of_t_minus_a(rows):
    n = len(rows)
    cp = charpoly(Mat.from_rows(rows))
    for k in range(n + 1):
        t = Fraction(2 * k - n, 3)
        shifted = [[(t if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        assert cp.evaluate(t) == det_by_permutations(shifted)


@st.composite
def segment_cases(draw):
    """A polynomial (any degrees, not homogeneous) and a segment; endpoints
    mix Fractions and ints and sometimes coincide."""
    nvars = draw(st.integers(min_value=0, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    terms = draw(st.dictionaries(exps, wide_fractions, max_size=8))
    coords = st.lists(
        st.one_of(wide_fractions, st.integers(min_value=-50, max_value=50)),
        min_size=nvars,
        max_size=nvars,
    )
    start = draw(coords)
    end = start if draw(st.booleans()) else draw(coords)
    return MPoly(nvars, terms), start, end


@settings(max_examples=120, deadline=None, derandomize=True)
@given(segment_cases())
@example((MPoly.zero(3), [1, Fraction(1, 2), 3], [0, 0, 0]))
@example((MPoly.constant(Fraction(-7, 3), 2), [Fraction(1, 5), 2], [3, 4]))
@example((MPoly.constant(5, 0), [], []))
@example((MPoly(2, {(2, 1): 3, (0, 1): Fraction(1, 7), (0, 0): -2}), [1, -2], [1, -2]))
@example((MPoly(3, {(1, 1, 1): 1, (3, 0, 0): Fraction(-2, 9)}), [1, 2, 3], [-4, 0, 5]))
def test_segment_restriction_matches_fraction_reference(case):
    poly, start, end = case
    assert poly.restrict_to_segment(start, end) == restrict_to_segment_reference(poly, start, end)


coefficients = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


@st.composite
def square_cases(draw):
    """A polynomial in 1-6 variables with exponents 0-6; half the time it
    also holds terms a*x^u, b*x^v, c*x^w, d*x^z with u + v = w + z and
    a*b = -c*d, so that their cross products cancel in the square."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    exps = st.tuples(*[st.integers(min_value=0, max_value=6)] * nvars)
    terms = draw(st.dictionaries(exps, coefficients, max_size=12))
    if draw(st.booleans()):
        u, v = draw(exps), draw(exps)
        w = tuple(
            draw(st.integers(min_value=max(0, s - 6), max_value=min(6, s)))
            for s in (a + b for a, b in zip(u, v))
        )
        z = tuple(a + b - c for a, b, c in zip(u, v, w))
        a, b, c = (draw(coefficients.filter(bool)) for _ in range(3))
        quad = [(u, a), (v, b), (w, c), (z, -a * b / c)]
        return sum((MPoly(nvars, {e: k}) for e, k in quad), MPoly(nvars, terms))
    return MPoly(nvars, terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square_cases())
@example(MPoly.zero(3))
@example(MPoly.constant(Fraction(-7, 3), 2))
@example(MPoly.constant(5, 0))
@example(MPoly(4, {(0, 0, 5, 0): Fraction(-999999, 1000000)}))
@example(MPoly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 1}))
def test_square_matches_fraction_product(poly):
    assert poly.square() == poly * poly


@st.composite
def skew_cases(draw):
    """A skew n x n matrix of MPolys, n in 1-8, in 0-4 variables: about a
    third of the upper entries are zero, the others have one to three terms
    of degree 0-2."""
    n = draw(st.sampled_from(range(1, 9)))
    nvars = draw(st.sampled_from(range(5)))
    monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    entry = st.dictionaries(st.sampled_from(monomials), coefficients.filter(bool), min_size=1, max_size=3)
    m = [[MPoly.zero(nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.sampled_from((True, True, False))):
                m[i][j] = MPoly(nvars, draw(entry))
                m[j][i] = -m[i][j]
    return m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(skew_cases())
@example([[MPoly.zero(0)]])
@example([[MPoly.zero(2)] * 2] * 2)
@example(
    [
        [MPoly.zero(1), MPoly(1, {(2,): Fraction(1, 3)})],
        [MPoly(1, {(2,): Fraction(-1, 3)}), MPoly.zero(1)],
    ]
)
def test_sym_pfaffian_matches_fraction_reference(m):
    assert sym_pfaffian(m) == sym_pfaffian_reference(m)
