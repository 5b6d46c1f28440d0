import random
import re
from fractions import Fraction

import pytest

from helpers import det_by_permutations, rand_skew, sym_det, sym_pfaffian_reference
from orbitrank.poly import (
    MPoly,
    UPoly,
    exact_div,
    poly_gcd,
    primitive_part,
    squarefree_part,
    sym_pfaffian,
)


def xi(i, n):
    return MPoly.variable(i, n)


class TestMPoly:
    def test_zero_coefficients_dropped(self):
        p = MPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(3)})
        assert p.terms == {(0, 1): Fraction(3)}

    def test_add_cancels(self):
        p = xi(0, 2) * 2
        q = xi(0, 2) * -2
        assert (p + q).is_zero()

    def test_mul_distributes(self):
        n = 3
        a, b, c = xi(0, n), xi(1, n), xi(2, n)
        assert a * (b + c) == a * b + a * c

    def test_pow(self):
        p = xi(0, 1) + MPoly.constant(1, 1)
        assert (p**2) == p * p
        assert (p**0) == MPoly.constant(1, 1)

    def test_evaluate(self):
        p = xi(0, 2) * xi(1, 2) + MPoly.constant(Fraction(1, 2), 2)
        assert p.evaluate([2, Fraction(3, 4)]) == Fraction(2)

    def test_restrict_to_segment(self):
        # P = x*y restricted to (0,0) -> (2,3) is 6 t^2
        p = xi(0, 2) * xi(1, 2)
        seg = p.restrict_to_segment([0, 0], [2, 3])
        assert seg == UPoly((0, 0, 6))

    def test_render_graded_lex(self):
        n = 2
        p = xi(0, n) + xi(1, n) * xi(1, n) * 3 - MPoly.constant(2, n)
        assert p.render(["x", "y"]) == "3*y^2 + x - 2"

    def test_render_examples(self):
        assert MPoly.zero(2).render(["x", "y"]) == "0"
        assert (xi(1, 2) ** 2).render(["xi_X", "xi_Y"]) == "xi_Y^2"
        assert (-xi(0, 1)).render(["x"]) == "-x"


class TestUPoly:
    def test_trim(self):
        assert UPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert UPoly((0, 0)).is_zero()

    def test_divmod_exact(self):
        p = UPoly((-2, 0, 1))  # x^2 - 2
        q, r = p.divmod(UPoly((1, 1)))  # x + 1
        assert q == UPoly((-1, 1))
        assert r == UPoly((-1,))

    def test_gcd(self):
        a = UPoly((-1, 0, 1))  # (x-1)(x+1)
        b = UPoly((-1, 1)) * UPoly((3, 1))
        assert poly_gcd(a, b) == UPoly((-1, 1))

    def test_gcd_of_zero(self):
        p = UPoly((1, 2))
        assert poly_gcd(UPoly.zero(), p) == primitive_part(p)

    def test_squarefree(self):
        p = UPoly((-1, 1)) * UPoly((-1, 1)) * UPoly((2, 1))
        sf = squarefree_part(p)
        assert sf.degree() == 2
        assert sf.evaluate(1) == 0 and sf.evaluate(-2) == 0

    def test_exact_div_raises(self):
        with pytest.raises(ValueError):
            exact_div(UPoly((1, 1, 1)), UPoly((1, 1)))


class TestPfaffian:
    def test_2x2_symbolic(self):
        n = 1
        a = xi(0, n)
        m = [[MPoly.zero(n), a], [-a, MPoly.zero(n)]]
        assert sym_pfaffian(m) == a

    def test_3x3_skew_is_zero(self):
        rng = random.Random(3)
        a = rand_skew(rng, 3)
        m = [[MPoly.constant(x, 0) for x in row] for row in a]
        assert sym_pfaffian(m).is_zero()

    def test_generic_4x4(self):
        # entries a_{jk} as independent variables, Pfaffian a01*a23 - a02*a13 + a03*a12
        n = 6
        names = {}
        idx = 0
        for j in range(4):
            for k in range(j + 1, 4):
                names[(j, k)] = idx
                idx += 1
        m = [[MPoly.zero(n) for _ in range(4)] for _ in range(4)]
        for (j, k), i in names.items():
            m[j][k] = xi(i, n)
            m[k][j] = -xi(i, n)
        pf = sym_pfaffian(m)
        expected = (
            xi(names[(0, 1)], n) * xi(names[(2, 3)], n)
            - xi(names[(0, 2)], n) * xi(names[(1, 3)], n)
            + xi(names[(0, 3)], n) * xi(names[(1, 2)], n)
        )
        assert pf == expected
        assert pf * pf == sym_det(m)

    def test_non_skew_rejected(self):
        n = 1
        a = xi(0, n)
        with pytest.raises(ValueError):
            sym_pfaffian([[MPoly.zero(n), a], [a, MPoly.zero(n)]])
        with pytest.raises(ValueError):
            sym_pfaffian([[a, a], [-a, MPoly.zero(n)]])

    @pytest.mark.parametrize("pfaffian", [sym_pfaffian, sym_pfaffian_reference])
    @pytest.mark.parametrize(
        "place, shift, message",
        [
            ((1, 3), xi(1, 2) * Fraction(1, 7), "entries (1,3) and (3,1) are not opposite"),
            ((2, 2), xi(1, 2) * Fraction(1, 7), "nonzero diagonal entry at (2,2)"),
            ((1, 3), None, "mixed variable counts"),
        ],
    )
    def test_both_pfaffians_reject_bad_4x4(self, pfaffian, place, shift, message):
        m = [[MPoly.zero(2) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                m[i][j] = xi(0, 2) * (i + 1) - xi(1, 2) * j
                m[j][i] = -m[i][j]
        i, j = place
        if shift is None:  # the pair moves to a ring in three variables
            m[i][j], m[j][i] = xi(2, 3), -xi(2, 3)
        else:
            m[i][j] = m[i][j] + shift
        with pytest.raises(ValueError, match=re.escape(message)):
            pfaffian(m)

    def test_squares_to_determinant_random(self):
        rng = random.Random(11)
        for n in (2, 4, 6):
            for _ in range(25):
                a = rand_skew(rng, n)
                m = [[MPoly.constant(x, 0) for x in row] for row in a]
                pf = sym_pfaffian(m).constant_value()
                assert pf * pf == det_by_permutations(a)


def test_sym_det_matches_permutation_oracle():
    rng = random.Random(5)
    for n in (2, 3, 4):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        m = [[MPoly.constant(x, 0) for x in row] for row in rows]
        assert sym_det(m).constant_value() == det_by_permutations(rows)
