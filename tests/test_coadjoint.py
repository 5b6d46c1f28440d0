import os
import random
import time
from fractions import Fraction

import pytest

from helpers import rand_matrix, sym_det
from orbitrank.catalog import abelian, axb, catalog_from_spec, direct_sum, e2, filiform, grelaud, heisenberg, oscillator
from orbitrank.coadjoint import (
    b_matrix_at,
    b_matrix_sym,
    estimate_open_orbit_components,
    has_open_orbits,
    orbit_data_at,
    p_polynomial,
)
from orbitrank.liealg import change_basis
from orbitrank.lieio import parse_lie_file
from orbitrank.linalg import Mat, det
from orbitrank.poly import MPoly, sym_pfaffian


def names(L):
    return [f"xi_{n}" for n in L.basis_names]


class TestBMatrix:
    def test_axb(self):
        b = b_matrix_sym(axb())
        assert b[0][1].render(names(axb())) == "xi_Y"
        assert b[1][0].render(names(axb())) == "-xi_Y"
        assert b[0][0].is_zero() and b[1][1].is_zero()

    def test_abelian_zero(self):
        b = b_matrix_sym(abelian(3))
        assert all(p.is_zero() for row in b for p in row)

    def test_heisenberg(self):
        h = heisenberg(1)
        b = b_matrix_sym(h)
        assert b[0][1].render(names(h)) == "xi_Z"
        assert b[0][2].is_zero() and b[1][2].is_zero()

    def test_skew_on_catalog_and_random_bases(self):
        rng = random.Random(13)
        algebras = [axb(), heisenberg(2), filiform(4), grelaud(1), oscillator()]
        for L in list(algebras):
            while True:
                m = Mat.from_rows(rand_matrix(rng, L.dim, L.dim))
                if det(m) != 0:
                    break
            algebras.append(change_basis(L, m))
        for L in algebras:
            b = b_matrix_sym(L)
            for j in range(L.dim):
                assert b[j][j].is_zero()
                for k in range(L.dim):
                    assert (b[j][k] + b[k][j]).is_zero()

    def test_pointwise_matches_symbolic(self):
        rng = random.Random(5)
        L = direct_sum(axb(), heisenberg(1))
        b = b_matrix_sym(L)
        for _ in range(10):
            xi = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(L.dim)]
            numeric = b_matrix_at(L, xi)
            for j in range(L.dim):
                for k in range(L.dim):
                    assert numeric.entry(j, k) == b[j][k].evaluate(xi)


class TestPPolynomial:
    def test_axb(self):
        assert p_polynomial(axb()).render(names(axb())) == "xi_Y^2"

    def test_heisenberg_odd_dim(self):
        assert p_polynomial(heisenberg(1)).is_zero()
        assert p_polynomial(heisenberg(2)).is_zero()

    def test_double_axb_block_product(self):
        ds = direct_sum(axb(), axb())
        expected = (MPoly.variable(1, 4) ** 2) * (MPoly.variable(3, 4) ** 2)
        assert p_polynomial(ds) == expected

    def test_oscillator_vanishes_despite_even_dim(self):
        assert p_polynomial(oscillator()).is_zero()
        assert not has_open_orbits(oscillator())

    def test_matches_cofactor_determinant(self):
        for L in (axb(), heisenberg(1), grelaud(1), filiform(4), oscillator(),
                  direct_sum(axb(), axb()), heisenberg(2), abelian(6)):
            assert p_polynomial(L) == sym_det(b_matrix_sym(L))

    def test_square_matches_fraction_product_on_dense_axb3(self):
        path = os.path.join(os.path.dirname(__file__), "golden", "dense_axb3.lie")
        with open(path, encoding="utf-8") as fh:
            L = parse_lie_file(fh.read())
        pf = sym_pfaffian(b_matrix_sym(L))
        assert p_polynomial(L) == pf * pf

    def test_pfaffian_of_dense_axb5_squares_to_det(self):
        # dense dim 10, where a first-row expansion without the memo forms
        # 945 products; M follows perfbench's draw_matrix rule: entries in
        # [-2, 2], redrawn until invertible
        rng = random.Random(1)
        while True:
            m = Mat.from_rows([[rng.randint(-2, 2) for _ in range(10)] for _ in range(10)])
            if det(m):
                break
        L = change_basis(catalog_from_spec("direct_sum:axb+axb+axb+axb+axb"), m)
        start = time.monotonic()
        pf = sym_pfaffian(b_matrix_sym(L))
        assert time.monotonic() - start < 10.0
        assert len(pf.terms) == 2002
        rng = random.Random(7)
        for _ in range(3):
            xi = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(10)]
            assert pf.evaluate(xi) ** 2 == det(b_matrix_at(L, xi))

    def test_open_orbits(self):
        assert has_open_orbits(axb())
        assert has_open_orbits(direct_sum(axb(), axb()))
        assert not has_open_orbits(heisenberg(3))
        assert not has_open_orbits(abelian(2))


class TestOrbitData:
    def test_axb_open_point(self):
        od = orbit_data_at(axb(), [0, 1])
        assert od.orbit_dim == 2 and od.open and od.isotropy.dim == 0

    def test_origin(self):
        for L in (axb(), heisenberg(1)):
            od = orbit_data_at(L, [0] * L.dim)
            assert od.orbit_dim == 0 and not od.open and od.isotropy.dim == L.dim

    def test_heisenberg_z_star(self):
        od = orbit_data_at(heisenberg(1), [0, 0, 1])
        assert od.orbit_dim == 2 and not od.open
        assert od.isotropy.dim == 1 and od.isotropy.contains([0, 0, 1])

    def test_orbit_dim_even_and_open_iff_p_nonzero(self):
        rng = random.Random(71)
        algebras = [axb(), heisenberg(2), grelaud(1), oscillator(), direct_sum(axb(), axb())]
        for L in algebras:
            poly = p_polynomial(L)
            for _ in range(200):
                xi = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(L.dim)]
                od = orbit_data_at(L, xi)
                assert od.orbit_dim % 2 == 0
                assert od.orbit_dim + od.isotropy.dim == L.dim
                assert od.open == (poly.evaluate(xi) != 0)


class TestComponentEstimate:
    def test_axb_two_half_lines(self):
        est = estimate_open_orbit_components(axb(), 200, seed=0)
        assert est.component_count == 2

    def test_no_open_orbits_gives_zero(self):
        est = estimate_open_orbit_components(heisenberg(1), 50, seed=0)
        assert est.component_count == 0 and est.certificates == ()

    def test_double_axb_four_orthants(self):
        est = estimate_open_orbit_components(direct_sum(axb(), axb()), 400, seed=0)
        assert est.component_count == 4

    def test_deterministic(self):
        a = estimate_open_orbit_components(axb(), 100, seed=9)
        b = estimate_open_orbit_components(axb(), 100, seed=9)
        assert a == b

    def test_certificates_are_valid(self):
        from orbitrank.sturm import sturm_root_count

        L = axb()
        poly = p_polynomial(L)
        est = estimate_open_orbit_components(L, 60, seed=2)
        assert est.certificates
        for p, q, flag in est.certificates:
            assert flag
            assert poly.evaluate(p) != 0 and poly.evaluate(q) != 0
            assert sturm_root_count(poly.restrict_to_segment(p, q), 0, 1) == 0
            # endpoints in the same sign class of xi_Y, which is the true component
            assert (p[1] > 0) == (q[1] > 0)

    def test_count_nonincreasing_at_scale(self):
        counts = [
            estimate_open_orbit_components(axb(), n, seed=0).component_count
            for n in (50, 100, 200, 400)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        counts4 = [
            estimate_open_orbit_components(direct_sum(axb(), axb()), n, seed=0).component_count
            for n in (200, 400, 600)
        ]
        assert all(a >= b for a, b in zip(counts4, counts4[1:]))

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("L", [axb(), heisenberg(1)], ids=["axb", "heisenberg"])
    def test_samples_below_one_rejected(self, L, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            estimate_open_orbit_components(L, samples)

    def test_e2_even_though_not_exponential(self):
        # purely coadjoint data is defined for any algebra
        assert not has_open_orbits(e2())
        assert estimate_open_orbit_components(e2(), 20, seed=0).component_count == 0
