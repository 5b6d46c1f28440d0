import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exponentiality_check_reference, rand_fraction, rand_matrix
from orbitrank.catalog import (
    CATALOG,
    abelian,
    axb,
    catalog,
    catalog_from_spec,
    direct_sum,
    e2,
    filiform,
    grelaud,
    heisenberg,
    oscillator,
    sl2,
)
from orbitrank import liealg, poly
from orbitrank.coadjoint import p_polynomial
from orbitrank.liealg import (
    DIM_CAP,
    DuplicateBasisName,
    IndexOutOfRange,
    JacobiViolation,
    LieAlgebraError,
    NotSolvable,
    abelianization_dim,
    ad_matrix,
    annihilator_of_derived,
    bracket_vectors,
    center_dim,
    change_basis,
    derived_series,
    exponentiality_check,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    structure_report,
    validate,
)
from orbitrank.lieio import parse_lie
from orbitrank.linalg import Mat, charpoly, det
from orbitrank.poly import UPoly
from orbitrank.report import analyze_algebra


def rand_gl(rng, n):
    while True:
        rows = rand_matrix(rng, n, n)
        m = Mat.from_rows(rows)
        if det(m) != 0:
            return m


def jacobi_oracle(L):
    """Recompute every cyclic bracket sum from scratch."""
    unit = [[Fraction(1 if i == t else 0) for i in range(L.dim)] for t in range(L.dim)]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                s1 = bracket_vectors(L, bracket_vectors(L, unit[i], unit[j]), unit[k])
                s2 = bracket_vectors(L, bracket_vectors(L, unit[j], unit[k]), unit[i])
                s3 = bracket_vectors(L, bracket_vectors(L, unit[k], unit[i]), unit[j])
                if any(a + b + c for a, b, c in zip(s1, s2, s3)):
                    return (i, j, k)
    return None


class TestValidate:
    def test_catalog_entries_validate(self):
        for name in CATALOG:
            if name == "direct_sum":
                continue
            params = {"abelian": [3], "heisenberg": [2], "filiform": [4], "grelaud": [1]}.get(name, [])
            L = catalog(name, params)
            assert jacobi_oracle(L) is None

    def test_heisenberg_table(self):
        h = heisenberg(1)
        assert h.dim == 3
        assert len(h.constants) == 1

    def test_duplicate_name(self):
        with pytest.raises(DuplicateBasisName):
            validate(2, ("X", "X"), {})

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate(2, ("X", "Y"), {(0, 2): {0: 1}})
        with pytest.raises(IndexOutOfRange):
            validate(2, ("X", "Y"), {(1, 0): {0: 1}})
        with pytest.raises(IndexOutOfRange):
            validate(2, ("X", "Y"), {(0, 1): {5: 1}})

    def test_jacobi_violation_reported_with_triple(self):
        # adding [e2,e3] = e2 to filiform(4) breaks Jacobi on (e1,e2,e3)
        table = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {1: 1}}
        with pytest.raises(JacobiViolation) as exc:
            validate(4, ("e1", "e2", "e3", "e4"), table)
        assert exc.value.triple == (0, 1, 2)
        assert any(exc.value.residual)

    def test_jacobi_violation_sl2_corrupted(self):
        # [E,F] = H + E destroys the sl2 relations
        table = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1, 1: 1}}
        with pytest.raises(JacobiViolation):
            validate(3, ("H", "E", "F"), table)

    def test_validate_agrees_with_oracle_on_perturbations(self):
        # bump every structure constant of filiform(4) by 1 in turn; validate
        # must accept exactly the perturbations the independent oracle accepts
        base = filiform(4)
        for j in range(4):
            for k in range(j + 1, 4):
                for l in range(4):
                    table = {
                        pair: {i: c for i, c in enumerate(vec) if c}
                        for pair, vec in base.constants.items()
                    }
                    entry = table.setdefault((j, k), {})
                    entry[l] = entry.get(l, Fraction(0)) + 1
                    try:
                        perturbed = validate(4, base.basis_names, table)
                        assert jacobi_oracle(perturbed) is None
                    except JacobiViolation as exc:
                        probe = type(base)(4, base.basis_names, {
                            pair: tuple(Fraction(vec.get(i, 0)) for i in range(4))
                            for pair, vec in table.items()
                        })
                        assert jacobi_oracle(probe) == exc.triple


class TestStructure:
    def test_derived_series_dims(self):
        assert [s.dim for s in derived_series(heisenberg(1))] == [3, 1, 0]
        assert [s.dim for s in derived_series(axb())] == [2, 1, 0]
        assert [s.dim for s in derived_series(abelian(4))] == [4, 0]
        assert [s.dim for s in derived_series(sl2())] == [3, 3]

    def test_solvable_nilpotent(self):
        assert is_solvable(heisenberg(2)) and is_nilpotent(heisenberg(2))
        assert is_solvable(axb()) and not is_nilpotent(axb())
        assert not is_solvable(sl2())
        assert is_solvable(filiform(5)) and is_nilpotent(filiform(5))
        assert is_solvable(grelaud(Fraction(1, 2))) and not is_nilpotent(grelaud(Fraction(1, 2)))

    def test_nilpotent_implies_solvable(self):
        for L in (heisenberg(1), filiform(4), abelian(2), axb(), oscillator(), sl2()):
            if is_nilpotent(L):
                assert is_solvable(L)

    def test_series_dims_strictly_decrease_until_tail(self):
        for L in (heisenberg(2), filiform(5), abelian(3), axb(), oscillator(), sl2(), grelaud(1)):
            dims = [s.dim for s in derived_series(L)]
            body, tail = dims[:-1], dims[-1]
            assert all(a > b for a, b in zip(body, body[1:]))
            if is_solvable(L):
                assert tail == 0
            else:
                assert tail == body[-1]

    def test_abelianization(self):
        assert abelianization_dim(heisenberg(1)) == 2
        assert abelianization_dim(axb()) == 1
        assert abelianization_dim(abelian(5)) == 5
        assert abelianization_dim(grelaud(1)) == 1
        assert abelianization_dim(filiform(4)) == 2

    def test_abelianization_additive_on_sums(self):
        a, b = axb(), heisenberg(1)
        assert abelianization_dim(direct_sum(a, b)) == abelianization_dim(a) + abelianization_dim(b)

    def test_structure_report_consistency(self):
        st = structure_report(heisenberg(2))
        assert st.derived_series_dims == (5, 1, 0)
        assert st.solvable and st.nilpotent
        assert st.abelianization_dim == 5 - st.derived_series_dims[1]
        assert st.center_dim == 1

    def test_center(self):
        assert center_dim(heisenberg(1)) == 1
        assert center_dim(axb()) == 0
        assert center_dim(abelian(3)) == 3
        assert center_dim(oscillator()) == 1

    def test_annihilator(self):
        ann = annihilator_of_derived(axb())
        assert ann.dim == 1 and ann.contains([1, 0])
        assert annihilator_of_derived(abelian(3)).dim == 3
        h = annihilator_of_derived(heisenberg(1))
        assert h.dim == 2 and h.contains([1, 0, 0]) and h.contains([0, 1, 0])

    def test_annihilator_dim_equals_abelianization(self):
        for L in (axb(), heisenberg(2), filiform(4), grelaud(1), oscillator()):
            assert annihilator_of_derived(L).dim == abelianization_dim(L)


class TestAd:
    def test_axb(self):
        m = ad_matrix(axb(), [1, 0])
        assert m == Mat.from_rows([[0, 0], [0, 1]])

    def test_zero_vector(self):
        assert ad_matrix(heisenberg(1), [0, 0, 0]).is_zero()

    def test_heisenberg_p(self):
        m = ad_matrix(heisenberg(1), [1, 0, 0])
        # P sends Q to Z, everything else to 0
        assert m.mul_vec([0, 1, 0]) == (Fraction(0), Fraction(0), Fraction(1))
        assert m.mul_vec([1, 0, 0]) == (Fraction(0),) * 3
        assert m.mul_vec([0, 0, 1]) == (Fraction(0),) * 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ad_matrix(axb(), [1, 0, 0])


class TestChangeBasis:
    def test_preserves_structure(self):
        rng = random.Random(77)
        for L in (heisenberg(1), axb(), filiform(4)):
            m = rand_gl(rng, L.dim)
            moved = change_basis(L, m)  # validate() inside re-checks Jacobi
            assert moved.dim == L.dim
            assert is_nilpotent(moved) == is_nilpotent(L)
            assert abelianization_dim(moved) == abelianization_dim(L)


class TestExponentiality:
    def test_oscillator_certified_no_with_basis_witness(self):
        v = exponentiality_check(oscillator(), seed=0, trials=50)
        assert v.status == "certified_no"
        assert v.witness == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def test_e2_certified_no(self):
        v = exponentiality_check(e2(), seed=0, trials=50)
        assert v.status == "certified_no"
        assert v.witness == (Fraction(1), Fraction(0), Fraction(0))

    def test_witness_independent_of_seed(self):
        for seed in (0, 1, 17):
            assert exponentiality_check(oscillator(), seed=seed).witness is not None
            assert exponentiality_check(e2(), seed=seed).witness == (Fraction(1), Fraction(0), Fraction(0))

    def test_axb_heuristic_yes(self):
        assert exponentiality_check(axb(), seed=0, trials=50).status == "heuristic_yes"

    def test_deterministic(self):
        a = exponentiality_check(grelaud(1), seed=3, trials=20)
        b = exponentiality_check(grelaud(1), seed=3, trials=20)
        assert a == b

    def test_non_solvable_rejected(self):
        with pytest.raises(NotSolvable):
            exponentiality_check(sl2())

    @pytest.mark.parametrize(
        "spec", ["axb", "oscillator", "e2", "grelaud:1", "grelaud:1/2", "direct_sum:axb+heisenberg:1"]
    )
    def test_agrees_with_reference_on_non_nilpotent_algebras(self, spec):
        L = catalog_from_spec(spec)
        assert not is_nilpotent(L)
        for seed in (0, 5):
            assert exponentiality_check(L, seed=seed) == exponentiality_check_reference(L, seed=seed)

    def test_nilpotent_algebras_compute_no_charpoly(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m.rows)
            return charpoly(m)

        monkeypatch.setattr(liealg, "charpoly", counting)
        for L in (heisenberg(2), filiform(6), abelian(3)):
            assert exponentiality_check(L).status == "heuristic_yes"
        assert calls == []
        assert exponentiality_check(axb(), trials=50).status == "heuristic_yes"
        assert calls == [2] * (2 + 50)


_NILPOTENT_SPECS = [f"abelian:{n}" for n in (1, 2, 3)] + [f"heisenberg:{m}" for m in (1, 2, 3)] + [
    f"filiform:{n}" for n in range(4, 9)
]


def _integer_gl(rng, n):
    while True:
        m = Mat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_NILPOTENT_SPECS), st.integers(min_value=0, max_value=2**32))
def test_nilpotent_shortcut_is_exact_in_dense_bases(spec, seed):
    """On change_basis(L, M) of a nilpotent L, the screen's verdict equals the
    full candidate loop's, and ad(x) has characteristic polynomial t^n."""
    rng = random.Random(seed)
    base = catalog_from_spec(spec)
    L = change_basis(base, _integer_gl(rng, base.dim))
    assert is_nilpotent(L)
    assert exponentiality_check(L, seed=seed) == exponentiality_check_reference(L, seed=seed)
    x = [rand_fraction(rng) for _ in range(L.dim)]
    assert charpoly(ad_matrix(L, x)) == UPoly((0,) * L.dim + (1,))


class TestCatalogAndSums:
    def test_direct_sum_renames_collisions(self):
        ds = direct_sum(axb(), axb())
        assert ds.basis_names == ("X1", "Y1", "X2", "Y2")
        assert ds.dim == 4 and abelianization_dim(ds) == 2

    def test_direct_sum_keeps_distinct_names(self):
        ds = direct_sum(axb(), heisenberg(1))
        assert ds.basis_names == ("X", "Y", "P", "Q", "Z")

    def test_grelaud_structure(self):
        g = grelaud(1)
        assert g.dim == 3 and abelianization_dim(g) == 1

    def test_catalog_rejects_bad_params(self):
        with pytest.raises(ValueError):
            catalog("abelian", [0])
        with pytest.raises(ValueError):
            catalog("filiform", [2])
        with pytest.raises(ValueError):
            catalog("nosuch")
        with pytest.raises(ValueError):
            catalog("axb", [1])


class TestFactsComputedOnce:
    def test_analyze_computes_the_pfaffian_once(self, monkeypatch):
        real = poly.sym_pfaffian
        calls = []

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(poly, "sym_pfaffian", counting)
        analyze_algebra(direct_sum(axb(), axb()), samples=5)
        assert calls == [4]

    def test_constants_are_read_only(self):
        L = axb()
        with pytest.raises(TypeError):
            L.constants[(0, 1)] = (Fraction(0), Fraction(2))
        assert L.constants[(0, 1)] == (Fraction(0), Fraction(1))

    def test_series_are_tuples(self):
        L = heisenberg(1)
        assert isinstance(derived_series(L), tuple)
        assert isinstance(lower_central_series(L), tuple)
        assert derived_series(L) is derived_series(L)

    def test_pickle_round_trip_after_caching(self):
        L = heisenberg(1)
        derived_series(L)
        copy = pickle.loads(pickle.dumps(L))
        assert copy == L and copy.constants == L.constants
        assert derived_series(copy) == derived_series(L)

    def test_cached_facts_do_not_affect_equality(self):
        cached, fresh = direct_sum(axb(), axb()), direct_sum(axb(), axb())
        derived_series(cached)
        lower_central_series(cached)
        p_polynomial(cached)
        assert cached == fresh and fresh == cached
        assert repr(cached) == repr(fresh)

    def test_dimension_cap(self):
        with pytest.raises(LieAlgebraError, match="cap"):
            validate(DIM_CAP + 1, (), {})
        names = " ".join(f"e{i}" for i in range(DIM_CAP))
        assert parse_lie(f"lie 1\ndim {DIM_CAP}\nbasis {names}\n").dim == DIM_CAP
        for family, param in (("abelian", 65), ("heisenberg", 32), ("filiform", 65)):
            with pytest.raises(ValueError, match="cap"):
                catalog(family, [param])
