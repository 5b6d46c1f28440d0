"""Coadjoint-orbit analysis: the skew form B_xi, open-orbit polynomial, and
a certified sampling estimator for the number of open-orbit components.

Everything is exact. A point xi in the dual space is a tuple of rationals in
the dual basis; the polynomial P(xi) = det(<xi, [X_j, X_k]>) detects open
orbits by nonvanishing, and its symbolic expansion (through the Pfaffian)
decides the existence question outright.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .liealg import LieAlgebra, cached
from .linalg import Mat, Subspace, kernel_basis, rref_rank
from .poly import MPoly, _frac
from .sturm import sturm_root_count

CoadjointPoint = tuple[Fraction, ...]


def as_point(coords: Sequence, dim: int) -> CoadjointPoint:
    pt = tuple(_frac(x) for x in coords)
    if len(pt) != dim:
        raise ValueError(f"point of length {len(pt)}, expected {dim}")
    return pt


def b_matrix_sym(L: LieAlgebra) -> list[list[MPoly]]:
    """Skew matrix with entry (j,k) the linear polynomial <xi, [X_j, X_k]>."""
    n = L.dim
    out = [[MPoly.zero(n) for _ in range(n)] for _ in range(n)]
    for (j, k), vec in L.constants.items():
        poly = MPoly(n, {tuple(1 if i == l else 0 for i in range(n)): c for l, c in enumerate(vec) if c})
        out[j][k] = poly
        out[k][j] = -poly
    return out


def b_matrix_at(L: LieAlgebra, xi: Sequence) -> Mat:
    """B_xi evaluated at a point of the dual space."""
    pt = as_point(xi, L.dim)
    n = L.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (j, k), vec in L.constants.items():
        v = sum((pt[l] * c for l, c in enumerate(vec) if c), Fraction(0))
        rows[j][k] = v
        rows[k][j] = -v
    return Mat.from_rows(rows)


@cached
def p_polynomial(L: LieAlgebra) -> MPoly:
    """det(B_xi) as a polynomial on the dual space, computed once per algebra.

    Computed for even dimension as Pf(xi)**2, the symbolic Pfaffian squared
    once on Python ints by ``MPoly.square``; identically zero for odd
    dimension (skew matrices of odd size are singular).
    """
    from .poly import sym_pfaffian

    if L.dim % 2 == 1:
        return MPoly.zero(L.dim)
    return sym_pfaffian(b_matrix_sym(L)).square()


def has_open_orbits(L: LieAlgebra) -> bool:
    """Symbolic test: some coadjoint orbit is open iff P is not the zero polynomial."""
    return not p_polynomial(L).is_zero()


class OrbitPointData(NamedTuple):
    orbit_dim: int
    isotropy: Subspace
    open: bool


def orbit_data_at(L: LieAlgebra, xi: Sequence) -> OrbitPointData:
    """Orbit dimension, isotropy subalgebra and openness at one point."""
    b = b_matrix_at(L, xi)
    _, rank = rref_rank(b)
    return OrbitPointData(
        orbit_dim=rank,
        isotropy=kernel_basis(b),
        open=rank == L.dim,
    )


class ComponentEstimate(NamedTuple):
    """Certified lower-structure estimate of open-orbit components.

    Every certificate edge joins two sample points at which P is nonzero,
    with an exact Sturm count of zero roots of P along the open segment
    between them, so the edge proves both endpoints lie in one path
    component of {P != 0}. The component count of the certificate graph can
    only overcount the components actually hit by the samples.
    """

    sample_count: int
    seed: int
    component_count: int
    certificates: tuple[tuple[CoadjointPoint, CoadjointPoint, bool], ...]


def _random_point(rng: random.Random, dim: int) -> CoadjointPoint:
    # box [-10, 10]^dim, denominators <= 64
    out = []
    for _ in range(dim):
        den = rng.randint(1, 64)
        num = rng.randint(-10 * den, 10 * den)
        out.append(Fraction(num, den))
    return tuple(out)


def estimate_open_orbit_components(
    L: LieAlgebra, samples: int, seed: int = 0
) -> ComponentEstimate:
    """Sample the dual space and join provably connected pairs.

    Points with P = 0 are rejected and do not count toward ``samples``.
    Pairs already known connected are skipped; the component count of the
    resulting graph is unchanged by that shortcut. Deterministic given
    (samples, seed).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    poly = p_polynomial(L)
    if poly.is_zero():
        return ComponentEstimate(samples, seed, 0, ())
    rng = random.Random(seed)
    points: list[CoadjointPoint] = []
    attempts = 0
    while len(points) < samples:
        attempts += 1
        if attempts > 1000 * samples + 1000:
            raise RuntimeError("rejection sampling failed to find nonvanishing points")
        pt = _random_point(rng, L.dim)
        if poly.evaluate(pt):
            points.append(pt)

    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Each new point is tested against the founder of every live cluster
    # (not all pairs): a successful test is still an exact certificate, a
    # cluster founder that later merges is dropped, and a point certifying
    # edges into two clusters merges them. The count stays an overestimate
    # of the components actually hit, just with far fewer segment tests.
    edges: list[tuple[CoadjointPoint, CoadjointPoint, bool]] = []
    founders: list[int] = []
    for j in range(len(points)):
        joined = False
        for r in founders:
            if find(r) == find(j):
                joined = True
                continue
            seg = poly.restrict_to_segment(points[r], points[j])
            if sturm_root_count(seg, 0, 1) == 0:
                parent[find(j)] = find(r)
                edges.append((points[r], points[j], True))
                joined = True
        if not joined:
            founders.append(j)
        else:
            seen: set[int] = set()
            kept = []
            for r in founders:
                root = find(r)
                if root not in seen:
                    seen.add(root)
                    kept.append(r)
            founders = kept
    count = len({find(i) for i in range(len(points))})
    return ComponentEstimate(samples, seed, count, tuple(edges))
