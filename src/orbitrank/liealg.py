"""Lie algebra data model: validation, structure theory, exponentiality screen.

An algebra is given by exact rational structure constants on a fixed basis.
Antisymmetry is structural (only pairs j < k are stored); the Jacobi identity
is checked on construction, so a ``LieAlgebra`` value is always consistent.
Facts derived from a value (its series, its open-orbit polynomial) are
computed on first use and kept on the value, which never changes.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .linalg import Mat, Subspace, charpoly, inverse, kernel_basis
from .poly import UPoly, _frac
from .sturm import count_real_roots, poly_gcd


class LieAlgebraError(Exception):
    """Base class for structural errors in Lie algebra input."""


class DuplicateBasisName(LieAlgebraError):
    def __init__(self, name: str):
        super().__init__(f"duplicate basis name {name!r}")
        self.name = name


class IndexOutOfRange(LieAlgebraError):
    def __init__(self, detail: str):
        super().__init__(detail)


class JacobiViolation(LieAlgebraError):
    """The cyclic bracket sum on a basis triple is nonzero."""

    def __init__(self, i: int, j: int, k: int, residual: tuple[Fraction, ...]):
        super().__init__(
            f"Jacobi identity fails on basis triple ({i},{j},{k}): residual {residual}"
        )
        self.triple = (i, j, k)
        self.residual = residual


class NotSolvable(LieAlgebraError):
    """Raised by operations whose hypotheses require a solvable algebra."""


Vector = tuple[Fraction, ...]
BracketTable = Mapping[tuple[int, int], Vector]

DIM_CAP = 64  # largest dimension of an algebra or an annotated filtration node


class LieAlgebra:
    """Validated Lie algebra; build values through :func:`validate`.

    The memo of :func:`cached` facts takes no part in equality or repr.
    """

    __slots__ = ("dim", "basis_names", "constants", "_memo")

    def __init__(self, dim: int, basis_names: tuple[str, ...], constants: BracketTable):
        # constants is read-only, with only keys (j, k), j < k, and only nonzero vectors
        self.dim, self.basis_names, self.constants, self._memo = dim, basis_names, constants, {}

    def _key(self):
        return (self.dim, self.basis_names, self.constants)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is LieAlgebra else NotImplemented

    def __repr__(self) -> str:
        return f"LieAlgebra{self._key()!r}"

    def bracket_basis(self, j: int, k: int) -> Vector:
        """Coordinates of [X_j, X_k]."""
        zero = (Fraction(0),) * self.dim
        if j == k:
            return zero
        if j < k:
            return self.constants.get((j, k), zero)
        v = self.constants.get((k, j))
        return tuple(-x for x in v) if v else zero

    def __reduce__(self):
        # rebuild through validate: the read-only constants cannot be pickled as they are
        return (validate, (self.dim, self.basis_names, dict(self.constants)))


def cached(fn):
    """Keep ``fn(L)`` on the algebra value after the first call.

    Values never change, so a kept fact never goes stale. Two threads may
    compute the same fact at once; both store the same result.
    """

    @functools.wraps(fn)
    def wrapper(L: LieAlgebra):
        try:
            return L._memo[fn]
        except KeyError:
            value = L._memo[fn] = fn(L)
            return value

    return wrapper


def _coerce_vector(value, dim: int) -> Vector:
    if isinstance(value, Mapping):
        out = [Fraction(0)] * dim
        for l, c in value.items():
            if not 0 <= int(l) < dim:
                raise IndexOutOfRange(f"component index {l} out of range for dim {dim}")
            out[int(l)] = _frac(c)
        return tuple(out)
    vec = tuple(_frac(x) for x in value)
    if len(vec) != dim:
        raise IndexOutOfRange(f"bracket vector of length {len(vec)}, expected {dim}")
    return vec


def bracket_vectors(L: LieAlgebra, u: Sequence, v: Sequence) -> Vector:
    """Bilinear extension of the basis brackets to arbitrary coordinates."""
    uu = [_frac(x) for x in u]
    vv = [_frac(x) for x in v]
    if len(uu) != L.dim or len(vv) != L.dim:
        raise ValueError("coordinate vectors must have length dim")
    out = [Fraction(0)] * L.dim
    for (j, k), c in L.constants.items():
        f = uu[j] * vv[k] - uu[k] * vv[j]
        if f:
            for l in range(L.dim):
                if c[l]:
                    out[l] += f * c[l]
    return tuple(out)


def validate(dim: int, basis_names: Sequence[str], brackets: Mapping) -> LieAlgebra:
    """Check names, index ranges and the Jacobi identity; return the algebra.

    ``brackets`` maps pairs (j, k) with j < k to the coordinates of
    [X_j, X_k], either as a length-``dim`` sequence or as a sparse
    {component index: coefficient} mapping. Omitted pairs bracket to zero.
    Dimensions above ``DIM_CAP`` are rejected before anything is built.
    """
    if dim > DIM_CAP:
        raise LieAlgebraError(f"dimension {dim} exceeds the cap of {DIM_CAP}")
    names = tuple(basis_names)
    if len(names) != dim:
        raise IndexOutOfRange(f"{len(names)} basis names for dim {dim}")
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateBasisName(name)
        seen.add(name)
    table: dict[tuple[int, int], Vector] = {}
    for key, value in brackets.items():
        j, k = int(key[0]), int(key[1])
        if not (0 <= j < dim and 0 <= k < dim):
            raise IndexOutOfRange(f"bracket pair ({j},{k}) out of range for dim {dim}")
        if j >= k:
            raise IndexOutOfRange(f"bracket pair ({j},{k}) must have j < k")
        vec = _coerce_vector(value, dim)
        if any(vec):
            table[(j, k)] = vec
    L = LieAlgebra(dim, names, MappingProxyType(table))
    unit = [tuple(Fraction(1 if i == t else 0) for i in range(dim)) for t in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                s1 = bracket_vectors(L, L.bracket_basis(i, j), unit[k])
                s2 = bracket_vectors(L, L.bracket_basis(j, k), unit[i])
                s3 = bracket_vectors(L, L.bracket_basis(k, i), unit[j])
                residual = tuple(a + b + c for a, b, c in zip(s1, s2, s3))
                if any(residual):
                    raise JacobiViolation(i, j, k, residual)
    return L


def span_brackets(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all brackets [u, v] with u in a, v in b."""
    vectors = [
        bracket_vectors(L, u, v) for u in a.basis.entries for v in b.basis.entries
    ]
    return Subspace.from_spanning(vectors, L.dim)


def _series(L: LieAlgebra, step) -> tuple[Subspace, ...]:
    current = Subspace.full(L.dim)
    out = [current]
    while True:
        nxt = step(current)
        if nxt.dim == current.dim:
            if current.dim != 0:
                out.append(nxt)
            return tuple(out)
        out.append(nxt)
        current = nxt


@cached
def derived_series(L: LieAlgebra) -> tuple[Subspace, ...]:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    return _series(L, lambda s: span_brackets(L, s, s))


@cached
def lower_central_series(L: LieAlgebra) -> tuple[Subspace, ...]:
    full = Subspace.full(L.dim)
    return _series(L, lambda s: span_brackets(L, full, s))


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L)[-1].dim == 0


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L)[-1].dim == 0


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    series = derived_series(L)
    return series[1] if len(series) > 1 else series[0]  # dim 0 has a one-term series


def abelianization_dim(L: LieAlgebra) -> int:
    """Codimension of the derived subalgebra."""
    return L.dim - derived_subalgebra(L).dim


def center_dim(L: LieAlgebra) -> int:
    if L.dim == 0:
        return 0
    rows = []
    for k in range(L.dim):
        for l in range(L.dim):
            rows.append([L.bracket_basis(j, k)[l] for j in range(L.dim)])
    return kernel_basis(Mat.from_rows(rows)).dim


class StructureReport(NamedTuple):
    derived_series_dims: tuple[int, ...]
    solvable: bool
    nilpotent: bool
    abelianization_dim: int
    center_dim: int


def structure_report(L: LieAlgebra) -> StructureReport:
    series = derived_series(L)
    dims = tuple(s.dim for s in series)
    return StructureReport(
        derived_series_dims=dims,
        solvable=dims[-1] == 0,
        nilpotent=is_nilpotent(L),
        abelianization_dim=abelianization_dim(L),
        center_dim=center_dim(L),
    )


def annihilator_of_derived(L: LieAlgebra) -> Subspace:
    """Functionals vanishing on [g, g], in dual-basis coordinates."""
    derived = derived_subalgebra(L)
    if derived.dim == 0:
        return Subspace.full(L.dim)
    return kernel_basis(derived.basis)


def ad_matrix(L: LieAlgebra, x: Sequence) -> Mat:
    """Matrix of Y -> [x, Y] in the given basis."""
    xx = [_frac(v) for v in x]
    if len(xx) != L.dim:
        raise ValueError(f"coordinate vector of length {len(xx)}, expected {L.dim}")
    unit = [tuple(Fraction(1 if i == t else 0) for i in range(L.dim)) for t in range(L.dim)]
    cols = [bracket_vectors(L, xx, e) for e in unit]
    return Mat.from_rows([[cols[k][l] for k in range(L.dim)] for l in range(L.dim)])


def change_basis(L: LieAlgebra, m: Mat, names: Sequence[str] | None = None) -> LieAlgebra:
    """Structure constants in the new basis whose rows (in m) are old coordinates."""
    if m.rows != L.dim or m.cols != L.dim:
        raise ValueError("basis matrix must be dim x dim")
    minv = inverse(m)
    new_names = tuple(names) if names is not None else L.basis_names
    table = {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            u = bracket_vectors(L, m.row(a), m.row(b))
            w = tuple(
                sum((minv.entries[j][c] * u[j] for j in range(L.dim)), Fraction(0))
                for c in range(L.dim)
            )
            if any(w):
                table[(a, b)] = w
    return validate(L.dim, new_names, table)


class ExponentialityVerdict(NamedTuple):
    """Outcome of the spectral screen.

    ``certified_no`` comes with a witness element whose adjoint map provably
    has a nonzero purely imaginary eigenvalue; ``heuristic_yes`` records that
    no witness was found among the tested elements; ``asserted`` is a user
    override that skips the screen. On a nilpotent algebra ``heuristic_yes``
    is decided by Engel's theorem (every ad(X) is nilpotent, so no candidate
    can be a witness) and no trials run.
    """

    status: str  # certified_no | heuristic_yes | asserted
    witness: Vector | None = None


def _has_nonzero_imaginary_eigenvalue(p: UPoly) -> bool:
    """Does p (real coefficients) have a root i*mu with mu real nonzero?

    Substituting i*mu splits p into real and imaginary parts R, I as real
    polynomials in mu; common roots are the roots of gcd(R, I).
    """
    real = [Fraction(0)] * len(p.coeffs)
    imag = [Fraction(0)] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        if k % 4 == 0:
            real[k] = c
        elif k % 4 == 1:
            imag[k] = c
        elif k % 4 == 2:
            real[k] = -c
        else:
            imag[k] = -c
    rp, ip = UPoly(real), UPoly(imag)
    if rp.is_zero():
        g = ip
    elif ip.is_zero():
        g = rp
    else:
        g = poly_gcd(rp, ip)
    if g.is_zero():
        return False
    coeffs = list(g.coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)  # discard the root at mu = 0
    g = UPoly(coeffs)
    if g.degree() <= 0:
        return False
    return count_real_roots(g) > 0


def exponentiality_check(L: LieAlgebra, seed: int = 0, trials: int = 50) -> ExponentialityVerdict:
    """Screen the algebra with the classical spectral criterion.

    Tests every basis vector and ``trials`` seeded random rational
    combinations X. A nonzero purely imaginary eigenvalue of ad(X) certifies
    that the group is not exponential; exhausting all candidates without a
    hit yields only a heuristic acceptance. Deterministic in (seed, trials).

    A nilpotent algebra gets ``heuristic_yes`` from Engel's theorem without
    running any trial: every ad(X) is nilpotent, so its characteristic
    polynomial is t^n and no candidate can be a witness. The test reads the
    lower central series kept on the algebra.
    """
    if not is_solvable(L):
        raise NotSolvable("exponentiality screen requires a solvable algebra")
    if is_nilpotent(L):
        return ExponentialityVerdict(status="heuristic_yes")
    candidates: list[Vector] = [
        tuple(Fraction(1 if i == t else 0) for i in range(L.dim)) for t in range(L.dim)
    ]
    rng = random.Random(seed)
    for _ in range(trials):
        candidates.append(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(L.dim))
        )
    for x in candidates:
        if not any(x):
            continue
        if _has_nonzero_imaginary_eigenvalue(charpoly(ad_matrix(L, x))):
            return ExponentialityVerdict(status="certified_no", witness=x)
    return ExponentialityVerdict(status="heuristic_yes")
