"""Exact linear algebra over rationals: row reduction, ranks, kernels.

Matrices are dense, immutable, and carry ``Fraction`` entries. Subspaces are
canonicalized by reduced row echelon form, so two subspaces are equal exactly
when their ``Subspace`` values compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .poly import UPoly, _den, _frac


class Mat(NamedTuple):
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, tuple((Fraction(0),) * cols for _ in range(rows)))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)}, expected {self.cols}")
        vv = [_frac(x) for x in v]
        return tuple(sum((r[j] * vv[j] for j in range(self.cols)), Fraction(0)) for r in self.entries)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        return Mat(
            self.rows,
            other.cols,
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot.entries)
                for row in self.entries
            ),
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)


def rref_rank(m: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form and rank, exact throughout.

    Forward elimination clears below each pivot, then pivots are normalized
    to 1 and cleared above (Gauss-Jordan on Fraction entries).
    """
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for i in range(r + 1, nrows):
            if a[i][c]:
                f = a[i][c] / piv
                for j in range(c, ncols):
                    a[i][j] -= f * a[r][j]
        pivots.append((r, c))
        r += 1
    for r, c in reversed(pivots):
        piv = a[r][c]
        if piv != 1:
            for j in range(c, ncols):
                a[r][j] /= piv
        for i in range(r):
            if a[i][c]:
                f = a[i][c]
                for j in range(c, ncols):
                    a[i][j] -= f * a[r][j]
    return Mat.from_rows(a), len(pivots)


class Subspace(NamedTuple):
    """Subspace of Q^n given by an RREF basis matrix (rows span the space)."""

    ambient_dim: int
    basis: Mat

    @classmethod
    def from_spanning(cls, vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [v for v in vectors]
        if not vecs:
            return cls(ambient_dim, Mat(0, ambient_dim, ()))
        reduced, rank = rref_rank(Mat.from_rows(vecs))
        return cls(ambient_dim, Mat(rank, ambient_dim, reduced.entries[:rank]))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat(0, ambient_dim, ()))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: Sequence) -> bool:
        vec = [_frac(x) for x in v]
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row in self.basis.entries:
            c = next((j for j in range(len(row)) if row[j]), None)
            if c is not None and vec[c]:
                f = vec[c] / row[c]
                for j in range(self.ambient_dim):
                    vec[j] -= f * row[j]
        return all(not x for x in vec)


def kernel_basis(m: Mat) -> Subspace:
    """Exact basis of the null space {v : m v = 0}, canonicalized by RREF."""
    reduced, rank = rref_rank(m)
    pivot_cols = []
    for i in range(rank):
        row = reduced.entries[i]
        pivot_cols.append(next(j for j in range(m.cols) if row[j]))
    free_cols = [j for j in range(m.cols) if j not in pivot_cols]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -reduced.entries[i][f]
        vectors.append(v)
    return Subspace.from_spanning(vectors, m.cols)


def det(m: Mat) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.entries]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return Fraction(0)
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(m: Mat) -> Mat:
    """Exact inverse; raises ValueError on singular input."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = Mat.from_rows(
        [list(m.entries[i]) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )
    reduced, _ = rref_rank(aug)
    left = Mat.from_rows([row[:n] for row in reduced.entries])
    if left != Mat.identity(n):
        raise ValueError("matrix is singular")
    return Mat.from_rows([row[n:] for row in reduced.entries])


def charpoly(m: Mat) -> UPoly:
    """Monic characteristic polynomial det(tI - m) via Faddeev-LeVerrier.

    The recurrence runs on Python ints over one common denominator: with d
    the lcm of the entry denominators, A = d*m is an integer matrix, so A has
    integer coefficients c_k and every step's -tr/k divides exactly. The
    coefficient of t^(n-k) in the result is c_k / d**k, the same exact
    polynomial that the recurrence gives on ``Fraction`` entries.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return UPoly((1,))
    d = _den(x for row in m.entries for x in row)
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.entries]
    coeffs = [1]  # c_0 = 1 for t^n, then c_1 ... c_n
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        for i in range(n):
            mk[i][i] += coeffs[k - 1]
        cols = list(zip(*mk))
        mk = [[sum(map(mul, row, col)) for col in cols] for row in a]
        coeffs.append(-sum(mk[i][i] for i in range(n)) // k)
    return UPoly([Fraction(c, d**k) for k, c in reversed(list(enumerate(coeffs)))])
