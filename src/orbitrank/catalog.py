"""Named example algebras and direct sums, used as fixtures everywhere."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .liealg import DIM_CAP, LieAlgebra, validate
from .poly import _frac


def _check_dim(family: str, dim: int) -> None:
    if dim > DIM_CAP:
        raise ValueError(f"{family} would have dimension {dim}, above the cap of {DIM_CAP}")


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("abelian(n) needs n >= 1")
    _check_dim("abelian", n)
    return validate(n, tuple(f"A{i + 1}" for i in range(n)), {})


def axb() -> LieAlgebra:
    return validate(2, ("X", "Y"), {(0, 1): {1: 1}})


def heisenberg(m: int) -> LieAlgebra:
    if m < 1:
        raise ValueError("heisenberg(m) needs m >= 1")
    _check_dim("heisenberg", 2 * m + 1)
    if m == 1:
        names: tuple[str, ...] = ("P", "Q", "Z")
    else:
        names = tuple(
            [f"P{i + 1}" for i in range(m)] + [f"Q{i + 1}" for i in range(m)] + ["Z"]
        )
    dim = 2 * m + 1
    table = {(i, m + i): {dim - 1: 1} for i in range(m)}
    return validate(dim, names, table)


def filiform(n: int) -> LieAlgebra:
    if n < 3:
        raise ValueError("filiform(n) needs n >= 3")
    _check_dim("filiform", n)
    names = tuple(f"e{i + 1}" for i in range(n))
    table = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return validate(n, names, table)


def grelaud(theta) -> LieAlgebra:
    t = _frac(theta)
    return validate(
        3,
        ("A", "X", "Y"),
        {(0, 1): {1: 1, 2: -t}, (0, 2): {1: t, 2: 1}},
    )


def oscillator() -> LieAlgebra:
    return validate(
        4,
        ("H", "P", "Q", "E"),
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {3: 1}},
    )


def e2() -> LieAlgebra:
    return validate(3, ("H", "P", "Q"), {(0, 1): {2: 1}, (0, 2): {1: -1}})


def sl2() -> LieAlgebra:
    return validate(
        3,
        ("H", "E", "F"),
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    )


def direct_sum(left: LieAlgebra, right: LieAlgebra) -> LieAlgebra:
    """Concatenate bases with no cross brackets.

    Colliding basis names get suffixes 1 (left) and 2 (right), so e.g. the
    sum of two copies of the ax+b algebra has basis X1, Y1, X2, Y2.
    """
    if set(left.basis_names) & set(right.basis_names):
        lnames = tuple(f"{n}1" for n in left.basis_names)
        rnames = tuple(f"{n}2" for n in right.basis_names)
    else:
        lnames, rnames = left.basis_names, right.basis_names
    dim = left.dim + right.dim
    off = left.dim
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (j, k), vec in left.constants.items():
        table[(j, k)] = {l: c for l, c in enumerate(vec) if c}
    for (j, k), vec in right.constants.items():
        table[(j + off, k + off)] = {l + off: c for l, c in enumerate(vec) if c}
    return validate(dim, lnames + rnames, table)


# name -> (builder, parameter description, example)
CATALOG = {
    "abelian": (abelian, "n >= 1 (dimension)", "catalog:abelian:3"),
    "axb": (axb, "no parameters", "catalog:axb"),
    "heisenberg": (heisenberg, "m >= 1 (dim 2m+1)", "catalog:heisenberg:1"),
    "filiform": (filiform, "n >= 3 (dimension)", "catalog:filiform:4"),
    "grelaud": (grelaud, "theta rational, e.g. 1 or 1/2", "catalog:grelaud:1"),
    "oscillator": (oscillator, "no parameters", "catalog:oscillator"),
    "e2": (e2, "no parameters", "catalog:e2"),
    "sl2": (sl2, "no parameters", "catalog:sl2"),
    "direct_sum": (None, "summands joined by +", "catalog:direct_sum:axb+axb"),
}


def catalog(name: str, params: Sequence = ()) -> LieAlgebra:
    """Build a catalog algebra from its name and raw parameters."""
    if name == "direct_sum":
        if len(params) < 2:
            raise ValueError("direct_sum needs at least two summands")
        total = params[0] if isinstance(params[0], LieAlgebra) else _from_spec(params[0])
        for p in params[1:]:
            nxt = p if isinstance(p, LieAlgebra) else _from_spec(p)
            total = direct_sum(total, nxt)
        return total
    if name not in CATALOG:
        raise ValueError(f"unknown catalog name {name!r}")
    builder = CATALOG[name][0]
    if name in ("abelian", "heisenberg", "filiform"):
        if len(params) != 1:
            raise ValueError(f"{name} takes exactly one integer parameter")
        return builder(int(params[0]))
    if name == "grelaud":
        if len(params) != 1:
            raise ValueError("grelaud takes exactly one rational parameter")
        try:
            theta = Fraction(str(params[0]))
        except ZeroDivisionError:
            raise ValueError(f"grelaud parameter {params[0]!r} has a zero denominator") from None
        return builder(theta)
    if params:
        raise ValueError(f"{name} takes no parameters")
    return builder()


def _from_spec(spec: str) -> LieAlgebra:
    name, _, rest = spec.partition(":")
    params = rest.split(":") if rest else []
    return catalog(name, params)


def catalog_from_spec(spec: str) -> LieAlgebra:
    """Parse specs like ``heisenberg:1`` or ``direct_sum:axb+heisenberg:1``."""
    name, _, rest = spec.partition(":")
    if name == "direct_sum":
        parts = [p for p in rest.split("+") if p]
        if len(parts) < 2:
            raise ValueError("direct_sum needs at least two summands, joined by +")
        return catalog("direct_sum", parts)
    return catalog(name, rest.split(":") if rest else [])
