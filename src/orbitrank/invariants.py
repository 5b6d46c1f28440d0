"""Closed-form rank invariants and the projection-ideal verdict.

The closed forms hold for simply connected exponential solvable groups; the
operations here enforce those hypotheses and refuse anything else with a
typed error, so callers can report the refusal rather than a wrong number.
"""

from __future__ import annotations

from typing import NamedTuple

from .coadjoint import ComponentEstimate, estimate_open_orbit_components, has_open_orbits
from .liealg import (
    ExponentialityVerdict,
    LieAlgebra,
    NotSolvable,
    abelianization_dim,
    is_nilpotent,
    is_solvable,
)


class NotExponential(Exception):
    """The spectral screen certified a nonzero purely imaginary ad-eigenvalue."""

    def __init__(self, witness):
        super().__init__(f"not an exponential algebra; witness {witness}")
        self.witness = witness


class NotSimplyConnected(Exception):
    """Exact formulas need the simply connected group; use the upper bound."""


class GroupFlags(NamedTuple):
    exponentiality: ExponentialityVerdict
    simply_connected: bool = True


def _require(L: LieAlgebra, flags: GroupFlags, simply_connected: bool = True) -> None:
    if L.dim == 0:
        # tsr(C) = 1 breaks the G = R dichotomy; the trivial group is out of scope
        raise ValueError("zero-dimensional algebra: invariants need dim >= 1")
    if not is_solvable(L):
        raise NotSolvable("rank formulas require a solvable (indeed exponential) algebra")
    if flags.exponentiality.status == "certified_no":
        raise NotExponential(flags.exponentiality.witness)
    if simply_connected and not flags.simply_connected:
        raise NotSimplyConnected(
            "exact values need the simply connected group; "
            "rr_upper_bound_nonsimply_connected gives the one-sided bound"
        )


def real_rank(L: LieAlgebra, flags: GroupFlags) -> int:
    """Real rank of the group C*-algebra: the abelianization dimension."""
    _require(L, flags)
    return abelianization_dim(L)


def stable_rank(L: LieAlgebra, flags: GroupFlags) -> int:
    """Stable rank: 1 for the real line, else 1 + max(floor(r/2), 1)."""
    _require(L, flags)
    if L.dim == 1:
        return 1
    r = abelianization_dim(L)
    return 1 + max(r // 2, 1)


def rr_upper_bound_nonsimply_connected(L: LieAlgebra, flags: GroupFlags) -> int:
    """Upper bound for the real rank when only the universal cover is exponential.

    The bound can be strict (the circle group has real rank 0 against a
    bound of 1), so reports must mark it as possibly strict.
    """
    _require(L, flags, simply_connected=False)
    return abelianization_dim(L)


class ProjectionVerdict(NamedTuple):
    verdict: str  # none_nilpotent | exists_open_orbits | unknown
    gr_equals_J0: bool
    J0_proper: bool
    open_orbit_count_estimate: int | None = None


def projection_verdict(
    L: LieAlgebra,
    flags: GroupFlags,
    samples: int = 200,
    seed: int = 0,
    component_estimate: ComponentEstimate | None = None,
) -> ProjectionVerdict:
    """Locate the projections of the group C*-algebra.

    Nilpotent algebras have none; open coadjoint orbits produce an ideal
    that is a finite direct sum of copies of the compacts (one per open
    orbit, estimated here by the component estimator); otherwise existence
    is left undetermined. In all accepted cases every projection lives in
    the common kernel of the characters, which is a proper ideal.
    """
    _require(L, flags)
    gr_equals_J0 = True
    j0_proper = L.dim > 0
    if is_nilpotent(L):
        return ProjectionVerdict("none_nilpotent", gr_equals_J0, j0_proper)
    if has_open_orbits(L):
        est = component_estimate
        if est is None:
            est = estimate_open_orbit_components(L, samples, seed)
        return ProjectionVerdict(
            "exists_open_orbits", gr_equals_J0, j0_proper, est.component_count
        )
    return ProjectionVerdict("unknown", gr_equals_J0, j0_proper)
