"""orbitrank: exact rank invariants and coadjoint-orbit analysis for
solvable Lie algebras given by rational structure constants."""

from .catalog import CATALOG, catalog, catalog_from_spec, direct_sum
from .coadjoint import (
    ComponentEstimate,
    OrbitPointData,
    b_matrix_at,
    b_matrix_sym,
    estimate_open_orbit_components,
    has_open_orbits,
    orbit_data_at,
    p_polynomial,
)
from .inference import (
    INFINITE,
    AlgebraFlags,
    Contradiction,
    FactTable,
    FiltrationDoc,
    FiltrationNode,
    FiltrationParseError,
    InvalidFiltration,
    NodeAnnotation,
    derive_group_filtration,
    infer,
    parse_filtration,
    parse_filtration_json,
    replay_trace,
)
from .invariants import (
    GroupFlags,
    NotExponential,
    NotSimplyConnected,
    ProjectionVerdict,
    projection_verdict,
    real_rank,
    rr_upper_bound_nonsimply_connected,
    stable_rank,
)
from .liealg import (
    DuplicateBasisName,
    ExponentialityVerdict,
    IndexOutOfRange,
    JacobiViolation,
    LieAlgebra,
    NotSolvable,
    StructureReport,
    abelianization_dim,
    ad_matrix,
    annihilator_of_derived,
    bracket_vectors,
    change_basis,
    derived_series,
    exponentiality_check,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    structure_report,
    validate,
)
from .lieio import LieFile, LieParseError, parse_lie, parse_lie_file, render_lie, to_algebra
from .linalg import Mat, Subspace, charpoly, det, inverse, kernel_basis, rref_rank
from .poly import MPoly, UPoly, sym_pfaffian
from .sturm import count_real_roots, sturm_root_count

__version__ = "0.1.0"
