"""Birkhoff-James orthogonality, level vectors and isometry certification.

Exact rational decision procedures on finite-dimensional real normed spaces
whose unit balls are polytopes (including l1 and l-infinity), with a
float path for the remaining lp norms, plus brute-force oracles used to
cross-validate every dual-certificate algorithm.
"""

from .errors import DimensionMismatch, InputError, InternalCheckError
from .faces import (
    Face,
    FaceCensus,
    antipodal_representatives,
    extreme_points,
    face_census,
    face_lattice,
    is_relative_interior,
    minimal_face,
)
from .isometry import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    IsometryReport,
    ScalarIdentityReport,
    TransferRecord,
    adjoint_level_transfer,
    certify_scalar_isometry_polyhedral,
    probe_scalar_isometry_grid,
    scalar_identity_test,
)
from .levels import (
    DirectionalPreservation,
    FaceProbe,
    LevelCertificate,
    LevelNumberReport,
    PreservationReport,
    enumerate_level_numbers,
    is_level_vector,
    kernel_condition,
    kernel_section_space,
    level_count_bound,
    level_number,
    preserves_bj_at,
    preserves_bj_directional,
    search_non_level_vector,
)
from .oracle import (
    RationalStream,
    SampleCheckReport,
    minimize_norm_1d,
    preservation_sample_check,
    sample_sphere,
)
from .orthogonality import (
    OrthogonalityVerdict,
    bj_orthogonal,
    bj_orthogonal_oracle,
    subspace_orthogonal,
)
from .spaces import (
    Operator,
    SpaceSpec,
    adjoint,
    arithmetic_mode,
    ball_vertices,
    diagonal_operator,
    dual_ball_vertices,
    dual_norm,
    dual_space,
    identity_operator,
    is_exact,
    l1,
    l2,
    linf,
    lp_space,
    norm,
    norm_squared,
    operator,
    operator_from_dict,
    operator_to_dict,
    parse_rational,
    parse_vector,
    polar_vertices,
    polyhedral_space,
    space_from_dict,
    space_to_dict,
    zero_operator,
)
from .support import SupportSet, eval_range, is_smooth, support_range, support_set

__version__ = "0.1.0"
