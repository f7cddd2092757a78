"""Numerical toolkit for conjugations, C-symmetric linear relations and the
complete parameterization of their C-self-adjoint extensions, with the
doubled-operator reduction to ordinary von Neumann theory, graph-level
defect decompositions, block power identities and polar-type factorizations."""

from types import ModuleType as _ModuleType

from .antilinear import (
    AntiLinearMap,
    Conjugation,
    PartialConjugation,
    conjugation_axiom_residuals,
    entrywise_conjugation,
    flip_conjugation,
    invariant_onb,
)
from .csym import (
    MSpaces,
    anti_involution,
    domain_criterion,
    is_c_selfadjoint,
    is_c_symmetric,
    m_spaces,
    weak_c_symmetry_residual,
)
from .doubling import (
    DoubledProblem,
    build_doubled,
    deficiency,
    doubled_conjugation,
    race_decomposition,
    vn_decomposition,
)
from .errors import InputError, PreconditionError, PropertyViolationError
from .extensions import (
    ExtensionParameter,
    ExtensionResult,
    brute_force_extensions,
    canonical_extension,
    extension_from_parameter,
    extension_graph,
    parameter_as_conjugation,
    parameter_as_unitary,
    recover_parameter,
)
from .fixtures import (
    build_example,
    fd_derivative_minimal,
    haar_unitary,
    minimal_identity,
    race_schrodinger,
    random_conjugation,
    random_csym,
    random_csym_matrix,
    random_restriction,
    random_symmetric,
    zero_on_subspace,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    complement,
    extend_basis,
    full_space,
    inner,
    intersect,
    is_subspace_of,
    max_angle_sin,
    orthogonal_difference,
    orthonormal_basis,
    subspace_equal,
    subspace_sum,
    zero_subspace,
)
from .polar import (
    CjtRefusal,
    PolarFactors,
    cjt_factorization,
    conjugation_covariance,
    matrix_c_selfadjoint_residual,
    polar,
    takagi,
)
from .powers import (
    DoubledMatrix,
    PowerReport,
    QaDiagnostics,
    doubled_matrix,
    doubled_power_blocks,
    power_norm_identities,
    power_report,
    qa_partial_sums,
)
from .problems import ProblemSpec, parse_spec, spec_from_dict
from .relations import LinearRelation, from_matrix, kernel_one_plus

__version__ = "0.1.0"

# the submodules that the imports above bind here are not API
__all__ = sorted(
    name for name, value in list(globals().items()) if not (name.startswith("_") or isinstance(value, _ModuleType))
)
