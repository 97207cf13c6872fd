"""biwkit: exact construction and certification of Bannai-Ito type
polynomial families, their difference-reflection operator realizations,
and the associated algebra relations.

Everything that can be checked in exact Gaussian-rational arithmetic is;
the orthogonality measure and finite representation truncations are
certified numerically at a configurable working precision.
"""

from .errors import (
    BiwkitError,
    DegenerateParameters,
    InvalidParameters,
    NonzeroRemainder,
    OperatorNotPolynomialPreserving,
    PoleError,
    QuadratureNotConverged,
)
from .exact import ComplexRational, Polynomial, parse_complex_rational
from .polyfam import (
    DAHAParameterSet,
    ParameterSet,
    RealParameterQuad,
    StructureConstants,
    bi_coefficients,
    bi_eigenvalue,
    bi_polynomials,
    casimir_scalar,
    family_to_json,
    nonsym_wilson_family,
    param_map_bi_to_daha,
    param_map_daha_to_bi,
    q_modified_coefficients,
    q_polynomials,
    q_symmetry_check,
    structure_constants,
    wilson_eigenvalue,
)
from .operators import (
    VerificationReport,
    bi_realization,
    build_daha_generators,
    build_L,
    build_M,
    iso_forward,
    iso_inverse,
    verify_bi_algebra,
    verify_casimir,
    verify_daha_relations,
    verify_eigen_bi,
    verify_eigen_q,
    verify_nc_algebra,
    verify_nonsym_wilson_eigen,
    verify_prop1_coefficients,
    verify_prop1_operator_transform,
)
from .reptheory import (
    build_rep,
    positivity_scan,
    rep_tolerance,
    verify_rep_relations,
)
from .measure import h0, log_gamma, orthogonality_gram, weight_W

__version__ = "1.0.0"

__all__ = [
    "BiwkitError",
    "ComplexRational",
    "DAHAParameterSet",
    "DegenerateParameters",
    "InvalidParameters",
    "NonzeroRemainder",
    "OperatorNotPolynomialPreserving",
    "ParameterSet",
    "PoleError",
    "Polynomial",
    "QuadratureNotConverged",
    "RealParameterQuad",
    "StructureConstants",
    "VerificationReport",
    "bi_coefficients",
    "bi_eigenvalue",
    "bi_polynomials",
    "bi_realization",
    "build_L",
    "build_M",
    "build_daha_generators",
    "build_rep",
    "casimir_scalar",
    "family_to_json",
    "h0",
    "iso_forward",
    "iso_inverse",
    "log_gamma",
    "nonsym_wilson_family",
    "orthogonality_gram",
    "param_map_bi_to_daha",
    "param_map_daha_to_bi",
    "parse_complex_rational",
    "positivity_scan",
    "q_modified_coefficients",
    "q_polynomials",
    "q_symmetry_check",
    "rep_tolerance",
    "structure_constants",
    "verify_bi_algebra",
    "verify_casimir",
    "verify_daha_relations",
    "verify_eigen_bi",
    "verify_eigen_q",
    "verify_nc_algebra",
    "verify_nonsym_wilson_eigen",
    "verify_prop1_coefficients",
    "verify_prop1_operator_transform",
    "verify_rep_relations",
    "weight_W",
    "wilson_eigenvalue",
]
