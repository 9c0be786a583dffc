"""Exact equivariant splitting of vector bundles on the projective line.

The package decides and certifies how a torus-equivariant bundle, given by a
Laurent-polynomial transition matrix with per-chart frame weights, decomposes
into equivariant line bundles.  All arithmetic is exact over the rationals;
the split comes with chart-local frame matrices whose product identity an
independent verifier checks by multiplication.
"""

from .bundle import (
    EquivariantBundle,
    LineSummand,
    TorusAction,
    NO_TORUS,
    ValidationReport,
    Weight,
    degree,
    direct_sum,
    dual,
    hom_bundle,
    line_bundle,
    random_instance,
    twist,
    validate,
)
from .cohomology import (
    EulerReport,
    Section,
    StabilizationError,
    cech_cohomology,
    euler_check,
    h0_character,
    h0_dim,
    h0_sections,
    h1_character,
    h1_dim,
)
from .equivariant import (
    Character,
    HomElement,
    check_equivariance,
    hom_compose,
    hom_element_from_section,
    hom_identity,
    monomial_weight,
    section_from_hom_element,
    standard_linearization,
    weight_project_hom,
)
from .laurent import LaurentPoly, Rational, poly_ext_gcd, poly_gcd
from .linalg import LaurentMatrix, mat_adjugate, mat_det
from .splitting import (
    CertReport,
    InvariantViolation,
    PeelStep,
    SplittingCertificate,
    eigen_section,
    equivariant_split,
    max_twist,
    peel,
    splitting_hom,
    triangular_clear,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "CertReport",
    "EquivariantBundle",
    "EulerReport",
    "HomElement",
    "InvariantViolation",
    "LaurentMatrix",
    "LaurentPoly",
    "LineSummand",
    "NO_TORUS",
    "PeelStep",
    "Rational",
    "Section",
    "SplittingCertificate",
    "StabilizationError",
    "TorusAction",
    "ValidationReport",
    "Weight",
    "cech_cohomology",
    "check_equivariance",
    "degree",
    "direct_sum",
    "dual",
    "eigen_section",
    "equivariant_split",
    "euler_check",
    "h0_character",
    "h0_dim",
    "h0_sections",
    "h1_character",
    "h1_dim",
    "hom_bundle",
    "hom_compose",
    "hom_element_from_section",
    "hom_identity",
    "line_bundle",
    "mat_adjugate",
    "mat_det",
    "max_twist",
    "monomial_weight",
    "peel",
    "poly_ext_gcd",
    "poly_gcd",
    "random_instance",
    "section_from_hom_element",
    "splitting_hom",
    "standard_linearization",
    "triangular_clear",
    "twist",
    "validate",
    "verify_certificate",
    "weight_project_hom",
]
