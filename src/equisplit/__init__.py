"""Exact equivariant splitting of vector bundles on the projective line.

The package decides and certifies how a torus-equivariant bundle, given by a
Laurent-polynomial transition matrix with per-chart frame weights, decomposes
into equivariant line bundles.  All arithmetic is exact over the rationals;
the split comes with chart-local frame matrices whose product identity an
independent verifier checks by multiplication.

The package exports the names that README's Library section lists; the
internals stay importable from their modules.
"""

from .bundle import (
    EquivariantBundle,
    HomElement,
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
    Character,
    EulerReport,
    Section,
    cech_cohomology,
    euler_check,
    h0_character,
    h0_dim,
    h0_sections,
    h1_character,
    h1_dim,
)
from .laurent import LaurentPoly
from .linalg import LaurentMatrix
from .splitting import (
    CertReport,
    InvariantViolation,
    SplittingCertificate,
    equivariant_split,
    splitting_hom,
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
    "Section",
    "SplittingCertificate",
    "TorusAction",
    "ValidationReport",
    "Weight",
    "cech_cohomology",
    "degree",
    "direct_sum",
    "dual",
    "equivariant_split",
    "euler_check",
    "h0_character",
    "h0_dim",
    "h0_sections",
    "h1_character",
    "h1_dim",
    "hom_bundle",
    "line_bundle",
    "random_instance",
    "splitting_hom",
    "twist",
    "validate",
    "verify_certificate",
]
