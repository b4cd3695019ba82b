"""Boundary norms and three-sphere interpolation checks."""

from .expansions import HARMONIC, HELMHOLTZ, SphericalExpansion
from .harmonic2d import (
    HarmonicExpansion2D,
    check_hadamard,
    sup_norm_circle,
    sup_norms_circle,
)
from .maxwell_norms import (
    check_maxwell_3sphere,
    hminushalf_div_norm,
    random_modal_field,
)
from .partial import (
    AlphaFit,
    PartialBoundary,
    empirical_alpha,
    partial_data_norm,
)

__all__ = [
    "HARMONIC", "HELMHOLTZ", "SphericalExpansion",
    "HarmonicExpansion2D", "check_hadamard", "sup_norm_circle", "sup_norms_circle",
    "check_maxwell_3sphere", "hminushalf_div_norm", "random_modal_field",
    "AlphaFit", "PartialBoundary", "empirical_alpha", "partial_data_norm",
]
