"""Special functions: scaled spherical Bessel machinery and vector spherical harmonics."""

from .scaled import ScaledArray
from .bessel import (
    hat_h1,
    hat_jy,
    log_dfact_minus,
    log_dfact_plus,
    sph_jy,
)
from .vsh import (
    VshTriple,
    gauss_legendre,
    sphere_rule,
    sph_harm_y,
    vsh,
    vsh_table,
)

__all__ = [
    "ScaledArray",
    "hat_h1",
    "hat_jy",
    "log_dfact_minus",
    "log_dfact_plus",
    "sph_jy",
    "VshTriple",
    "gauss_legendre",
    "sphere_rule",
    "sph_harm_y",
    "vsh",
    "vsh_table",
]
