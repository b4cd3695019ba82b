"""Sign-changing layered media, diffeomorphisms, and tensor push-forwards."""

from .maps import SmoothMap, check_inverse, compose, identity_map, kelvin_map, linear_map, power_map
from .pushforward import push_forward_tensor, spherical_diag
from .radial import (
    Layer,
    LayerCoeff,
    RadialMedium,
    dcm_maps,
    dcm_verify,
    make_cm_cloak,
    make_dcm_example,
    make_superlens,
    vacuum_medium,
)

__all__ = [
    "SmoothMap", "check_inverse", "compose", "identity_map", "kelvin_map",
    "linear_map", "power_map",
    "push_forward_tensor", "spherical_diag",
    "Layer", "LayerCoeff", "RadialMedium", "dcm_maps", "dcm_verify",
    "make_cm_cloak", "make_dcm_example", "make_superlens", "vacuum_medium",
]
