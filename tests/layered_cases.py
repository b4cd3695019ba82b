"""A layered medium shared by the solver, field and norm tests."""
import functools
import math

from calrlab.layered_maxwell import SurfaceCurrentSource, mode, solve
from calrlab.media import Layer, LayerCoeff, RadialMedium


def eps_ne_mu_medium() -> RadialMedium:
    """A medium whose eps and mu differ in every material layer.

    The lossless core (0, 1) has eps = (rad 2, tan 3) and mu = (rad 1.5,
    tan 0.7), so TE and TM have different fractional orders (at n = 1,
    0.588 and 1.303); the isotropic layer (1, 2) has eps = 2 + 0.1i and
    mu = 1.3 + 0.05i; vacuum lies outside.
    """
    vacuum = LayerCoeff.iso(1.0 + 0.0j)
    return RadialMedium(layers=(
        Layer(0.0, 1.0, LayerCoeff(2.0 + 0.0j, 3.0 + 0.0j), LayerCoeff(1.5 + 0.0j, 0.7 + 0.0j)),
        Layer(1.0, 2.0, LayerCoeff.iso(2.0 + 0.1j), LayerCoeff.iso(1.3 + 0.05j)),
        Layer(2.0, math.inf, vacuum, vacuum)))


@functools.lru_cache(maxsize=None)
def eps_ne_mu_solution():
    """The solve of `eps_ne_mu_medium` at omega = 1 for a sheet at r = 3."""
    amps = {mode(1, 0, "TE"): 1.0, mode(2, 1, "TM"): 0.5j,
            mode(2, -1, "TE"): 0.3, mode(1, 1, "TM"): 0.8}
    return solve(eps_ne_mu_medium(), SurfaceCurrentSource(radius=3.0, amplitudes=amps), 1.0)
