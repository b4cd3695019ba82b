"""Radially layered media and the sign-changing constructions.

A RadialMedium is a contiguous stack of spherical layers, each carrying
spherical-frame diagonal permittivity and permeability (radial and
tangential entries, complex, constant or a function of radius).  The
outermost layer extends to infinity and is vacuum in every constructor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .maps import SmoothMap, power_map
from .pushforward import push_forward_tensor, spherical_diag

CoeffLike = "complex | Callable[[float], complex]"


def _at(c, r: float) -> complex:
    return complex(c(r)) if callable(c) else complex(c)


@dataclass(frozen=True)
class LayerCoeff:
    """Spherical-frame diagonal coefficient: rad on e_r x e_r, tan on the rest."""

    rad: object
    tan: object

    @classmethod
    def iso(cls, c) -> "LayerCoeff":
        return cls(rad=c, tan=c)

    @property
    def is_constant(self) -> bool:
        return not (callable(self.rad) or callable(self.tan))

    def at(self, r: float) -> tuple[complex, complex]:
        return _at(self.rad, r), _at(self.tan, r)

    def tensor(self, x) -> np.ndarray:
        r = float(np.linalg.norm(x))
        rad, tan = self.at(r)
        return spherical_diag(rad, tan, x)


VACUUM = LayerCoeff.iso(1.0 + 0.0j)


@dataclass(frozen=True)
class Layer:
    r_lo: float
    r_hi: float           # math.inf for the exterior layer
    eps: LayerCoeff
    mu: LayerCoeff

    @property
    def is_constant(self) -> bool:
        return self.eps.is_constant and self.mu.is_constant


@dataclass(frozen=True)
class RadialMedium:
    layers: tuple
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("medium needs at least one layer")
        if self.layers[0].r_lo != 0.0 or not math.isinf(self.layers[-1].r_hi):
            raise ValueError("layers must cover (0, inf)")
        for a, b in zip(self.layers, self.layers[1:]):
            if not (a.r_hi == b.r_lo and a.r_lo < a.r_hi):
                raise ValueError("layers must be contiguous with increasing radii")

    @property
    def breakpoints(self) -> list[float]:
        return [layer.r_hi for layer in self.layers[:-1]]

    @property
    def is_piecewise_constant(self) -> bool:
        return all(layer.is_constant for layer in self.layers)

    def layer_index(self, r: float) -> int:
        """Layer containing radius r; exactly on a breakpoint -> inside layer."""
        for i, layer in enumerate(self.layers):
            if r <= layer.r_hi:
                return i
        return len(self.layers) - 1

    def layer_at(self, r: float) -> Layer:
        return self.layers[self.layer_index(r)]

    def tensors_at(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        layer = self.layer_at(float(np.linalg.norm(x)))
        return layer.eps.tensor(x), layer.mu.tensor(x)


def vacuum_medium() -> RadialMedium:
    return RadialMedium(layers=(Layer(0.0, math.inf, VACUUM, VACUUM),),
                        provenance={"constructor": "vacuum"})


def _shell_coeff(r2: float, p: float, delta: float) -> LayerCoeff:
    """The graded sign-changing shell: for p = 2 this is -(r2/r)^2 I + i delta I."""
    if p == 2.0:
        def iso(r, _r2=r2, _d=delta):
            return -(_r2 * _r2) / (r * r) + 1j * _d
        return LayerCoeff.iso(iso)

    def rad(r, _r2=r2, _p=p, _d=delta):
        return -(_r2 ** _p / r ** _p) / (_p - 1.0) + 1j * _d

    def tan(r, _r2=r2, _p=p, _d=delta):
        return -(_r2 ** _p / r ** _p) * (_p - 1.0) + 1j * _d

    return LayerCoeff(rad=rad, tan=tan)


def make_dcm_example(r1: float, r2: float, p: float = 2.0,
                     delta: float = 0.0) -> RadialMedium:
    """Core-shell-vacuum medium whose shell is complementary to both sides.

    Core B_{r1}: m I with m = (r2/r1)^p; shell B_{r2} \\ B_{r1}: the graded
    sign-changing tensor (isotropic -(r2/r)^2 for p = 2) plus i delta; vacuum
    outside.  The matched exterior radius r3 = r2^p / r1^(p-1) is recorded.
    """
    if not (r2 > r1 > 0):
        raise ValueError("need r2 > r1 > 0")
    if p <= 1:
        raise ValueError("need p > 1")
    m = (r2 / r1) ** p
    r3 = r2 ** p / r1 ** (p - 1.0)
    core = LayerCoeff.iso(complex(m))
    shell = _shell_coeff(r2, p, delta)
    layers = (Layer(0.0, r1, core, core),
              Layer(r1, r2, shell, shell),
              Layer(r2, math.inf, VACUUM, VACUUM))
    return RadialMedium(layers=layers, provenance={
        "constructor": "dcm_example",
        "r1": r1, "r2": r2, "p": p, "delta": delta, "m": m, "r3": r3,
    })


def dcm_maps(medium: RadialMedium) -> tuple[SmoothMap, SmoothMap]:
    """The reflection pair (F, G) recorded by a DCM-style constructor."""
    prov = medium.provenance
    if prov.get("constructor") not in ("dcm_example", "superlens", "cm_cloak"):
        raise ValueError("medium does not carry reflection provenance")
    p = prov.get("p", 2.0)
    q = p / (p - 1.0)
    return power_map(prov["r2"], p), power_map(prov["r3"], q)


def make_superlens(r0: float, m: float, obj: tuple, delta: float,
                   r1: float | None = None,
                   lam: float | None = None) -> tuple[RadialMedium, RadialMedium]:
    """Magnifying stack and its homogenized reference.

    Object (eps_O, mu_O) in B_{r0}; matching layer (m I, m I) in B_{r1} \\ B_{r0};
    Kelvin-complementary shell -(r2/r)^2 I + i delta in B_{r2} \\ B_{r1} with
    r2 = m r0; vacuum outside.  The reference medium carries the object
    magnified m times: (eps_O/m, mu_O/m) in B_{m r0}.  With `lam` given, the
    object pair must have real parts in [1/lam, lam].
    """
    if m <= 1:
        raise ValueError("need magnification m > 1")
    if lam is not None:
        for c in obj:
            val = complex(c).real
            if not (1.0 / lam - 1e-12 <= val <= lam + 1e-12):
                raise ValueError(f"object coefficient {c} escapes [1/{lam}, {lam}]")
    if r1 is None:
        r1 = math.sqrt(m) * r0
    if r1 < math.sqrt(m) * r0 - 1e-12:
        raise ValueError("need r1 >= sqrt(m) r0")
    r2 = m * r0
    if not (r0 < r1 < r2):
        raise ValueError("need r0 < r1 < r2 = m r0")
    r3 = r2 * r2 / r1
    eps_o, mu_o = complex(obj[0]), complex(obj[1])
    shell = _shell_coeff(r2, 2.0, delta)
    ring = LayerCoeff.iso(complex(m))
    layers = (Layer(0.0, r0, LayerCoeff.iso(eps_o), LayerCoeff.iso(mu_o)),
              Layer(r0, r1, ring, ring),
              Layer(r1, r2, shell, shell),
              Layer(r2, math.inf, VACUUM, VACUUM))
    medium = RadialMedium(layers=layers, provenance={
        "constructor": "superlens", "r0": r0, "m": m, "r1": r1, "r2": r2,
        "r3": r3, "p": 2.0, "delta": delta,
        "object": [eps_o.real, eps_o.imag, mu_o.real, mu_o.imag],
    })
    ref_layers = (Layer(0.0, r2, LayerCoeff.iso(eps_o / m), LayerCoeff.iso(mu_o / m)),
                  Layer(r2, math.inf, VACUUM, VACUUM))
    reference = RadialMedium(layers=ref_layers, provenance={
        "constructor": "superlens_reference", "r0": r0, "m": m, "r2": r2,
        "object": [eps_o.real, eps_o.imag, mu_o.real, mu_o.imag],
    })
    return medium, reference


def make_cm_cloak(r2: float, r3: float, profile: tuple | None,
                  delta: float) -> RadialMedium:
    """Annulus-cloaking stack: profile in B_{r3} \\ B_{r2}, its Kelvin
    complement + i delta in B_{r2} \\ B_{r1}, homogeneous core m I in B_{r1},
    with r1 = r2^2/r3 and m = (r3/r2)^2.

    `profile` is a pair (eps, mu), each a complex constant or a callable of
    radius, defined on (r2, r3); None means vacuum (the empty cloak).
    """
    if not (r3 > r2 > 0):
        raise ValueError("need r3 > r2 > 0")
    r1 = r2 * r2 / r3
    m = (r3 / r2) ** 2
    if profile is None:
        profile = (1.0 + 0.0j, 1.0 + 0.0j)
    eps_p, mu_p = profile

    def pushed(coeff):
        # Kelvin image of an isotropic radial profile: -(r2/r)^2 s(r2^2/r)
        def fn(r, _c=coeff, _r2=r2, _d=delta):
            return -(_r2 * _r2) / (r * r) * _at(_c, _r2 * _r2 / r) + 1j * _d
        return fn

    comp = Layer(r1, r2, LayerCoeff.iso(pushed(eps_p)), LayerCoeff.iso(pushed(mu_p)))
    core = LayerCoeff.iso(complex(m))
    cloak_eps = LayerCoeff.iso(eps_p)
    cloak_mu = LayerCoeff.iso(mu_p)
    layers = (Layer(0.0, r1, core, core),
              comp,
              Layer(r2, r3, cloak_eps, cloak_mu),
              Layer(r3, math.inf, VACUUM, VACUUM))
    return RadialMedium(layers=layers, provenance={
        "constructor": "cm_cloak", "r1": r1, "r2": r2, "r3": r3,
        "m": m, "p": 2.0, "delta": delta,
    })


def dcm_verify(medium: RadialMedium, f_map: SmoothMap, g_map: SmoothMap,
               samples: Sequence) -> float:
    """Max Frobenius residual of the two complementarity conditions.

    On samples y in the matched annulus: (i) the shell pushed through F must
    reproduce the medium at y, and (ii) the core pushed through G o F must
    reproduce it as well.  Both eps and mu are checked.
    """
    prov = medium.provenance
    r2, r3 = prov["r2"], prov["r3"]
    worst = 0.0
    for y in np.atleast_2d(np.asarray(samples, dtype=float)):
        ry = float(np.linalg.norm(y))
        if not (r2 < ry < r3):
            raise ValueError(f"sample radius {ry} outside the annulus ({r2}, {r3})")
        eps_y, mu_y = medium.tensors_at(y)

        def eps_f(x):
            return medium.tensors_at(x)[0]

        def mu_f(x):
            return medium.tensors_at(x)[1]

        for a_y, a_f in ((eps_y, eps_f), (mu_y, mu_f)):
            via_f = push_forward_tensor(f_map, a_f, y)
            worst = max(worst, float(np.linalg.norm(via_f - a_y)))
            x_core = f_map.inverse(g_map.inverse(y))
            j = g_map.jacobian(f_map(x_core)) @ f_map.jacobian(x_core)
            det = np.linalg.det(j)
            via_gf = j @ a_f(x_core) @ j.T / det
            worst = max(worst, float(np.linalg.norm(via_gf - a_y)))
    return worst
