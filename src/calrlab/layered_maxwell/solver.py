"""Per-mode exact solve of time-harmonic Maxwell in radially layered media.

Each (n, polarization) pair decouples into a 2x2 tangential-trace problem.
The radial functions in a layer with spherical-diagonal constants
(eps_rad, eps_tan, mu_rad, mu_tan) are growth-normalized spherical Bessel
functions of effective order nu(nu+1) = (tan/rad) n(n+1) (taken from mu for
TE and from eps for TM) at wavenumber k = omega sqrt(eps_tan mu_tan),
branch Im k >= 0.

Coefficients are propagated as scaled projective pairs and interfaces are
resolved with the exact Wronskian determinant -(2nu+1)/z^2, so localized
resonance (condition numbers like (r2/r1)^(2n)/delta) costs accuracy, never
overflow.  This is the impedance-safe form of the transfer recursion.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..media.radial import RadialMedium
from ..specfun.bessel import hat_h1, hat_jy, log_dfact_minus, log_dfact_plus
from ..specfun.scaled import ScaledArray
from .modes import TE, ModeId, SurfaceCurrentSource

_LN10 = math.log(10.0)


def _s(value) -> ScaledArray:
    return ScaledArray.from_complex(np.atleast_1d(np.asarray(value, dtype=complex)))


def branch_sqrt(z: complex) -> complex:
    """Square root with Im >= 0; positive reals map to positive reals."""
    w = cmath.sqrt(z)
    if w.imag < 0 or (w.imag == 0 and w.real < 0):
        w = -w
    return w


def effective_order(n: int, rad: complex, tan: complex) -> float:
    """nu solving nu(nu+1) = (tan/rad) n(n+1); isotropic layers give nu = n."""
    ratio = tan / rad
    if abs(ratio.imag) > 1e-10 * abs(ratio):
        raise NotImplementedError(
            "complex effective order (lossy anisotropic layer); "
            "use a multiplicative loss model or a finer staircase")
    t = ratio.real * n * (n + 1)
    if t <= 0:
        raise ValueError("indefinite spherical anisotropy ratio")
    return -0.5 + math.sqrt(0.25 + t)


@dataclass(frozen=True)
class RegionSpec:
    """One radial region of the per-mode problem (source radius split out)."""

    r_lo: float
    r_hi: float
    eps_rad: complex
    eps_tan: complex
    mu_rad: complex
    mu_tan: complex

    def order_and_k(self, n: int, pol: str, omega: float) -> tuple[float, complex]:
        if pol == TE:
            nu = effective_order(n, self.mu_rad, self.mu_tan)
        else:
            nu = effective_order(n, self.eps_rad, self.eps_tan)
        k = omega * branch_sqrt(self.eps_tan * self.mu_tan)
        return nu, k


@dataclass
class RegionCoeffs:
    """Radial-function coefficients in one region for one (n, pol).

    The radial function is u(r) = c_j jhat_nu(k r) + c_y yhat_nu(k r); in the
    unbounded region the outgoing constraint leaves a single hhat coefficient,
    stored in c_y with outgoing=True (hhat shares yhat's normalization).
    """

    nu: float
    k: complex
    c_j: ScaledArray
    c_y: ScaledArray
    outgoing: bool = False

    def radial(self, r) -> tuple[ScaledArray, ScaledArray]:
        """u(r) and du/dr as ScaledArrays over an array of radii."""
        z = self.k * np.asarray(r, dtype=complex)
        if self.outgoing:
            h = hat_h1(self.nu, z)
            return self.c_y * h["h"], self.k * (self.c_y * h["dh"])
        b = hat_jy(self.nu, z)
        u = self.c_j * b["j"] + self.c_y * b["y"]
        du = self.c_j * b["dj"] + self.c_y * b["dy"]
        return u, self.k * du

    def as_jy(self) -> "RegionCoeffs":
        """Rewrite an outgoing coefficient on the (jhat, yhat) basis.

        hhat = yhat + i jhat / ((2nu+1)!!(2nu-1)!!).
        """
        if not self.outgoing:
            return self
        logd = (log_dfact_plus(self.nu) + log_dfact_minus(self.nu)) / _LN10
        cj = (1j * self.c_y).scale10(-logd)
        return RegionCoeffs(nu=self.nu, k=self.k, c_j=cj, c_y=self.c_y.copy(),
                            outgoing=False)


def _trace(reg: RegionSpec, pol: str, coeffs: RegionCoeffs, r: float,
           omega: float) -> tuple[ScaledArray, ScaledArray]:
    """Tangential trace pair (E_t, H_t) of the radial basis state at radius r.

    TE: (E_t, H_t) = (u, (i/(omega mu_tan)) (u' + u/r));
    TM: (E_t, H_t) = (-(i/(omega eps_tan)) (u' + u/r), u).
    """
    u, du = coeffs.radial(np.array([r]))
    curlish = du + u * (1.0 / r)
    if pol == TE:
        return u, (1j / (omega * reg.mu_tan)) * curlish
    return (-1j / (omega * reg.eps_tan)) * curlish, u


class _RegionBasis:
    """Basis traces of one region at its two ends, from one Bessel sweep.

    e[b][end], h[b][end] for basis b in (0 = jhat, 1 = yhat or hhat) and
    end in (0 = r_lo, 1 = r_hi).
    """

    __slots__ = ("nu", "k", "e", "h", "_ends")

    def __init__(self, reg: RegionSpec, pol: str, n: int, omega: float,
                 outgoing: bool):
        nu, k = reg.order_and_k(n, pol, omega)
        self.nu, self.k = nu, k
        ends = []
        if reg.r_lo > 0:
            ends.append(reg.r_lo)
        if not math.isinf(reg.r_hi):
            ends.append(reg.r_hi)
        rr = np.asarray(ends, dtype=float)
        z = k * rr
        b = reg.mu_tan if pol == TE else reg.eps_tan
        factor = 1j / (omega * b) if pol == TE else -1j / (omega * b)

        def traces(u, du):
            curlish = k * du + u * (1.0 / rr)
            if pol == TE:
                return u, factor * curlish
            return factor * curlish, u

        self.e = [None, None]
        self.h = [None, None]
        if outgoing:
            hv = hat_h1(nu, z)
            e1, h1 = traces(hv["h"], hv["dh"])
            self.e[1] = e1
            self.h[1] = h1
        else:
            jy = hat_jy(nu, z)
            ej, hj = traces(jy["j"], jy["dj"])
            ey, hy = traces(jy["y"], jy["dy"])
            self.e[0], self.h[0] = ej, hj
            self.e[1], self.h[1] = ey, hy
        self._ends = {round(r, 14): i for i, r in enumerate(ends)}

    def end_index(self, r: float) -> int:
        return self._ends[round(r, 14)]

    def state_trace(self, coeffs: RegionCoeffs, r: float):
        i = self.end_index(r)
        if coeffs.outgoing:
            return (coeffs.c_y * self.e[1][i:i + 1],
                    coeffs.c_y * self.h[1][i:i + 1])
        e = coeffs.c_j * self.e[0][i:i + 1] + coeffs.c_y * self.e[1][i:i + 1]
        h = coeffs.c_j * self.h[0][i:i + 1] + coeffs.c_y * self.h[1][i:i + 1]
        return e, h

    def match(self, reg: RegionSpec, pol: str, r: float, e_t: ScaledArray,
              h_t: ScaledArray, omega: float) -> RegionCoeffs:
        """Coefficients whose trace at r equals (e_t, h_t).

        The 2x2 basis determinant is exactly -i (2nu+1)/(omega b k r^2) with
        b = mu_tan (TE) or eps_tan (TM), so the solve is cancellation-free.
        """
        b = reg.mu_tan if pol == TE else reg.eps_tan
        det = _s(-1j * (2.0 * self.nu + 1.0) / (omega * b * self.k * r * r))
        i = self.end_index(r)
        e1, h1 = self.e[0][i:i + 1], self.h[0][i:i + 1]
        e2, h2 = self.e[1][i:i + 1], self.h[1][i:i + 1]
        c_j = (e_t * h2 - h_t * e2) / det
        c_y = (h_t * e1 - e_t * h1) / det
        return RegionCoeffs(nu=self.nu, k=self.k, c_j=c_j, c_y=c_y)


@dataclass(frozen=True)
class SolverOptions:
    cond_guard: float = 1e12
    on_near_singular: str = "warn"      # "warn" | "raise"
    interface_tol: float = 1e-9


class NearSingularMode(RuntimeError):
    pass


@dataclass
class RadialSolve:
    """Unit-jump radial solution for one (n, pol) across all regions."""

    n: int
    pol: str
    regions: list
    coeffs: list
    source_index: int       # region index just below the source radius
    condition: float
    interface_residual: float


@dataclass
class FieldSolution:
    """A solved configuration: medium, source, frequency, coefficient tables."""

    medium: RadialMedium
    source: SurfaceCurrentSource
    omega: float
    regions: tuple
    radial: Dict[tuple, RadialSolve]
    amplitudes: Dict[ModeId, complex]
    n_max: int
    tail_bound: float
    options: SolverOptions = field(default_factory=SolverOptions)

    def region_index(self, r: float) -> int:
        """Region containing r; on a boundary, the inside region wins."""
        for i, reg in enumerate(self.regions):
            if r <= reg.r_hi:
                return i
        return len(self.regions) - 1

    def max_condition(self) -> float:
        return max(rs.condition for rs in self.radial.values())

    def max_interface_residual(self) -> float:
        return max(rs.interface_residual for rs in self.radial.values())


def _build_regions(medium: RadialMedium, r_s: float) -> tuple[list, int]:
    """Constant-coefficient regions with the source radius inserted."""
    if not medium.is_piecewise_constant:
        raise ValueError(
            "solve needs a piecewise-constant medium; staircase graded layers first")
    regions = []
    src_idx = None
    for layer in medium.layers:
        er, et = layer.eps.at(layer.r_lo + 1.0)
        mr, mt = layer.mu.at(layer.r_lo + 1.0)
        if layer.r_lo < r_s < layer.r_hi:
            src_idx = len(regions)
            regions.append(RegionSpec(layer.r_lo, r_s, er, et, mr, mt))
            regions.append(RegionSpec(r_s, layer.r_hi, er, et, mr, mt))
        else:
            regions.append(RegionSpec(layer.r_lo, layer.r_hi, er, et, mr, mt))
    if src_idx is None:
        raise ValueError(
            "source radius must lie strictly inside a layer, not on a breakpoint")
    return regions, src_idx


def _solve_radial(regions, src_idx, n, pol, omega, options) -> RadialSolve:
    nreg = len(regions)
    basis = [(_RegionBasis(reg, pol, n, omega, outgoing=(i == nreg - 1)))
             for i, reg in enumerate(regions)]

    inner = [None] * nreg
    inner[0] = RegionCoeffs(nu=basis[0].nu, k=basis[0].k, c_j=_s(1.0), c_y=_s(0.0))
    for i in range(src_idx):
        r = regions[i].r_hi
        e_t, h_t = basis[i].state_trace(inner[i], r)
        inner[i + 1] = basis[i + 1].match(regions[i + 1], pol, r, e_t, h_t, omega)

    outer = [None] * nreg
    outer[-1] = RegionCoeffs(nu=basis[-1].nu, k=basis[-1].k,
                             c_j=_s(0.0), c_y=_s(1.0), outgoing=True)
    for i in range(nreg - 1, src_idx + 1, -1):
        r = regions[i].r_lo
        e_t, h_t = basis[i].state_trace(outer[i], r)
        outer[i - 1] = basis[i - 1].match(regions[i - 1], pol, r, e_t, h_t, omega)

    r_s = regions[src_idx].r_hi
    e_m, h_m = basis[src_idx].state_trace(inner[src_idx], r_s)
    e_p, h_p = basis[src_idx + 1].state_trace(outer[src_idx + 1], r_s)

    # E continuous, H_t jumps by 1:  E+ B - E- A = 0,  H+ B - H- A = 1
    t1 = h_p * e_m
    t2 = h_m * e_p
    det = t1 - t2
    mag = 10.0 ** np.maximum(t1.log10_abs(), t2.log10_abs())[0]
    det_mag = 10.0 ** det.log10_abs()[0]
    cond = math.inf if det_mag == 0 else float(mag / det_mag)
    if cond > options.cond_guard:
        msg = f"near-singular mode (n={n}, pol={pol}): condition {cond:.3e}"
        if options.on_near_singular == "raise":
            raise NearSingularMode(msg)
        warnings.warn(msg, RuntimeWarning)
    a_scale = e_p / det
    b_scale = e_m / det

    coeffs = []
    for i in range(nreg):
        base = inner[i] if i <= src_idx else outer[i]
        scale = a_scale if i <= src_idx else b_scale
        coeffs.append(RegionCoeffs(nu=base.nu, k=base.k,
                                   c_j=base.c_j * scale, c_y=base.c_y * scale,
                                   outgoing=base.outgoing))

    resid = _interface_residual(regions, basis, coeffs, pol, src_idx)
    if resid > options.interface_tol:
        warnings.warn(f"interface residual {resid:.2e} for (n={n}, pol={pol})",
                      RuntimeWarning)
    return RadialSolve(n=n, pol=pol, regions=list(regions), coeffs=coeffs,
                       source_index=src_idx, condition=cond,
                       interface_residual=resid)


def _interface_residual(regions, basis, coeffs, pol, src_idx) -> float:
    """Relative trace mismatch across every interface (source jump included)."""
    worst = 0.0
    for i in range(len(regions) - 1):
        r = regions[i].r_hi
        e_a, h_a = basis[i].state_trace(coeffs[i], r)
        e_b, h_b = basis[i + 1].state_trace(coeffs[i + 1], r)
        jump = 1.0 if i == src_idx else 0.0
        scale = max(10.0 ** e_a.log10_abs()[0], 10.0 ** h_a.log10_abs()[0], 1e-30)
        de = abs((e_b - e_a).to_complex()[0])
        dh = abs((h_b - h_a - jump).to_complex()[0]) if jump else abs((h_b - h_a).to_complex()[0])
        worst = max(worst, de / scale, dh / scale)
    return worst


def solve(medium: RadialMedium, source: SurfaceCurrentSource, omega: float,
          n_max: int | None = None,
          options: SolverOptions = SolverOptions()) -> FieldSolution:
    """Solve the radiating transmission problem for a sheet source.

    Sign-changing layers normally carry positive loss; running them lossless
    is allowed only as long as every per-mode system stays away from the
    condition guard, which otherwise warns or raises per `options`.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    regions, src_idx = _build_regions(medium, source.radius)
    if abs(regions[-1].eps_tan - 1) > 1e-14 or abs(regions[-1].mu_tan - 1) > 1e-14:
        raise ValueError("outermost layer must be vacuum")
    n_cap = source.n_max if n_max is None else min(n_max, source.n_max)
    tail = 0.0
    for key, amp in source.amplitudes.items():
        if key.n > n_cap:
            tail += abs(amp) ** 2
    tail = math.sqrt(tail) * source.radius
    radial = {(n, pol): _solve_radial(regions, src_idx, n, pol, omega, options)
              for n, pol in source.radial_keys() if n <= n_cap}
    amps = {k: complex(v) for k, v in source.amplitudes.items() if k.n <= n_cap}
    return FieldSolution(medium=medium, source=source, omega=omega,
                         regions=tuple(regions), radial=radial, amplitudes=amps,
                         n_max=n_cap, tail_bound=tail, options=options)
