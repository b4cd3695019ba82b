"""Spherical Bessel machinery for complex arguments and real order.

Strategy, in brief: j is computed by the ascending series for small |z|
and by scaled downward (Miller) recurrence otherwise, anchored at whichever
of the two lowest orders is farther from a zero; y is computed by scaled
upward recurrence from closed-form seeds (integer order) or series seeds
obtained through the reflection formula (fractional order).  Downward for
j / upward for y is forced by which solution is recessive or dominant as
the order grows at fixed argument.

Every decision is made per element: the series stops on each element's own
term, the series/Miller switch reads each element's own |z|, and Miller
starts each element at the order its own |z| calls for.  So each element of
a batched call gets exactly the values of a call on that element alone,
whatever else is in the batch.

Fractional orders arise from spherical-frame anisotropic layers, where the
effective order solves nu(nu+1) = (tangential/radial) * n(n+1).

All values are carried as (mantissa, decimal exponent) pairs; see
`calrlab.specfun.scaled`.
"""
from __future__ import annotations

import math

import numpy as np

from .scaled import ScaledArray

MAX_ORDER = 1500
_SERIES_CUTOFF = 8.0  # |z| below which the ascending series is used for j
# |z| above which the ascending series raises.  Only fractional orders call
# it there (for Miller anchors and y seeds); its terms cancel like e^|z|, and
# against mpmath its worst relative error read about 1e-9 at |z| = 16, 1e-7
# at 20 and 1e-3 at 30.
_SERIES_MAX_Z = 20.0
_LN10 = math.log(10.0)


def log_dfact_plus(nu: float) -> float:
    """ln((2*nu+1)!!), continued to real nu via the Gamma function."""
    return (nu + 1.0) * math.log(2.0) + math.lgamma(nu + 1.5) - 0.5 * math.log(math.pi)


def log_dfact_minus(nu: float) -> float:
    """ln((2*nu-1)!!), continued to real nu via the Gamma function."""
    return nu * math.log(2.0) + math.lgamma(nu + 0.5) - 0.5 * math.log(math.pi)


def _as_z_array(z):
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    return np.atleast_1d(z), scalar


def _ascending_sum(zsq4: np.ndarray, denom) -> np.ndarray:
    """1 + sum_k prod_{i<=k} zsq4 / denom(i), term by term.

    Each element stops once its own term is below 1e-18 of its partial sum
    (or after 401 terms) and keeps that sum, so its result does not depend
    on what else is in the batch.
    """
    term = np.ones_like(zsq4)
    acc = np.ones_like(zsq4)
    live = np.ones(zsq4.shape, dtype=bool)     # still summing
    for k in range(1, 402):
        term = term * zsq4 / denom(k)
        np.add(acc, term, out=acc, where=live)
        live &= np.abs(term) > 1e-18 * np.maximum(np.abs(acc), 1e-300)
        if not live.any():
            break
    return acc


def _series_j(nu: float, z: np.ndarray) -> ScaledArray:
    """Ascending series for j_nu, valid for nu > -3/2, scaled output.

    j_nu(z) = (sqrt(pi)/2) (z/2)^nu sum_k (-z^2/4)^k / (k! Gamma(k+nu+3/2)).
    Terms are updated recursively so no large Gamma values appear.
    """
    if nu <= -1.5:
        raise ValueError(f"series invalid for order {nu}")
    if float(np.max(np.abs(z))) > _SERIES_MAX_Z:
        raise ValueError(f"ascending series unreliable for |z| > {_SERIES_MAX_Z:g}")
    zsq4 = -(z * z) / 4.0
    acc = _ascending_sum(zsq4, lambda k: k * (k + nu + 0.5))
    # prefactor (sqrt(pi)/2) (z/2)^nu / Gamma(nu+3/2), in log10 pieces
    out = ScaledArray.from_complex(acc)
    logpref = (0.5 * math.log(math.pi) - math.log(2.0) - math.lgamma(nu + 1.5)) / _LN10
    nz = z != 0
    phase = np.where(nz, np.exp(1j * nu * np.angle(np.where(nz, z, 1.0) / 2.0)), 1.0)
    logmag = np.where(nz, nu * np.log10(np.abs(np.where(nz, z, 1.0)) / 2.0), 0.0)
    out = ScaledArray(out.m * phase, out.e) .scale10(logmag + logpref)
    if np.any(~nz):
        # j_nu(0) = 1 for nu == 0, else 0
        fill = 1.0 if nu == 0 else 0.0
        out.m[~nz] = fill
        out.e[~nz] = 0
    return out


def _series_jminus_aux(nu: float, z: np.ndarray) -> ScaledArray:
    """sqrt(pi/(2z)) * J_{-(nu+1/2)}(z), the second series of the reflection.

    Equals (sqrt(pi)/2) (z/2)^(-nu-1) sum_k (-z^2/4)^k / (k! Gamma(k-nu+1/2)).
    """
    g0 = 0.5 - nu
    if abs(g0 - round(g0)) < 1e-12 and round(g0) <= 0:
        raise ValueError(f"reflection series degenerate at order {nu}")
    zsq4 = -(z * z) / 4.0
    acc = _ascending_sum(zsq4, lambda k: k * (k - nu - 0.5))
    # 1/Gamma(g0) with sign (g0 may be negative non-integer)
    sign = 1.0
    if g0 < 0:
        # reflection: Gamma(g0) = pi / (sin(pi g0) Gamma(1-g0))
        s = math.sin(math.pi * g0)
        sign = 1.0 if s > 0 else -1.0
        log_gamma = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - g0)
    else:
        log_gamma = math.lgamma(g0)
    out = ScaledArray.from_complex(acc * sign)
    logpref = (0.5 * math.log(math.pi) - math.log(2.0) - log_gamma) / _LN10
    if np.any(z == 0):
        raise ZeroDivisionError("y-type series requires z != 0")
    phase = np.exp(-1j * (nu + 1.0) * np.angle(z / 2.0))
    logmag = -(nu + 1.0) * np.log10(np.abs(z) / 2.0)
    return ScaledArray(out.m * phase, out.e).scale10(logmag + logpref)


def _series_y(nu: float, z: np.ndarray) -> ScaledArray:
    """y_nu by the reflection formula (fractional nu) or trig (integer nu<=1)."""
    if abs(nu - round(nu)) < 1e-12:
        n = int(round(nu))
        if n == 0:
            return ScaledArray.from_complex(-np.cos(z) / z)
        if n == -1:
            return ScaledArray.from_complex(np.sin(z) / z)
        if n == 1:
            return ScaledArray.from_complex(-np.cos(z) / (z * z) - np.sin(z) / z)
        raise ValueError("trig seeds only cover orders -1, 0, 1")
    a = nu + 0.5
    s = math.sin(math.pi * a)
    if abs(s) < 1e-8:
        raise ValueError(
            f"order {nu} too close to half-integer for the reflection formula; "
            "perturb the order slightly")
    j = _series_j(nu, z)
    aux = _series_jminus_aux(nu, z)
    return (j * math.cos(math.pi * a) - aux) * (1.0 / s)


def _miller_j(nu: float, z: np.ndarray, base: float) -> tuple[ScaledArray, ScaledArray]:
    """Scaled downward recurrence; returns j at orders (nu-1, nu).

    `base` is the fractional part of nu (the anchor order); anchoring is at
    base or base+1, whichever true value is larger elementwise, so zeros of
    the anchor do not poison the normalization.  Each element starts at the
    order its own |z| calls for.
    """
    steps = int(round(nu - base))
    tops = steps + np.maximum(24, np.ceil(1.1 * np.abs(z) - nu).astype(np.int64) + 24)
    top, first = int(tops.max()), int(tops.min())
    fp = np.zeros_like(z)            # f_{k+1}
    fc = np.ones_like(z)             # f_k, arbitrary seed
    eoff = np.zeros(z.shape, dtype=np.int64)
    snap = {}
    for k in range(top, -1, -1):
        if k == steps + 1:
            snap["above"] = (fc.copy(), eoff.copy())
        if k == steps:
            snap["at"] = (fc.copy(), eoff.copy())
        if k == steps - 1:
            snap["below"] = (fc.copy(), eoff.copy())
        if k == 1:
            snap["one"] = (fc.copy(), eoff.copy())
        if k == 0:
            snap["zero"] = (fc.copy(), eoff.copy())
            break
        order = base + k
        fm = (2.0 * order + 1.0) / z * fc - fp
        if k > first:
            # elements that start lower keep their seed (f_k, f_{k+1}) = (1, 0)
            held = k > tops
            fp, fc = np.where(held, fp, fc), np.where(held, fc, fm)
        else:
            fp, fc = fc, fm
        big = np.abs(fc) > 1e250
        if big.any():
            fc[big] *= 1e-250
            fp[big] *= 1e-250
            eoff[big] += 250
    f0 = ScaledArray(snap["zero"][0], snap["zero"][1])
    f1 = ScaledArray(snap["one"][0], snap["one"][1])
    if abs(base) < 1e-12:
        t0 = ScaledArray.from_complex(np.where(z != 0, np.sin(z) / np.where(z != 0, z, 1.0), 1.0))
        t1 = ScaledArray.from_complex(
            np.where(z != 0, np.sin(z) / np.where(z != 0, z * z, 1.0)
                     - np.cos(z) / np.where(z != 0, z, 1.0), 0.0))
    else:
        t0 = _series_j(base, z)
        t1 = _series_j(base + 1.0, z)
    # elementwise anchor choice by larger true magnitude
    use1 = t1.log10_abs() > t0.log10_abs()
    rat0 = t0 / f0
    rat1 = t1 / f1
    ratio = ScaledArray.where(use1, rat1, rat0)
    j_at = ScaledArray(*snap["at"]) * ratio
    if steps >= 1:
        j_below = ScaledArray(*snap["below"]) * ratio
    else:
        # j_{nu-1} = (2nu+1)/z j_nu - j_{nu+1}, using downward data only
        j_above = ScaledArray(*snap["above"]) * ratio
        j_below = (2.0 * nu + 1.0) * (j_at * ScaledArray.from_complex(1.0 / z)) - j_above
    return j_below, j_at


def _upward_y(nu: float, z: np.ndarray, base: float) -> tuple[ScaledArray, ScaledArray]:
    """Scaled upward recurrence; returns y at orders (nu-1, nu)."""
    steps = int(round(nu - base))
    ym1 = _series_y(base - 1.0, z)
    y0 = _series_y(base, z)
    if steps == 0:
        return ym1, y0
    prev_m, prev_e = ym1.m.copy(), ym1.e.copy()
    cur_m, cur_e = y0.m.copy(), y0.e.copy()
    # align both registers to the larger exponent (never scales up)
    eoff = np.maximum(prev_e, cur_e)
    prev_m = prev_m * 10.0 ** np.clip((prev_e - eoff).astype(float), -400, 0)
    cur_m = cur_m * 10.0 ** np.clip((cur_e - eoff).astype(float), -400, 0)
    for k in range(steps):
        order = base + k
        nxt = (2.0 * order + 1.0) / z * cur_m - prev_m
        prev_m, cur_m = cur_m, nxt
        big = np.abs(cur_m) > 1e250
        if big.any():
            cur_m[big] *= 1e-250
            prev_m[big] *= 1e-250
            eoff[big] += 250
    return ScaledArray(prev_m, eoff), ScaledArray(cur_m, eoff)


def _merge(mask: np.ndarray, a: ScaledArray, b: ScaledArray) -> ScaledArray:
    """Scatter: a's values where mask holds and b's elsewhere, where a and b
    hold only the elements they fill (unlike ScaledArray.where)."""
    m = np.empty(mask.shape, dtype=complex)
    e = np.empty(mask.shape, dtype=np.int64)
    m[mask], e[mask] = a.m, a.e
    m[~mask], e[~mask] = b.m, b.e
    return ScaledArray(m, e, normalize=False)


def _j_pair(nu: float, z: np.ndarray, base: float) -> tuple[ScaledArray, ScaledArray]:
    """j at orders (nu-1, nu): series where |z| <= 8, Miller elsewhere."""
    series = np.abs(z) <= _SERIES_CUTOFF
    if np.all(series):
        return _series_j(nu - 1.0, z), _series_j(nu, z)
    if not np.any(series):
        return _miller_j(nu, z, base)
    near = _j_pair(nu, z[series], base)
    far = _j_pair(nu, z[~series], base)
    return _merge(series, near[0], far[0]), _merge(series, near[1], far[1])


def sph_jy(nu: float, z) -> dict:
    """j_nu, y_nu and their z-derivatives as ScaledArrays.

    Vectorized over z (complex); nu is a scalar real order >= 0.
    Derivatives use f' = f_{nu-1} - (nu+1)/z * f_nu.  Each element gets
    exactly the values of a call on that element alone.
    """
    if nu < 0:
        raise ValueError("order must be >= 0")
    if nu > MAX_ORDER:
        raise ValueError(f"order {nu} exceeds MAX_ORDER={MAX_ORDER}")
    z, scalar = _as_z_array(z)
    if np.any(z == 0):
        raise ZeroDivisionError("sph_jy requires z != 0 (y is singular there)")
    base = nu - math.floor(nu)
    j_below, j_at = _j_pair(nu, z, base)
    y_below, y_at = _upward_y(nu, z, base)
    inv_z = ScaledArray.from_complex(1.0 / z)
    dj = j_below - (nu + 1.0) * (j_at * inv_z)
    dy = y_below - (nu + 1.0) * (y_at * inv_z)
    out = {"j": j_at, "dj": dj, "y": y_at, "dy": dy,
           "j_prev": j_below, "y_prev": y_below}
    if scalar:
        out = {k: v[0:1] for k, v in out.items()}
    return out


def hat_jy(nu: float, z) -> dict:
    """Growth-normalized pair: jhat = (2nu+1)!! j, yhat = -y/(2nu-1)!!.

    Near zero argument jhat(t) ~ t^nu and yhat(t) ~ t^(-nu-1), which keeps
    high-order coefficients meaningful.  Returns ScaledArrays for the values
    and their z-derivatives.
    """
    raw = sph_jy(nu, z)
    lp = log_dfact_plus(nu) / _LN10
    lm = log_dfact_minus(nu) / _LN10
    return {
        "j": raw["j"].scale10(lp),
        "dj": raw["dj"].scale10(lp),
        "y": (-raw["y"]).scale10(-lm),
        "dy": (-raw["dy"]).scale10(-lm),
    }


def hat_h1(nu: float, z) -> dict:
    """Outgoing radial function hhat = i h1 / (2nu-1)!! and its derivative.

    Shares the small-argument normalization of yhat: hhat(t) ~ t^(-nu-1).
    """
    raw = sph_jy(nu, z)
    lm = log_dfact_minus(nu) / _LN10
    h = (1j * raw["j"] - raw["y"]).scale10(-lm)
    dh = (1j * raw["dj"] - raw["dy"]).scale10(-lm)
    return {"h": h, "dh": dh}


def wronskian_residual(n: float, r: float) -> float:
    """|j_n y_n' - j_n' y_n - 1/r^2| via recurrence derivatives, scaled."""
    if r <= 0:
        raise ValueError("argument must be > 0")
    vals = sph_jy(float(n), complex(r))
    w = vals["j"] * vals["dy"] - vals["dj"] * vals["y"]
    resid = w - (1.0 / r ** 2)
    return float(np.abs(resid.to_complex())[0])
