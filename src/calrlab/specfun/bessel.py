"""Spherical Bessel machinery for complex arguments and real order.

Strategy, in brief: j is computed by the ascending series for small |z|
and by scaled downward (Miller) recurrence otherwise, anchored at whichever
of the two lowest orders is farther from a zero; y is computed by scaled
upward recurrence from closed-form seeds (integer order) or series seeds
obtained through the reflection formula (fractional order).  Downward for
j / upward for y is forced by which solution is recessive or dominant as
the order grows at fixed argument.

The order is a scalar or an array of z's shape; a scalar is broadcast,
so there is one order per element and one path.  Every decision is made
per element, in the order as well as in z: the series stops on each
element's own term, the series/Miller switch reads each element's own |z|,
Miller starts each element at the order its own (order, |z|) calls for and
keeps its values at that element's own order, upward y takes each
element's own number of steps, and each element's order picks trig or
reflection seeds.  Elements past their own stop are left out of the
arithmetic, so they raise no floating-point warning.  Per-order constants
(lgamma prefactors, log double factorials, the split factors each order
multiplies by) are computed once per distinct order, on a Python float,
and gathered.  So each element of a batched call gets exactly the
values of a call on its own order and argument alone, whatever else is in
the batch, and a table of many orders costs one call.

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
# The reflection formula that seeds y at a fractional order divides by
# sin(pi (nu + 1/2)), which vanishes at half-integer orders; orders where
# it is this small are rejected up front, by the order asked for.
_HALF_INTEGER_TOL = 1e-8
_HALF_INTEGER = ("too close to half-integer for the reflection formula; "
                 "perturb the order slightly")


def log_dfact_plus(nu: float) -> float:
    """ln((2*nu+1)!!), continued to real nu via the Gamma function."""
    return (nu + 1.0) * math.log(2.0) + math.lgamma(nu + 1.5) - 0.5 * math.log(math.pi)


def log_dfact_minus(nu: float) -> float:
    """ln((2*nu-1)!!), continued to real nu via the Gamma function."""
    return nu * math.log(2.0) + math.lgamma(nu + 0.5) - 0.5 * math.log(math.pi)


def _orders(nu, shape) -> np.ndarray:
    """The checked orders, a float array of the argument's shape: a scalar
    order is broadcast to it, and an order array must have it.  A rule runs
    only once every order has passed the ones before it, so np.sin never
    meets a non-finite order."""
    given = np.asarray(nu, dtype=float)
    if given.shape not in ((), shape):
        raise ValueError(f"order array of shape {given.shape} does not match the "
                         f"argument's shape {shape}")
    flat = given.ravel()
    for ok, what in ((np.isfinite, "is not finite"), (lambda o: o >= 0, "must be >= 0"),
                     (lambda o: o <= MAX_ORDER, f"exceeds MAX_ORDER={MAX_ORDER}"),
                     (lambda o: np.abs(np.sin(np.pi * (o + 0.5))) >= _HALF_INTEGER_TOL,
                      _HALF_INTEGER)):
        bad = ~ok(flat)
        if bad.any():
            if what == "must be >= 0" and not given.ndim:
                raise ValueError("order must be >= 0")  # a scalar's message names no order
            raise ValueError(f"order {flat[bad][0]} {what}")
    return np.broadcast_to(given, shape)


def _each(nu, fn):
    """fn(order) at each element's order, where fn returns a float, a 0-d
    ScaledArray or a tuple of either: one fn call per distinct order, on a
    Python float, gathered to nu's shape.  numpy's array loops for log10
    and power may differ from its scalar ones in the last bit, so a
    per-order constant is never computed on an array.  With no element,
    fn(0.0) only gives the empty tables their types."""
    orders, at = np.unique(nu, return_inverse=True)
    at = at.reshape(nu.shape)
    vals = [fn(o) for o in orders.tolist()] or [fn(0.0)]

    def gather(col):
        if isinstance(col[0], ScaledArray):
            return ScaledArray(np.array([v.m for v in col])[at],
                               np.array([v.e for v in col])[at], normalize=False)
        return np.array(col)[at]

    if isinstance(vals[0], tuple):
        return tuple(gather(col) for col in zip(*vals))
    return gather(vals)


def _merge(mask: np.ndarray, a: ScaledArray, b: ScaledArray) -> ScaledArray:
    """Scatter: a's values where mask holds and b's elsewhere, where a and b
    hold only the elements they fill (unlike ScaledArray.where)."""
    m = np.empty(mask.shape, dtype=complex)
    e = np.empty(mask.shape, dtype=np.int64)
    m[mask], e[mask] = a.m, a.e
    m[~mask], e[~mask] = b.m, b.e
    return ScaledArray(m, e, normalize=False)


def _split_call(mask, f_true, f_false, *args):
    """f_true on the elements where mask holds and f_false on the others,
    merged; args are per-element arrays or ScaledArrays, and each f returns
    a ScaledArray or a tuple of them."""
    if np.all(mask):
        return f_true(*args)
    if not np.any(mask):
        return f_false(*args)
    a = f_true(*(x[mask] for x in args))
    b = f_false(*(x[~mask] for x in args))
    if isinstance(a, ScaledArray):
        return _merge(mask, a, b)
    return tuple(_merge(mask, x, y) for x, y in zip(a, b))


def _descending(counts: np.ndarray):
    """(rank, back, live) for a loop over k = 0 .. max(counts) that works on
    the elements whose count is at least k: rank orders the elements by
    descending count (back undoes it), so that those are the first live[k]."""
    top = int(counts.max())
    if counts.min() == top:
        return slice(None), slice(None), np.full(top + 1, len(counts))
    rank = np.argsort(-counts, kind="stable")
    back = np.empty_like(rank)
    back[rank] = np.arange(len(rank))
    return rank, back, np.cumsum(np.bincount(counts, minlength=top + 1)[::-1])[::-1]


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
        # out of place: numpy's in-place complex multiply rounds a one-element
        # array differently from a longer one
        term = term * zsq4 / denom(k)
        np.add(acc, term, out=acc, where=live)
        live &= np.abs(term) > 1e-18 * np.maximum(np.abs(acc), 1e-300)
        if not live.any():
            break
    return acc


def _series_j(nu, z: np.ndarray) -> ScaledArray:
    """Ascending series for j_nu, valid for nu > -3/2 and z != 0, scaled output.

    j_nu(z) = (sqrt(pi)/2) (z/2)^nu sum_k (-z^2/4)^k / (k! Gamma(k+nu+3/2)).
    Terms are updated recursively so no large Gamma values appear.
    """
    if np.any(nu <= -1.5):
        raise ValueError(f"series invalid for order {np.min(nu)}")
    if np.any(np.abs(z) > _SERIES_MAX_Z):
        raise ValueError(f"ascending series unreliable for |z| > {_SERIES_MAX_Z:g}")
    out = ScaledArray.from_complex(_ascending_sum(-(z * z) / 4.0, lambda k: k * (k + nu + 0.5)))
    # prefactor (sqrt(pi)/2) (z/2)^nu / Gamma(nu+3/2), in log10 pieces
    logpref = _each(nu, lambda o: (0.5 * math.log(math.pi) - math.log(2.0)
                                   - math.lgamma(o + 1.5)) / _LN10)
    phase = np.exp(1j * nu * np.angle(z / 2.0))
    logmag = nu * np.log10(np.abs(z) / 2.0)
    return ScaledArray(out.m * phase, out.e).scale10(logmag + logpref)


def _series_rows(lo, hi, z: np.ndarray) -> tuple[ScaledArray, ScaledArray]:
    """The series j at orders lo and hi (one each per element), summed as
    the two rows of one `_series_j` call."""
    both = _series_j(np.stack([lo, hi]), np.stack([z, z]))
    return both[0], both[1]


def _reflection_constants(nu: float) -> tuple[float, float]:
    """Sign and log10 magnitude of sqrt(pi)/2 / Gamma(1/2 - nu), for the
    second series of the reflection formula.  g0 = 1/2 - nu is no pole of
    Gamma: `_orders` has rejected the half-integer orders."""
    g0 = 0.5 - nu
    # 1/Gamma(g0) with sign (g0 may be negative non-integer)
    sign = 1.0
    if g0 < 0:
        # reflection: Gamma(g0) = pi / (sin(pi g0) Gamma(1-g0))
        s = math.sin(math.pi * g0)
        sign = 1.0 if s > 0 else -1.0
        log_gamma = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - g0)
    else:
        log_gamma = math.lgamma(g0)
    return sign, (0.5 * math.log(math.pi) - math.log(2.0) - log_gamma) / _LN10


def _series_jminus_aux(nu, z: np.ndarray) -> ScaledArray:
    """sqrt(pi/(2z)) * J_{-(nu+1/2)}(z), the second series of the reflection.

    Equals (sqrt(pi)/2) (z/2)^(-nu-1) sum_k (-z^2/4)^k / (k! Gamma(k-nu+1/2)).
    """
    sign, logpref = _each(nu, _reflection_constants)
    zsq4 = -(z * z) / 4.0
    acc = _ascending_sum(zsq4, lambda k: k * (k - nu - 0.5))
    out = ScaledArray.from_complex(acc * sign)
    if np.any(z == 0):
        raise ZeroDivisionError("y-type series requires z != 0")
    phase = np.exp(-1j * (nu + 1.0) * np.angle(z / 2.0))
    logmag = -(nu + 1.0) * np.log10(np.abs(z) / 2.0)
    return ScaledArray(out.m * phase, out.e).scale10(logmag + logpref)


_TRIG_Y = {0: lambda z: -np.cos(z) / z,
           -1: lambda z: np.sin(z) / z,
           1: lambda z: -np.cos(z) / (z * z) - np.sin(z) / z}


def _trig_y(nu, z: np.ndarray) -> ScaledArray:
    """y at integer orders -1, 0 and 1, in closed form."""
    n = np.rint(nu).astype(np.int64)
    if np.any(np.abs(n) > 1):
        raise ValueError("trig seeds only cover orders -1, 0, 1")
    values = np.empty_like(z)
    for order, y in _TRIG_Y.items():
        at = n == order
        values[at] = y(z[at])
    return ScaledArray.from_complex(values)


def _reflection_factors(nu: float) -> tuple[ScaledArray, ScaledArray]:
    """cos(pi a) and 1/sin(pi a), a = nu + 1/2, of the reflection formula
    (`_orders` has rejected the orders where sin(pi a) nearly vanishes)."""
    a = nu + 0.5
    return (ScaledArray.from_complex(math.cos(math.pi * a)),
            ScaledArray.from_complex(1.0 / math.sin(math.pi * a)))


def _reflection_y(nu, z: np.ndarray) -> ScaledArray:
    """y_nu for fractional nu by the reflection formula."""
    cos_a, inv_sin = _each(nu, _reflection_factors)
    j = _series_j(nu, z)
    aux = _series_jminus_aux(nu, z)
    return (j * cos_a - aux) * inv_sin


def _series_y(nu, z: np.ndarray) -> ScaledArray:
    """y_nu by trig (integer nu <= 1) or the reflection formula (fractional
    nu), chosen per element."""
    return _split_call(np.abs(nu - np.round(nu)) < 1e-12, _trig_y, _reflection_y, nu, z)


def _trig_anchors(base, z: np.ndarray) -> tuple[ScaledArray, ScaledArray]:
    """j_0 and j_1 in closed form (z != 0)."""
    return (ScaledArray.from_complex(np.sin(z) / z),
            ScaledArray.from_complex(np.sin(z) / (z * z) - np.cos(z) / z))


def _below_from_above(ratio, below, above, j_at, nu, z) -> ScaledArray:
    # j_{nu-1} = (2nu+1)/z j_nu - j_{nu+1}, using downward data only
    two_nu1 = _each(nu, lambda o: ScaledArray.from_complex(2.0 * o + 1.0))
    return (j_at * ScaledArray.from_complex(1.0 / z)) * two_nu1 - above * ratio


def _miller_j(nu, z: np.ndarray, base) -> tuple[ScaledArray, ScaledArray]:
    """Scaled downward recurrence; returns j at orders (nu-1, nu).

    `base` is the fractional part of nu (the anchor order); anchoring is at
    base or base+1, whichever true value is larger elementwise, so zeros of
    the anchor do not poison the normalization.  Each element starts at the
    order its own order and |z| call for and keeps its values at its own
    order.  The recurrence runs on the elements in descending order of
    their starts, so the ones recurring at a step are a prefix; the others
    are not touched.
    """
    steps = np.rint(nu - base).astype(np.int64)
    tops = steps + np.maximum(24, np.ceil(1.1 * np.abs(z) - nu).astype(np.int64) + 24)
    rank, back, live = _descending(tops)
    zs, bs, steps_s = z[rank], base[rank], steps[rank]
    top = len(live) - 1
    fp = np.zeros_like(z)            # f_{k+1}
    fc = np.ones_like(z)             # f_k, arbitrary seed
    eoff = np.zeros(z.shape, dtype=np.int64)
    snap = {d: (np.zeros_like(z), np.zeros(z.shape, dtype=np.int64)) for d in (1, 0, -1)}
    levels = {s + d for s in set(steps.tolist()) for d in snap}
    for k in range(top, -1, -1):
        if k in levels:
            for d, (m, e) in snap.items():
                hit = steps_s + d == k
                np.copyto(m, fc, where=hit)
                np.copyto(e, eoff, where=hit)
        if k == 1:
            one = (fc.copy(), eoff.copy())
        if k == 0:
            break
        n = live[k]
        fm = (2.0 * (bs[:n] + k) + 1.0) / zs[:n] * fc[:n] - fp[:n]
        fp[:n] = fc[:n]
        fc[:n] = fm
        big = np.flatnonzero(np.abs(fc[:n]) > 1e250)
        if big.size:
            fc[big] *= 1e-250
            fp[big] *= 1e-250
            eoff[big] += 250

    def scaled(m, e):
        return ScaledArray(m[back], e[back])

    f0, f1 = scaled(fc, eoff), scaled(*one)
    # j at the anchor orders base and base + 1
    t0, t1 = _split_call(np.abs(base) < 1e-12, _trig_anchors,
                         lambda b, z: _series_rows(b, b + 1.0, z), base, z)
    # elementwise anchor choice by larger true magnitude
    use1 = t1.log10_abs() > t0.log10_abs()
    ratio = ScaledArray.where(use1, t1 / f1, t0 / f0)
    j_at = scaled(*snap[0]) * ratio
    j_below = _split_call(steps >= 1, lambda ratio, below, *_: below * ratio, _below_from_above,
                          ratio, scaled(*snap[-1]), scaled(*snap[1]), j_at, nu, z)
    return j_below, j_at


def _upward_y(nu, z: np.ndarray, base) -> tuple[ScaledArray, ScaledArray]:
    """Scaled upward recurrence; returns y at orders (nu-1, nu).

    Each element takes the steps of its own order.  The recurrence runs on
    the elements in descending order of their steps, so the ones still
    stepping are a prefix; the others are not touched.
    """
    steps = np.rint(nu - base).astype(np.int64)
    ym1 = _series_y(base - 1.0, z)
    y0 = _series_y(base, z)
    if not steps.any():
        return ym1, y0
    rank, back, live = _descending(steps)
    zs, bs = z[rank], base[rank]
    prev_m, prev_e = ym1.m[rank], ym1.e[rank]
    cur_m, cur_e = y0.m[rank], y0.e[rank]
    # align both registers to the larger exponent (never scales up)
    eoff = np.maximum(prev_e, cur_e)
    prev_m = prev_m * 10.0 ** np.clip((prev_e - eoff).astype(float), -400, 0)
    cur_m = cur_m * 10.0 ** np.clip((cur_e - eoff).astype(float), -400, 0)
    for k in range(len(live) - 1):
        n = live[k + 1]
        nxt = (2.0 * (bs[:n] + k) + 1.0) / zs[:n] * cur_m[:n] - prev_m[:n]
        prev_m[:n] = cur_m[:n]
        cur_m[:n] = nxt
        big = np.flatnonzero(np.abs(cur_m[:n]) > 1e250)
        if big.size:
            cur_m[big] *= 1e-250
            prev_m[big] *= 1e-250
            eoff[big] += 250
    y_below, y_at = ScaledArray(prev_m[back], eoff[back]), ScaledArray(cur_m[back], eoff[back])
    if steps.all():
        return y_below, y_at
    # an element with no step keeps its seeds, not their aligned copies
    seed = steps == 0
    return ScaledArray.where(seed, ym1, y_below), ScaledArray.where(seed, y0, y_at)


def _j_pair(nu, z: np.ndarray, base) -> tuple[ScaledArray, ScaledArray]:
    """j at orders (nu-1, nu): series where |z| <= 8, Miller elsewhere."""
    return _split_call(np.abs(z) <= _SERIES_CUTOFF,
                       lambda nu, z, base: _series_rows(nu - 1.0, nu, z), _miller_j, nu, z, base)


def _jy(nu, z) -> tuple[dict, np.ndarray]:
    """`sph_jy`, and its orders as `_orders` checked them, in the tables'
    shape."""
    z = np.asarray(z, dtype=complex)
    nu = _orders(nu, z.shape)
    if np.any(z == 0):
        raise ZeroDivisionError("sph_jy requires z != 0 (y is singular there)")
    shape = z.shape or (1,)     # a scalar argument gives one-element tables
    z, nu = z.ravel(), nu.ravel()
    base = nu - np.floor(nu)
    j_below, j_at = _j_pair(nu, z, base)
    y_below, y_at = _upward_y(nu, z, base)
    inv_z = ScaledArray.from_complex(1.0 / z)
    nu1 = _each(nu, lambda o: ScaledArray.from_complex(o + 1.0))
    dj = j_below - (j_at * inv_z) * nu1
    dy = y_below - (y_at * inv_z) * nu1
    out = {"j": j_at, "dj": dj, "y": y_at, "dy": dy,
           "j_prev": j_below, "y_prev": y_below}
    return {k: ScaledArray(v.m.reshape(shape), v.e.reshape(shape), normalize=False)
            for k, v in out.items()}, nu.reshape(shape)


def sph_jy(nu, z) -> dict:
    """j_nu, y_nu and their z-derivatives as ScaledArrays.

    Vectorized over z (complex).  nu is a real order >= 0: a scalar, or an
    array of z's shape giving each element its own order.  Derivatives use
    f' = f_{nu-1} - (nu+1)/z * f_nu.  Each element gets exactly the values
    of a call on its own order and argument alone.
    """
    return _jy(nu, z)[0]


def hat_jy(nu, z) -> dict:
    """Growth-normalized radial functions of one Bessel evaluation:
    jhat = (2nu+1)!! j, yhat = -y/(2nu-1)!! and the outgoing
    hhat = i h1 / (2nu-1)!! = (i j - y) / (2nu-1)!!, with their
    z-derivatives, under the keys j, dj, y, dy, h and dh.

    Near zero argument jhat(t) ~ t^nu and yhat(t), hhat(t) ~ t^(-nu-1),
    which keeps high-order coefficients meaningful.  Returns ScaledArrays;
    nu is a scalar or one order per element, as in `sph_jy`.  One call
    serves cells of either basis, so a table of inner and outgoing cells
    pays one dispatch.
    """
    raw, nu = _jy(nu, z)
    plus, minus = _each(nu, lambda o: (ScaledArray.pow10(log_dfact_plus(o) / _LN10),
                                       ScaledArray.pow10(-(log_dfact_minus(o) / _LN10))))
    return {
        "j": raw["j"] * plus,
        "dj": raw["dj"] * plus,
        "y": (-raw["y"]) * minus,
        "dy": (-raw["dy"]) * minus,
        "h": (1j * raw["j"] - raw["y"]) * minus,
        "dh": (1j * raw["dj"] - raw["dy"]) * minus,
    }


def hat_h1(nu, z) -> dict:
    """The outgoing keys h and dh of `hat_jy`: hhat = i h1 / (2nu-1)!!,
    which shares the small-argument normalization of yhat, and its
    derivative."""
    vals = hat_jy(nu, z)
    return {"h": vals["h"], "dh": vals["dh"]}
