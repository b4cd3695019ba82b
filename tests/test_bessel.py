"""Spherical Bessel machinery against independent oracles.

mpmath (50 digits) serves as the independent reference for values; the
ascending power series, written out inline, is the derived oracle for the
complex-argument case.
"""
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import calrlab
from calrlab.specfun import (
    hat_h1,
    hat_jy,
    sph_jy,
)
from calrlab.specfun.scaled import ScaledArray
from oracles import wronskian_residual

mp.mp.dps = 50


def mp_sph(kind, nu, z):
    z = mp.mpc(z)
    a = mp.mpf(nu) + mp.mpf(1) / 2
    pref = mp.sqrt(mp.pi / (2 * z))
    if kind == "j":
        return complex(pref * mp.besselj(a, z))
    if kind == "y":
        return complex(pref * mp.bessely(a, z))
    raise ValueError(kind)


def mp_sph_scaled_match(value_scaled, kind, nu, z, rtol):
    """Compare a ScaledArray element against mpmath in log space."""
    z = mp.mpc(z)
    a = mp.mpf(nu) + mp.mpf(1) / 2
    pref = mp.sqrt(mp.pi / (2 * z))
    ref = pref * (mp.besselj(a, z) if kind == "j" else mp.bessely(a, z))
    got_log = value_scaled.log10_abs()[0]
    ref_log = float(mp.log10(abs(ref)))
    assert got_log == pytest.approx(ref_log, abs=math.log10(1 + rtol) + 1e-13)
    # phase against the mantissa
    got_phase = np.angle(value_scaled.m[0])
    ref_phase = float(mp.arg(ref))
    dphi = (got_phase - ref_phase + math.pi) % (2 * math.pi) - math.pi
    assert abs(dphi) < rtol * 10 + 1e-12


def test_j0_at_pi_is_zero():
    # j0(z) = sin z / z
    assert abs(sph_jy(0.0, math.pi)["j"].to_complex()[0]) < 1e-15


def test_y0_at_half_pi_is_zero():
    # y0(z) = -cos z / z
    assert abs(sph_jy(0.0, math.pi / 2)["y"].to_complex()[0]) < 1e-15


def test_j5_complex_against_inline_series():
    # derived oracle: ascending series of j5 summed to machine precision
    z = 1 + 0.1j
    nu = 5
    acc = 0j
    term = 1.0 + 0j
    k = 0
    while abs(term) > 1e-25:
        if k > 0:
            term *= (-z * z / 4) / (k * (k + nu + 0.5))
        acc += term
        k += 1
    pref = math.sqrt(math.pi) / 2 * (z / 2) ** nu / math.gamma(nu + 1.5)
    expected = pref * acc
    got = sph_jy(5.0, z)["j"].to_complex()[0]
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60, 140, 200])
@pytest.mark.parametrize("z", [0.01, 0.3, 2.0, 9.5, 40.0, 351.0, 1000.0,
                               1 + 0.1j, 30 - 0.5j, -3.0 + 0.2j])
def test_jy_against_mpmath(n, z):
    vals = sph_jy(float(n), z)
    mp_sph_scaled_match(vals["j"], "j", n, z, 1e-10)
    mp_sph_scaled_match(vals["y"], "y", n, z, 1e-10)


@pytest.mark.parametrize("nu", [0.37, 1.62, 2.372281323269014, 7.81, 23.45])
@pytest.mark.parametrize("z", [0.2, 3.3, 12.0, 0.8 + 0.3j, 6.0 - 1.0j])
def test_fractional_order_against_mpmath(nu, z):
    vals = sph_jy(nu, z)
    mp_sph_scaled_match(vals["j"], "j", nu, z, 1e-8)
    mp_sph_scaled_match(vals["y"], "y", nu, z, 1e-8)


@pytest.mark.parametrize("nu", [0.37, 1.62, 2.372281323269014, 7.81])
@pytest.mark.parametrize("z", [19.9, 19.5 + 1.0j, 14.07 + 14.07j, -14.07 + 14.07j])
def test_fractional_order_just_below_series_bound(nu, z):
    # the ascending series seeds lose digits as |z| grows; just below the
    # bound where they raise they still hold 1e-6
    vals = sph_jy(nu, z)
    mp_sph_scaled_match(vals["j"], "j", nu, z, 1e-6)
    mp_sph_scaled_match(vals["y"], "y", nu, z, 1e-6)


def test_fractional_order_raises_beyond_series_bound():
    # at |z| = 40 the series seeds would be wrong in the first digit
    for z in (40.0, 40.0j, -28.0 + 28.0j):
        with pytest.raises(ValueError, match="ascending series unreliable"):
            sph_jy(0.3, z)
    sph_jy(3.0, 40.0)       # integer orders never use the series there


def _mp_sph_exact(kind, nu, z):
    a = mp.mpf(nu) + mp.mpf(1) / 2
    pref = mp.sqrt(mp.pi / (2 * z))
    return pref * (mp.besselj(a, z) if kind == "j" else mp.bessely(a, z))


def test_derivatives_match_mpmath_difference():
    # finite difference taken at 50-digit precision, converted at the end
    for nu, z in [(3.0, 2.5), (12.0, 0.7), (2.372281323269014, 4.0 + 0.2j)]:
        vals = sph_jy(nu, z)
        h = mp.mpf(1) / 10 ** 15
        for key, kind in (("dj", "j"), ("dy", "y")):
            ref = (_mp_sph_exact(kind, nu, mp.mpc(z) + h)
                   - _mp_sph_exact(kind, nu, mp.mpc(z) - h)) / (2 * h)
            got = vals[key].to_complex()[0]
            assert got == pytest.approx(complex(ref), rel=1e-9)


def test_wronskian_identity_reference_points():
    # (n=1, r=2): identity value 1/r^2 = 0.25
    assert wronskian_residual(1, 2.0) < 1e-12
    # (n=50, r=0.3): relative residual via log-scaled representation
    assert wronskian_residual(50, 0.3) / (1 / 0.3 ** 2) < 1e-10
    # (n=0, r=1): closed forms
    assert wronskian_residual(0, 1.0) < 1e-14


def test_wronskian_residual_full_grid():
    # invariant: relative residual < 1e-10 for n in [0,100], r in [1e-2,1e2]
    rs = np.logspace(-2, 2, 9)
    worst = 0.0
    for n in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100]:
        for r in rs:
            rel = wronskian_residual(n, float(r)) * r * r
            worst = max(worst, rel)
    assert worst < 1e-10


def test_normalized_small_argument_asymptotics():
    # jhat_n(r)/r^n -> 1 and yhat_n(r) * r^(n+1) -> 1, error O(1/n)
    r = 0.5
    for n in [5, 10, 30, 60]:
        jh = hat_jy(float(n), complex(r))
        dev_j = abs(jh["j"].scale10(-n * math.log10(r)).to_complex()[0] - 1.0)
        dev_y = abs(jh["y"].scale10((n + 1) * math.log10(r)).to_complex()[0] - 1.0)
        assert dev_j < 2.0 / n
        assert dev_y < 2.0 / n
    # yhat_30(0.5) * 0.5^31 within 5% of 1
    jh = hat_jy(30.0, complex(0.5))
    assert abs(jh["y"].scale10(31 * math.log10(0.5)).to_complex()[0] - 1.0) < 0.05


def test_normalized_asymptotics_envelope_with_fitted_constant():
    # fit c in |jhat_n(r)/r^n - 1| <= c/n over a grid, then check the envelope
    rs = [0.1, 0.3, 0.5, 0.8, 1.0]
    ns = np.arange(4, 80, 4)
    devs_j, devs_y = [], []
    for n in ns:
        for r in rs:
            jh = hat_jy(float(n), complex(r))
            devs_j.append(n * abs(jh["j"].scale10(-n * math.log10(r)).to_complex()[0] - 1.0))
            devs_y.append(n * abs(jh["y"].scale10((n + 1) * math.log10(r)).to_complex()[0] - 1.0))
    c_j, c_y = max(devs_j), max(devs_y)
    assert c_j < 1.0 and c_y < 1.0  # the O(1/n) constants are modest
    assert np.all(np.array(devs_j) <= c_j) and np.all(np.array(devs_y) <= c_y)


def test_jhat_n0_closed_form():
    # jhat_0(1) = 1!! * j0(1) = sin(1)
    assert hat_jy(0.0, 1.0)["j"].to_complex()[0] == pytest.approx(math.sin(1.0), rel=1e-14)


def test_jhat_n1_small_r_limit():
    # jhat_1(r)/r -> 1 as r -> 0+
    for r in [1e-2, 1e-4, 1e-6]:
        assert hat_jy(1.0, r)["j"].to_complex()[0] / r == pytest.approx(1.0, abs=1e-4)


def test_hat_wronskian_closed_form():
    # jhat yhat' - jhat' yhat = -(2nu+1)/z^2
    for nu, z in [(3.0, 1.7), (40.0, 0.4), (2.372281323269014, 2.0 + 0.1j)]:
        v = hat_jy(nu, z)
        w = (v["j"] * v["dy"] - v["dj"] * v["y"]).to_complex()[0]
        assert w == pytest.approx(-(2 * nu + 1) / complex(z) ** 2, rel=1e-10)


def test_hankel_ode_residual():
    # h1_n satisfies the spherical Bessel ODE under exact-recurrence derivatives
    for n in [1, 4, 9, 33]:
        for z in [0.7, 5.0, 60.0, 2.0 + 0.4j]:
            z = complex(z)
            lo = sph_jy(float(n), z)
            h = lo["j"] + 1j * lo["y"]
            dh = lo["dj"] + 1j * lo["dy"]
            # second derivative from the ODE-free recurrences:
            # f'' = ((n(n+1)/z^2 - 1) f - 2 f'/z) must make the residual ~ 0;
            # instead check via the first-order system at neighboring orders
            below = lo["j_prev"] + 1j * lo["y_prev"]
            # f' = f_{n-1} - (n+1)/z f  (defining relation, used internally)
            lhs = dh.to_complex()[0]
            rhs = (below - (n + 1) / z * h).to_complex()[0]
            assert lhs == pytest.approx(rhs, rel=1e-12)
            # ODE residual with d2 from derivative of the recurrence:
            vals_up = sph_jy(float(n + 1), z)
            hp = vals_up["j"] + 1j * vals_up["y"]
            # f_{n}' known; f''_n = f'_{n-1} - (n+1)/z f'_n + (n+1)/z^2 f_n
            dbelow = (lo["j_prev"] * 0)  # placeholder, computed next
            v_bel = sph_jy(float(n - 1), z) if n >= 1 else None
            dbel = v_bel["dj"] + 1j * v_bel["dy"]
            d2 = (dbel - (n + 1) / z * dh + (n + 1) / z ** 2 * h).to_complex()[0]
            f = h.to_complex()[0]
            df = dh.to_complex()[0]
            resid = d2 + 2 / z * df + (1 - n * (n + 1) / z ** 2) * f
            scale = abs(d2) + abs(2 / z * df) + abs(f)
            assert abs(resid) / scale < 1e-8


def test_overflow_guard_returns_scaled_pair():
    out = sph_jy(300.0, 0.05)["y"]
    # far beyond the double range, which the scaled pair still holds
    assert out.e[0] > 308
    # check against mpmath in log space
    ref = mp.sqrt(mp.pi / (2 * mp.mpf("0.05"))) * mp.bessely(mp.mpf("300.5"), mp.mpf("0.05"))
    assert out.log10_abs()[0] == pytest.approx(float(mp.log10(abs(ref))), rel=1e-12)


def test_overflow_collapses_to_signed_inf_with_zero_imaginary_part():
    out = sph_jy(300.0, 0.05)["y"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = out.to_complex()
    assert value[0].real == -math.inf
    assert value[0].imag == 0.0


def test_order_out_of_range():
    with pytest.raises(ValueError, match="MAX_ORDER"):
        sph_jy(2000.0, 1.0)


def test_scaled_array_algebra():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    sa, sb = ScaledArray.from_complex(a), ScaledArray.from_complex(b)
    assert np.allclose((sa * sb).to_complex(), a * b)
    assert np.allclose((sa + sb).to_complex(), a + b)
    assert np.allclose((sa - sb).to_complex(), a - b)
    assert np.allclose((sa / sb).to_complex(), a / b)
    big = sa.scale10(500)
    assert np.allclose((big / big.copy()).to_complex(), np.ones(5))
    assert np.allclose(big.scale10(-500).to_complex(), a)


def _region_arguments(medium, r_s, n, pol, omega):
    """(region, nu, k r at the region's finite ends) for every bounded region."""
    from calrlab.layered_maxwell.solver import _build_regions, _mode_constants
    regions, _ = _build_regions(medium, r_s)
    nu, k, *_ = _mode_constants(regions, [(n, pol)], omega)
    for i, reg in enumerate(regions[:-1]):
        ends = [r for r in (reg.r_lo, reg.r_hi) if r > 0]
        yield i, float(nu[i, 0]), complex(k[i, 0]) * np.asarray(ends)


def _sweep_stacks():
    from calrlab.layered_maxwell import staircase
    from calrlab.media import make_dcm_example
    return {
        "p2_96_layers": (staircase(make_dcm_example(1.0, 2.0, 2.0, 1e-3), 96), 5.0, 1.0),
        # fractional orders in the shell, |kr| up to 15.5: the Miller path
        "p3_lossless_16_layers": (staircase(make_dcm_example(1.0, 2.0, 3.0, 0.0), 16),
                                  9.0, 1.0),
        "p2_omega3_16_layers": (staircase(make_dcm_example(1.0, 2.0, 2.0, 1e-2), 16),
                                5.0, 3.0),
    }


@pytest.mark.parametrize("stack", ["p2_96_layers", "p3_lossless_16_layers",
                                   "p2_omega3_16_layers"])
def test_grouped_sweep_matches_per_region_calls(stack):
    # one hat_jy call per order over every region's ends gives each region
    # exactly the bits of a call on its ends alone
    medium, r_s, omega = _sweep_stacks()[stack]
    orders_seen, zmax = set(), 0.0
    for n in (1, 5, 12):
        for pol in ("TE", "TM"):
            by_order = {}
            for i, nu, z in _region_arguments(medium, r_s, n, pol, omega):
                by_order.setdefault(nu, []).append((i, z))
            orders_seen.add(len(by_order))
            for nu, members in by_order.items():
                z_all = np.concatenate([z for _, z in members])
                zmax = max(zmax, float(np.max(np.abs(z_all))))
                batch = hat_jy(nu, z_all)
                start = 0
                for i, z in members:
                    alone = hat_jy(nu, z)
                    for name in ("j", "dj", "y", "dy"):
                        got = batch[name][start:start + len(z)]
                        assert np.array_equal(got.m, alone[name].m), (n, pol, i, name)
                        assert np.array_equal(got.e, alone[name].e), (n, pol, i, name)
                    start += len(z)
    if stack == "p3_lossless_16_layers":
        assert orders_seen == {2} and zmax > 8.0
    elif stack == "p2_omega3_16_layers":
        assert zmax > 8.0


def _assert_elementwise(nu, z):
    """Each element of a batched call equals a call on that element alone."""
    z = np.asarray(z, dtype=complex)
    for fn, names in ((hat_jy, ("j", "dj", "y", "dy", "h", "dh")), (hat_h1, ("h", "dh"))):
        batch = fn(nu, z)
        for i in range(len(z)):
            alone = fn(nu, z[i:i + 1])
            for name in names:
                got = batch[name][i:i + 1]
                assert np.array_equal(got.m, alone[name].m), (fn.__name__, i, name)
                assert np.array_equal(got.e, alone[name].e), (fn.__name__, i, name)


# Re j_0 vanishes at z = 3.1135... + 0.3i, so the terms a batch with
# |z| = 7.9 still adds after this element's own stop would change its bits
_RE_J0_ZERO = [3.113530995280409 + 0.3j, 7.9, 0.4 - 0.1j]


def test_grouped_series_stops_per_group():
    _assert_elementwise(0.0, _RE_J0_ZERO)


# Random arguments for integer and fractional orders, |z| on both sides of
# the series/Miller switch at 8, anywhere in the upper half-plane (the
# branch Im k >= 0 at r > 0).  Derandomized, so every run draws the same
# examples; the two pinned examples hold the cases draws may miss.  Orders
# with |sin(pi (nu + 1/2))| < 1e-8, next to a half-integer, are rejected
# with a ValueError (the reflection formula divides by it), so none are
# drawn.
_orders = st.one_of(st.integers(0, 16).map(float),
                    st.floats(0.05, 16.0).filter(
                        lambda v: abs(math.sin(math.pi * (v + 0.5))) >= 1e-8))
_arguments = st.lists(
    st.tuples(st.floats(0.05, 20.0), st.floats(0.0, math.pi)).map(
        lambda t: complex(t[0] * math.cos(t[1]), t[0] * math.sin(t[1]))),
    min_size=1, max_size=12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@example(nu=0.0, z=_RE_J0_ZERO)
@example(nu=3.3, z=[7.9, 8.1 + 0.2j, -5.0 + 6.5j, 3.0 + 4.0j, 15.0, 0.6 + 0.1j])
@given(nu=_orders, z=_arguments)
def test_grouped_calls_match_per_group_calls(nu, z):
    _assert_elementwise(nu, z)


# One order per element: a batch mixes integer orders 0-40 (|z| up to 30,
# past the series/Miller switch at 8) with fractional orders on two bases
# (|z| below the series bound of 20 they need), so that orders sharing a
# base anchor and recur together.  Every element must get exactly the bits
# of a scalar call on its own (order, argument): its own series stop,
# Miller start, snapshots, upward steps and seeds, and per-order constants
# computed on a Python float.  The pinned example holds a zero of Re j_0
# next to high orders whose series run longer, orders 10 and 12, whose
# array-computed scale factors would differ in the last bit, and two
# elements in the Miller range with different starts.
_bases = st.floats(0.05, 0.95).filter(lambda v: abs(v - 0.5) > 1e-6)


def _mixed_cells(base1, base2, draws):
    cells = []
    for kind, order, offset, radius, angle in draws:
        if kind == "integer":
            nu, r = float(order), 30.0 * radius
        else:
            nu, r = (base1 if kind == "first" else base2) + offset, 19.5 * radius
        cells.append((nu, complex(r * math.cos(angle), r * math.sin(angle))))
    return cells


_draws = st.lists(
    st.tuples(st.sampled_from(["integer", "first", "second"]), st.integers(0, 40),
              st.integers(0, 16), st.floats(0.002, 1.0), st.floats(0.0, math.pi)),
    min_size=1, max_size=8)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
# one integer order on every element, on both sides of the series/Miller
# switch (the layout of a staircased DCM pass), and an empty argument
@example(cells=[(3.0, 0.5), (3.0, 7.9 + 0.2j), (3.0, 12.0), (3.0, -20.0 + 9.0j)])
@example(cells=[])
@example(cells=[(0.0, 3.113530995280409 + 0.3j), (12.0, 7.9), (10.0, 0.4 - 0.1j),
                (40.0, 25.0 + 3.0j), (2.0, 9.5), (3.3, 8.1 + 0.2j), (4.3, 0.6 + 0.1j),
                (0.3, -14.0 + 6.5j)])
@given(cells=st.builds(_mixed_cells, _bases, _bases, _draws))
def test_order_arrays_match_scalar_calls(cells):
    nu = np.array([c[0] for c in cells])
    z = np.array([c[1] for c in cells])
    for fn in (sph_jy, hat_jy, hat_h1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = fn(nu, z)
        for i in range(len(z)):
            alone = fn(float(nu[i]), z[i:i + 1])
            for name, v in alone.items():
                got = batch[name][i:i + 1]
                assert np.array_equal(got.m, v.m), (fn.__name__, i, name)
                assert np.array_equal(got.e, v.e), (fn.__name__, i, name)


_BATCH_Z = np.array([0.5, 2.0 + 0.1j, 9.0])


def _in_array(bad):
    """An order array for _BATCH_Z whose middle element is bad."""
    return np.array([1.0, bad, 2.0])


# each order rule holds for a scalar order and for one element of an order
# array alike
_AS_SCALAR_OR_IN_ARRAY = pytest.mark.parametrize(
    "as_order", [float, _in_array], ids=["scalar", "array"])


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
@_AS_SCALAR_OR_IN_ARRAY
def test_rejects_a_non_finite_order(as_order, fn):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"order {bad} is not finite"):
            fn(as_order(bad), _BATCH_Z)


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
def test_empty_argument_gives_empty_tables(fn):
    # a scalar order (integer, fractional or high) or an empty order
    # array; every table takes the argument's shape, with no warning
    empty = np.array([])
    for nu, z in ((1.0, empty), (2.3, empty), (14.0, empty), (empty, empty),
                  (1.0, np.zeros((2, 0), dtype=complex))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(nu, z)
        assert out
        for v in out.values():
            assert v.m.shape == v.e.shape == z.shape


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
@pytest.mark.parametrize("order, message", [
    (-1.0, "order must be >= 0"),         # a scalar's message names no order
    (_in_array(-0.5), r"order -0.5 must be >= 0"),
], ids=["scalar", "array"])
def test_rejects_a_negative_order(order, message, fn):
    with pytest.raises(ValueError, match=message):
        fn(order, _BATCH_Z)


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
@_AS_SCALAR_OR_IN_ARRAY
def test_rejects_an_order_above_max_order(as_order, fn):
    with pytest.raises(ValueError, match=r"order 2000.0 exceeds MAX_ORDER=1500"):
        fn(as_order(2000.0), _BATCH_Z)


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
def test_half_integer_order_is_rejected_by_its_own_name(fn):
    # the reflection formula behind fractional-order y divides by
    # sin(pi (nu + 1/2)); the message names the order asked for, not the
    # seed order the recurrence would start from
    for bad in (0.5, 1.5, 2.5, 40.5, 2.5 + 1e-12):
        with pytest.raises(ValueError, match=f"order {bad} too close to half-integer"):
            fn(bad, np.array([1.0]))
        with pytest.raises(ValueError, match=f"order {bad} too close to half-integer"):
            fn(np.array([1.0, bad, 2.3]), _BATCH_Z)
    # integer orders and fractional ones off the half-integers pass
    for ok in (0.0, 1.0, 2.0, 2.49, 2.5 + 1e-6):
        fn(ok, _BATCH_Z)
    fn(np.array([1.0, 2.49, 3.0]), _BATCH_Z)


@pytest.mark.parametrize("fn", [sph_jy, hat_jy, hat_h1])
def test_order_array_must_have_the_arguments_shape(fn):
    for nu, z in ((np.array([1.0, 2.0]), _BATCH_Z), (np.array([1.0, 2.0]), 0.5),
                  (np.ones((3, 1)), _BATCH_Z)):
        with pytest.raises(ValueError, match="order array of shape"):
            fn(nu, z)


def test_no_call_imports_numpy_ma():
    # a bare np.unique (no return_* flag) imports numpy.ma on first use,
    # which raises peak memory; series, Miller, trig-seed and
    # reflection-seed elements, under a scalar order and an order array
    code = ("import sys; import numpy as np; from calrlab.specfun import hat_jy; "
            "before = 'numpy.ma' in sys.modules; "
            "hat_jy(3.0, [12.0, 30.0]); hat_jy(2.3, [0.5, 9.0 + 1.0j]); "
            "hat_jy(np.array([0.0, 3.0, 14.0, 0.3, 2.3]), "
            "np.array([0.5, 12.0, 30.0 + 2.0j, 1.5, 9.0])); "
            "print(before, 'numpy.ma' in sys.modules)")
    src = str(Path(calrlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False", "False"]
