"""Modal norms, far-field flux, Data functional, and the energy identity."""
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calrlab.layered_maxwell import (
    SurfaceCurrentSource,
    adaptive_gauss,
    data_quantity,
    eval_field,
    eval_field_many,
    farfield_flux,
    l2_norm_annulus,
    l2_norm_annulus_diff,
    mode,
    mode_radial_components,
    second_order_residual,
    solve,
    staircase,
    sweep_norms,
)
from calrlab.media import make_dcm_example, vacuum_medium
from calrlab.specfun import sphere_rule
from layered_cases import eps_ne_mu_solution


def _mixed_source(r_s=5.0, n_hi=3):
    amps = {}
    rng = np.random.default_rng(42)
    for n in range(1, n_hi + 1):
        for m in range(-n, n + 1):
            for pol in ("TE", "TM"):
                amps[mode(n, m, pol)] = complex(rng.standard_normal(),
                                                rng.standard_normal()) / n
    return SurfaceCurrentSource(radius=r_s, amplitudes=amps)


def test_l2_norm_against_brute_tensor_quadrature():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 1, "TE"): 1.0,
                                                       mode(2, 0, "TM"): 0.8j})
    sol = solve(vacuum_medium(), src, 1.0)
    a, b = 1.0, 2.0
    modal = l2_norm_annulus(sol, a, b)
    # brute force: radial Gauss x sphere rule on |E|^2 + |H|^2
    nodes, weights = np.polynomial.legendre.leggauss(24)
    rr = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    wr = 0.5 * (b - a) * weights
    pts, w, _, _ = sphere_rule(24)
    total = 0.0
    for r, wr_i in zip(rr, wr):
        e, h = eval_field_many(sol, r * pts)
        dens = np.sum(np.abs(e) ** 2 + np.abs(h) ** 2, axis=1)
        total += wr_i * r * r * float(np.sum(w * dens))
    assert modal == pytest.approx(math.sqrt(total), rel=1e-6)


def test_l2_norm_zero_field_and_additivity():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 0.0})
    sol = solve(vacuum_medium(), src, 1.0)
    assert l2_norm_annulus(sol, 1.0, 2.0) == 0.0
    src2 = _mixed_source(n_hi=2)
    sol2 = solve(vacuum_medium(), src2, 1.0)
    n_ab = l2_norm_annulus(sol2, 1.0, 2.0) ** 2
    n_bc = l2_norm_annulus(sol2, 2.0, 3.0) ** 2
    n_ac = l2_norm_annulus(sol2, 1.0, 3.0) ** 2
    assert n_ab + n_bc == pytest.approx(n_ac, rel=1e-8)


def test_farfield_flux_against_large_radius_quadrature():
    src = SurfaceCurrentSource(radius=2.0, amplitudes={mode(1, 0, "TE"): 1.0,
                                                       mode(2, 1, "TM"): 0.5 + 0.5j})
    sol = solve(vacuum_medium(), src, 1.0)
    closed = farfield_flux(sol)
    # oracle: surface quadrature of omega |H|^2 at R in {100, 1000},
    # Richardson-extrapolated in 1/R (error is O(1/R^2) with oscillation;
    # average two radii a quarter-wave apart to kill the cross term)
    pts, w, _, _ = sphere_rule(24)

    def flux_at(radius):
        _, h = eval_field_many(sol, radius * pts)
        dens = np.sum(np.abs(h) ** 2, axis=1)
        return sol.omega * radius ** 2 * float(np.sum(w * dens))

    omega = sol.omega
    quarter = math.pi / (2 * omega)
    for base in (100.0, 400.0):
        est = 0.5 * (flux_at(base) + flux_at(base + quarter))
        assert est == pytest.approx(closed, rel=5e-3 / base * 100)
    # flux is R-independent beyond tolerance (limit definition)
    est1 = 0.5 * (flux_at(100.0) + flux_at(100.0 + quarter))
    est2 = 0.5 * (flux_at(400.0) + flux_at(400.0 + quarter))
    assert est1 == pytest.approx(est2, rel=1e-3)


def test_zero_field_flux():
    src = SurfaceCurrentSource(radius=2.0, amplitudes={mode(1, 0, "TE"): 0.0})
    sol = solve(vacuum_medium(), src, 1.0)
    assert farfield_flux(sol) == 0.0


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
def test_energy_identity_closure(delta):
    # (1/delta)|Im int i omega J conj E + Im I(H)| must reproduce the
    # Im-weighted lossy-layer norm exactly (divergence identity); the
    # cancellation in the numerator loses digits like 1/delta, so the small
    # deltas check that the closure still holds to 1e-6
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=delta), 24)
    src = _mixed_source(n_hi=3)
    sol = solve(med, src, 1.0)
    rep = data_quantity(sol, delta)
    assert rep.energy_ratio == pytest.approx(1.0, rel=1e-6)


def test_data_quantity_vacuum_pairing_closes():
    # without absorption the 1/delta term is pure roundoff
    src = _mixed_source(n_hi=2)
    sol = solve(vacuum_medium(), src, 1.0)
    rep = data_quantity(sol, 1e-3)
    scale = max(abs(rep.flux_im), rep.j_norm_sq)
    assert abs(rep.pairing_im + rep.flux_im) / 1e-3 < 1e-9 * scale / 1e-3
    assert rep.value == pytest.approx(rep.j_norm_sq, rel=1e-6)


def test_data_quantity_zero_source():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 0.0})
    sol = solve(vacuum_medium(), src, 1.0)
    rep = data_quantity(sol, 1e-3)
    assert rep.value == 0.0


def test_data_stability_ratio_bounded_over_sweep():
    # ||(E,H)||^2_shell / Data: the measured constant of the a-priori bound
    # must stay finite and essentially flat across the loss sweep
    src = _mixed_source(n_hi=2)
    ratios = []
    for delta in (1e-5, 1e-4, 1e-3, 1e-2):
        med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=delta), 16)
        sol = solve(med, src, 1.0)
        rep = data_quantity(sol, delta)
        ratios.append(l2_norm_annulus(sol, 1.0, 2.0) ** 2 / rep.value)
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.1


def test_second_order_residual_vacuum():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    pts = np.array([[1.2, 0.5, -0.7], [0.4, 1.5, 0.9]])
    for a in (0, 1, 2):
        assert second_order_residual(sol, a, pts, h=1e-3) < 1e-4
    # zero field -> 0
    src0 = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 0.0})
    sol0 = solve(vacuum_medium(), src0, 1.0)
    assert second_order_residual(sol0, 0, pts, h=1e-3) == 0.0


def test_second_order_residual_interface_guard():
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    sol = solve(vacuum_medium(), src, 1.0)
    with pytest.raises(ValueError):
        second_order_residual(sol, 0, np.array([[4.9999, 0, 0]]), h=1e-3)


def test_diff_norm_matches_direct_subtraction():
    src = _mixed_source(n_hi=2)
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 16)
    sol_a = solve(med, src, 1.0)
    sol_b = solve(vacuum_medium(), src, 1.0)
    dn = l2_norm_annulus_diff(sol_a, sol_b, 4.0, 6.0)
    # brute check at modest quadrature
    nodes, weights = np.polynomial.legendre.leggauss(20)
    rr = 5.0 + nodes
    wr = weights
    pts, w, _, _ = sphere_rule(16)
    total = 0.0
    for r, wr_i in zip(rr, wr):
        ea, ha = eval_field_many(sol_a, r * pts)
        eb, hb = eval_field_many(sol_b, r * pts)
        dens = np.sum(np.abs(ea - eb) ** 2 + np.abs(ha - hb) ** 2, axis=1)
        total += wr_i * r * r * float(np.sum(w * dens))
    assert dn == pytest.approx(math.sqrt(total), rel=1e-4)


def test_diff_norm_rejects_differing_source_tables():
    src = _mixed_source(n_hi=2)
    sol = solve(vacuum_medium(), src, 1.0)
    scaled = SurfaceCurrentSource(
        radius=5.0, amplitudes={k: 2.0 * a for k, a in src.amplitudes.items()})
    fewer = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    for other in (scaled, fewer):
        with pytest.raises(ValueError, match="identical source tables"):
            l2_norm_annulus_diff(sol, solve(vacuum_medium(), other, 1.0), 4.0, 6.0)


def test_diff_norm_rejects_annulus_where_media_differ():
    src = _mixed_source(n_hi=2)
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 8)
    sol_a = solve(med, src, 1.0)
    sol_b = solve(vacuum_medium(), src, 1.0)
    with pytest.raises(ValueError, match="media differ"):
        l2_norm_annulus_diff(sol_a, sol_b, 1.0, 3.0)


def test_adaptive_gauss_raises_when_not_converged():
    assert adaptive_gauss(lambda x: x * x, 0.0, 1.0, max_doublings=2) == \
        pytest.approx(1.0 / 3.0, rel=1e-14)
    with pytest.raises(RuntimeError, match="not converged"):
        adaptive_gauss(lambda x: np.cos(500.0 * x), 0.0, 1.0, max_doublings=2)


def test_adaptive_gauss_evaluates_the_first_two_estimates_in_one_call():
    shapes = []

    def fn(x):
        shapes.append(x.shape)
        return x * x

    adaptive_gauss(fn, 0.0, 1.0)
    assert shapes == [(3, 16)]          # one panel, then two, in one call
    shapes.clear()
    with pytest.raises(RuntimeError, match="not converged"):
        adaptive_gauss(lambda x: fn(np.cos(500.0 * x)), 0.0, 1.0, max_doublings=3)
    assert shapes == [(3, 16), (4, 16), (8, 16)]


def _one_interval_reference(fn, a, b, max_doublings=10):
    """The single-interval panel doubling the quadrature has always done:
    one estimate per doubling, stop when two successive ones agree."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    prev, panels = None, 1
    for _ in range(max_doublings + 1):
        edges = np.linspace(a, b, panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        total = 0.0
        for h, row in zip(half, fn(mid[:, None] + half[:, None] * nodes)):
            total += h * float(np.sum(weights * row))
        if prev is not None and abs(total - prev) <= 1e-8 * max(abs(total), 1e-300):
            return total
        prev, panels = total, 2 * panels
    raise RuntimeError("not converged")


def _mixed(x):
    # smooth on [0, 1]; oscillatory past 1, so it needs more doublings there
    return np.where(x < 1.0, np.exp(x) * x * x, np.cos(200.0 * x) + x)


@pytest.mark.parametrize("fn, a, b", [
    (lambda x: x * x, 0.0, 1.0),
    (lambda x: np.exp(-x) * np.sin(7.0 * x), 0.3, 4.1),
    (_mixed, 0.0, 1.0),
    (_mixed, 1.0, 2.5),
])
def test_adaptive_gauss_one_interval_keeps_its_bits(fn, a, b):
    want = _one_interval_reference(fn, a, b)
    assert adaptive_gauss(fn, a, b) == want
    assert adaptive_gauss(fn, [a], [b]) == want


def test_adaptive_gauss_intervals_converge_on_their_own():
    shapes = []

    def fn(x):
        shapes.append((x.shape, bool(np.all(x >= 1.0))))
        return _mixed(x)

    los, his = [0.0, 0.5, 1.0], [0.5, 1.0, 2.5]
    together = adaptive_gauss(fn, los, his)
    calls = len(shapes)
    separate = 0.0
    for lo, hi in zip(los, his):
        separate += adaptive_gauss(_mixed, lo, hi)
    assert together == separate
    # the first call holds one and two panels of every interval; the smooth
    # intervals stop there, so every later call holds only the third
    # interval's rows, one doubling per call
    assert shapes[0] == ((9, 16), False)
    assert calls > 4
    assert shapes[1:] == [((2 ** level, 16), True) for level in range(2, calls + 1)]


def test_adaptive_gauss_skips_empty_and_rejects_non_finite_intervals():
    f = lambda x: np.exp(x)       # noqa: E731
    assert adaptive_gauss(f, [0.0, 2.0, 1.0], [1.0, 2.0, 2.0]) == \
        adaptive_gauss(f, 0.0, 1.0) + adaptive_gauss(f, 1.0, 2.0)
    assert adaptive_gauss(f, 1.0, 0.0) == 0.0
    for a, b in ((0.0, math.inf), (math.nan, 1.0), ([0.0, 1.0], [1.0, math.inf])):
        with pytest.raises(ValueError, match="finite"):
            adaptive_gauss(f, a, b)


def test_adaptive_gauss_names_the_interval_that_did_not_converge():
    with pytest.raises(RuntimeError, match=r"quadrature on \[1\.0, 2\.5\] not converged"):
        adaptive_gauss(_mixed, [0.0, 1.0], [1.0, 2.5], max_doublings=2)


def test_norms_reject_non_finite_annulus():
    sol = solve(vacuum_medium(), _mixed_source(n_hi=1), 1.0)
    for a, b in ((1.0, math.inf), (1.0, math.nan), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="need 0 <= a < b < inf"):
            l2_norm_annulus(sol, a, b)
        with pytest.raises(ValueError, match="need 0 <= a < b < inf"):
            l2_norm_annulus_diff(sol, sol, a, b)


def test_modal_density_rows_match_separate_calls():
    # a quadrature evaluates the panels of all its intervals in one call;
    # each row must get exactly the values of a call on that row alone, and
    # of a density over that row's interval alone.  The rows below lie in
    # two lossy shell layers (their own k and component weights, hat_jy),
    # the vacuum on both sides of the series/Miller switch at |kr| = 8
    # (omega = 3), and the outgoing exterior (hat_h1).  The layers' loss
    # weights are scaled by two different deltas, so no two pieces share
    # their component weights.  In the eps != mu medium, TE and TM have
    # different orders in the core, so there they share no Bessel basis.
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 8)
    sol = solve(med, _mixed_source(), 3.0)
    intervals = [(1.25, 1.375), (1.5, 1.625), (2.0, 2.6), (3.0, 4.5), (5.5, 7.0)]
    table, keys = _assert_density_rows_match(sol, intervals, (3e-2, 7e-2, None, None, None))
    te1 = keys.index((1, "TE"))
    assert table.outgoing[:, te1].tolist() == [False] * 4 + [True]
    assert table.k[0, te1] != table.k[1, te1]
    sol = eps_ne_mu_solution()
    table, keys = _assert_density_rows_match(
        sol, [(0.1, 0.9), (1.2, 1.8), (2.2, 2.9), (3.5, 5.0)], (None, 0.1, None, None))
    assert table.nu[0, keys.index((1, "TE"))] != table.nu[0, keys.index((1, "TM"))]


def _assert_density_rows_match(sol, intervals, loss_scales):
    """Each row of a density over the intervals (each within one region)
    against a density over its interval alone and the per-mode reference;
    an interval with a loss scale weights its components by the region's
    loss over that scale, the others by 1.  Returns the density's table
    and its keys."""
    from calrlab.layered_maxwell.norms import _modal_density, _mode_weights
    weights = _mode_weights(sol)
    keys = list(weights)
    rows, comps = [], []
    for (lo, hi), scale in zip(intervals, loss_scales):
        idx = int(sol.region_indices(0.5 * (lo + hi)))
        reg = sol.regions[idx]
        ims = (reg.eps_rad.imag, reg.eps_tan.imag, reg.mu_rad.imag, reg.mu_tan.imag)
        rows.append(idx)
        comps.append((1.0, 1.0, 1.0, 1.0) if scale is None else tuple(v / scale for v in ims))
    table = sol.table(rows, keys)
    assert len(set(comps)) == 1 + sum(scale is not None for scale in loss_scales)
    los = [lo for lo, _ in intervals]
    density = _modal_density(los, weights, [(0, comps)], table)
    nodes = np.polynomial.legendre.leggauss(16)[0]
    radii, owner = [], []
    for i, (lo, hi) in enumerate(intervals):
        half = (hi - lo) / 6
        radii += [lo + half * (2 * j + 1) + half * nodes for j in range(3)]
        owner += [i] * 3
    radii = np.array(radii)
    together = density(radii)[:, 0]
    assert together.shape == radii.shape
    for row, i, value in zip(radii, owner, together):
        alone = _modal_density([los[i]], weights, [(0, [comps[i]])], sol.table([rows[i]], keys))
        assert np.array_equal(density(row[None, :])[0, 0], value)
        assert np.array_equal(alone(row[None, :])[0, 0], value)
        assert np.array_equal(
            _density_one_region(sol, weights, rows[i], comps[i], row), value)
    return table, keys


def _density_one_region(sol, weights, idx, comp, r):
    """The density on radii of region idx from the public per-mode
    components, with that region's scalar coefficients and factors."""
    ey_w, et_w, hy_w, ht_w = comp
    out = np.zeros_like(r)
    for (n, pol), w in weights.items():
        e_y, e_u, e_v, h_y, h_u, h_v = mode_radial_components(sol, (n, pol), idx, r)
        e_sq = ey_w * np.abs(e_y) ** 2 + et_w * (np.abs(e_u) ** 2 + np.abs(e_v) ** 2)
        h_sq = hy_w * np.abs(h_y) ** 2 + ht_w * (np.abs(h_u) ** 2 + np.abs(h_v) ** 2)
        out += w * (e_sq + h_sq)
    return out * r * r


# A norm must not depend on where its annulus is cut: the batched segments
# of [a, c] against those of [a, b] and [b, c], for split points inside
# and across the layers of a 16-layer lossy DCM shell (1 < r < 2) and the
# vacuum beyond.  Derandomized, so every run draws the same examples.
@functools.lru_cache(maxsize=None)
def _lossy_dcm_solution():
    med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2), 16)
    return solve(med, _mixed_source(n_hi=2), 1.0)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(a=st.floats(0.5, 2.4), width=st.floats(0.02, 1.5), t=st.floats(0.01, 0.99))
@example(a=0.5, width=1.125, t=0.5)      # split on the breakpoint 1 + 1/16
@example(a=1.5, width=1.0, t=0.5)        # split on r2 = 2.0
@example(a=1.8, width=0.8, t=0.75)       # [a, c] crosses into the vacuum past r2
def test_norm_is_additive_over_any_split(a, width, t):
    sol = _lossy_dcm_solution()
    c = a + width
    b = a + t * width
    whole = l2_norm_annulus(sol, a, c) ** 2
    parts = l2_norm_annulus(sol, a, b) ** 2 + l2_norm_annulus(sol, b, c) ** 2
    assert parts == pytest.approx(whole, rel=1e-12, abs=0.0)


def test_exterior_bound_across_wide_delta_range():
    # fixed source outside the structure: sup over delta in [1e-6, 1e-1] of
    # the exterior norm is finite and flat (the a-priori exterior bound)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0,
                                                       mode(2, 1, "TM"): 1.0})
    norms = []
    for delta in (1e-6, 1e-4, 1e-2, 1e-1):
        med = staircase(make_dcm_example(1.0, 2.0, p=2.0, delta=delta), 24)
        sol = solve(med, src, 1.0)
        norms.append(l2_norm_annulus(sol, 4.0, 6.0))
    assert all(np.isfinite(v) for v in norms)
    assert max(norms) / min(norms) < 1.2


# The batch keeps every bit: each solution's norms from one `sweep_norms`
# call over a whole DCM sweep (1-3 losses at 4-16 layers, several annuli,
# overlapping ones included, difference norms against the vacuum, with and
# without the lossy-layer functional) against its one-request calls.
@functools.lru_cache(maxsize=None)
def _dcm_sweep(layers, losses, omega, r_s):
    from calrlab.layered_maxwell.refine import solve_staircased
    from calrlab.scenarios import mixed_mode_source
    src = mixed_mode_source(r_s, 2, 11)
    sols = solve_staircased([make_dcm_example(1.0, 2.0, 2.0, delta) for delta in losses],
                            src, omega, layers=layers, richardson=False)
    return sols, solve(vacuum_medium(), src, omega)


def _hex(report):
    return [float(getattr(report, name)).hex() for name in
            ("value", "pairing_im", "flux_im", "j_norm_sq", "delta", "lossy_norm_weighted")]


_ANNULUS = st.tuples(st.floats(0.3, 8.0), st.floats(0.05, 4.0)).map(lambda t: (t[0], t[0] + t[1]))
# difference norms against the vacuum, where the DCM medium is vacuum too
_VACUUM_ANNULUS = st.tuples(st.floats(4.0, 8.0), st.floats(0.05, 4.0)).map(
    lambda t: (t[0], t[0] + t[1]))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(layers=st.integers(4, 16),
       losses=st.lists(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5]), min_size=1, max_size=3,
                       unique=True).map(tuple),
       omega=st.sampled_from([1.0, 4.0]), r_s=st.sampled_from([3.0, 5.0, 9.0]),
       annuli=st.lists(_ANNULUS, max_size=3), diff_annuli=st.lists(_VACUUM_ANNULUS, max_size=2),
       data=st.booleans())
# the blowup_norms workload's sweep
@example(layers=16, losses=(1e-2, 1e-3), omega=1.0, r_s=3.0, annuli=[(1.0, 2.0), (4.0, 6.0)],
         diff_annuli=[], data=True)
# on [4, 9] the norm takes one more doubling than the difference norm
@example(layers=4, losses=(1e-1, 1e-3), omega=4.0, r_s=9.0, annuli=[(4.0, 9.0)],
         diff_annuli=[(4.0, 9.0)], data=False)
# overlapping annuli, one of them cut at the shell's breakpoints
@example(layers=8, losses=(1e-2,), omega=1.0, r_s=5.0, annuli=[(0.5, 1.6), (1.3, 4.5)],
         diff_annuli=[(4.2, 6.0), (5.0, 7.0)], data=True)
def test_sweep_norms_keep_the_bits_of_one_request(layers, losses, omega, r_s, annuli,
                                                  diff_annuli, data):
    sols, vac = _dcm_sweep(layers, losses, omega, r_s)
    batch = sweep_norms(sols, annuli, deltas=losses if data else None,
                        ref=vac, diff_annuli=diff_annuli)
    for sol, delta, got in zip(sols, losses, batch):
        assert [v.hex() for v in got.annuli] == [
            l2_norm_annulus(sol, a, b).hex() for a, b in annuli]
        assert [v.hex() for v in got.diffs] == [
            l2_norm_annulus_diff(sol, vac, a, b).hex() for a, b in diff_annuli]
        if data:
            assert _hex(got.data) == _hex(data_quantity(sol, delta))
        else:
            assert got.data is None


def test_uneven_example_needs_more_doublings_for_one_quantity(monkeypatch):
    # the second @example above: on the one interval [4, 9], the norm of the
    # standing field needs a second level, the outgoing difference does not
    import calrlab.layered_maxwell.norms as norms
    inner = norms.adaptive_gauss
    levels = []

    def counted(fn, a, b, max_doublings=10):
        levels.append(0)

        def level(x):
            levels[-1] += 1
            return fn(x)

        return inner(level, a, b, max_doublings)

    monkeypatch.setattr(norms, "adaptive_gauss", counted)
    sols, vac = _dcm_sweep(4, (1e-1, 1e-3), 4.0, 9.0)
    for sol in sols:
        assert norms._segments([sol], 4.0, 9.0) == norms._segments([sol, vac], 4.0, 9.0) == \
            [(4.0, 9.0)]
        l2_norm_annulus(sol, 4.0, 9.0)
        l2_norm_annulus_diff(sol, vac, 4.0, 9.0)
    assert levels == [2, 1, 2, 1]


def test_lossy_functional_shares_the_shell_norms_kernel_calls(monkeypatch):
    # at the blowup_norms workload's params, the lossy layers are the shell
    # norm's segments: Data adds only its sheet pairing's kernel call, and
    # the whole sweep's quadrature is one kernel call with one hat_jy call
    import calrlab.layered_maxwell.norms as norms
    import calrlab.layered_maxwell.solver as solver
    counts = {"components": 0, "hat_jy": 0, "args": 0}
    components, hat_jy = norms._components, solver.hat_jy

    def counted_components(*args):
        counts["components"] += 1
        return components(*args)

    def counted_hat_jy(nu, z):
        counts["hat_jy"] += 1
        counts["args"] += np.size(z)
        return hat_jy(nu, z)

    monkeypatch.setattr(norms, "_components", counted_components)
    monkeypatch.setattr(solver, "hat_jy", counted_hat_jy)
    sols, _ = _dcm_sweep(16, (1e-2, 1e-3), 1.0, 3.0)

    def cost(fn):
        before = dict(counts)
        fn()
        return {name: counts[name] - before[name] for name in counts}

    annuli = [(1.0, 2.0), (4.0, 6.0)]
    shell = cost(lambda: sweep_norms(sols, annuli))
    with_data = cost(lambda: sweep_norms(sols, annuli, deltas=[1e-2, 1e-3]))
    sheet = cost(lambda: norms._sheet_pairings(sols, list(norms._mode_weights(sols[0]))))
    assert shell["components"] == shell["hat_jy"] == 1 and shell["args"] > 0
    assert with_data == {name: shell[name] + sheet[name] for name in shell}
    assert sheet["components"] == 1
