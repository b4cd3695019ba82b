"""Modal norms, far-field flux, Data functional, and the energy identity."""
import math

import numpy as np
import pytest

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
    second_order_residual,
    solve,
    staircase,
)
from calrlab.media import make_dcm_example, vacuum_medium
from calrlab.specfun import sphere_rule


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


def test_modal_density_rows_match_separate_calls():
    # the quadrature evaluates every panel of an estimate in one call; each
    # row must get exactly the values of a call on that row alone.  At
    # omega = 3 the rows below straddle the series/Miller switch at |kr| = 8.
    from calrlab.layered_maxwell.norms import (
        _UNIT_WEIGHTS, _modal_density, _mode_weights, _region_terms)
    sol = solve(vacuum_medium(), _mixed_source(), 3.0)
    weights = _mode_weights(sol)
    nodes = np.polynomial.legendre.leggauss(16)[0]
    for lo, hi in ((2.0, 4.0), (5.5, 7.5)):
        terms = _region_terms(sol, weights, sol.region_index(0.5 * (lo + hi)))
        density = _modal_density(terms, _UNIT_WEIGHTS, sol.omega)
        half = (hi - lo) / 6
        rows = np.array([lo + half * (2 * i + 1) + half * nodes for i in range(3)])
        together = density(rows)
        assert together.shape == rows.shape
        for row, value in zip(rows, together):
            assert np.array_equal(density(row[None, :])[0], value)


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
