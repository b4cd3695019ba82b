"""Three-sphere inequality machinery: sup norms, modal norms, partial data."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import calrlab
from calrlab.three_sphere import (
    AlphaFit,
    HarmonicExpansion2D,
    PartialBoundary,
    SphericalExpansion,
    check_hadamard,
    check_maxwell_3sphere,
    empirical_alpha,
    hminushalf_div_norm,
    partial_data_norm,
    random_modal_field,
    sup_norm_circle,
    sup_norms_circle,
)
from calrlab.scenarios import run_scenario
from calrlab.specfun import sphere_rule
from calrlab.specfun.vsh import pbar_tau_pi
from calrlab.three_sphere.harmonic2d import _grid_profile, _top_candidates


def test_sup_norm_monomial_and_constant():
    v = HarmonicExpansion2D.holomorphic([0, 0, 0, 1.0])  # z^3
    assert sup_norm_circle(v, 2.0) == pytest.approx(8.0, rel=1e-12)
    one = HarmonicExpansion2D.holomorphic([1.0])
    assert sup_norm_circle(one, 0.7) == pytest.approx(1.0, rel=1e-14)


def _check_against_brute_scan(v, r):
    refined = sup_norm_circle(v, r)
    theta = np.linspace(0, 2 * math.pi, 1_000_000, endpoint=False)
    brute = float(np.max(np.abs(v.value(r, theta))))
    assert refined >= brute - 1e-12
    assert refined == pytest.approx(brute, rel=1e-8)


def test_sup_norm_against_brute_scan():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    _check_against_brute_scan(HarmonicExpansion2D.holomorphic(coeffs), 1.3)


def _random_polynomial(degree):
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return HarmonicExpansion2D.holomorphic(coeffs)


@pytest.mark.parametrize("v, r", [
    (HarmonicExpansion2D(regular={1: 1.0, 3: 0.3j}, singular={2: 0.5, -1: 0.2}), 1.3),
    (_random_polynomial(30), 2.5),
], ids=["singular_negative_k", "degree30"])
def test_sup_norm_against_brute_scan_more_inputs(v, r):
    _check_against_brute_scan(v, r)


def _scalar_sup_norm_circle(v, radius):
    """The sup norm as first written: one FFT, a greedy candidate loop and a
    Newton loop per (expansion, radius)."""
    coeffs = v.circle_coeffs(radius)
    ks = np.fromiter(coeffs, dtype=float, count=len(coeffs))
    a = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    kmax = int(np.abs(ks).max(initial=0))
    n = max(512, 64 * (kmax + 1))
    theta = 2.0 * math.pi * np.arange(n) / n
    spectrum = np.zeros(n, dtype=complex)
    np.add.at(spectrum, ks.astype(int) % n, a)
    prof = np.abs(np.fft.ifft(spectrum, norm="forward"))
    best = float(prof.max())
    derivs = np.stack([a, 1j * ks * a, -ks * ks * a], axis=1)
    h = 2.0 * math.pi / n
    taken = []
    for idx in np.argsort(prof)[::-1]:
        if all(min(abs(idx - t), n - abs(idx - t)) > 3 for t in taken):
            taken.append(idx)
        if len(taken) >= 3:
            break
    th = theta[taken]
    lo, hi = th - h, th + h
    for _ in range(12):
        f, df, d2f = (np.exp(1j * np.outer(th, ks)) @ derivs).T
        best = max(best, float(np.abs(f).max()))
        g1 = 2.0 * (f.conj() * df).real
        g2 = 2.0 * (np.abs(df) ** 2 + (f.conj() * d2f).real)
        step = np.divide(-g1, g2, out=np.zeros_like(g1), where=g2 < 0.0)
        moved = np.clip(th + step, lo, hi)
        if np.max(np.abs(moved - th)) <= 1e-12:
            break
        th = moved
    return best


def test_stacked_sup_norm_matches_scalar_bitwise():
    # Random polynomials at the five grid radii put several rows on one
    # frequency set, whose rows converge, and leave the Newton stack, at
    # different steps; monomials, the zero polynomial and non-holomorphic
    # expansions with negative and singular frequencies fill out the mix.
    rng = np.random.default_rng(41)
    rows = []
    for _ in range(60):
        deg = int(rng.integers(1, 31))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        v = HarmonicExpansion2D.holomorphic(coeffs)
        rows += [(v, r) for r in (0.5, 1.0, 1.5, 2.0, 2.5)]
    rows += [(HarmonicExpansion2D.holomorphic([0.0] * k + [1.0]), r)
             for k in (1, 7, 50) for r in (0.5, 1.1, 2.5)]
    rows += [(HarmonicExpansion2D.holomorphic([0.0]), 0.7)]
    for _ in range(10):
        v = HarmonicExpansion2D(
            regular={int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-8, 9, 4)},
            singular={int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-8, 9, 3)})
        rows += [(v, 0.6), (v, 1.3)]
    rows += [(HarmonicExpansion2D(regular={1: 1.0, 3: 0.3j}, singular={2: 0.5, -1: 0.2}), r)
             for r in (0.8, 1.3, 1.9)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    assert sup_norms_circle(rows) == [_scalar_sup_norm_circle(v, r) for v, r in rows]


def _greedy_picks(prof, n, order):
    """The three greedy picks of one grid row from a full ordering of it:
    a cell is taken when it lies more than 3 cells (circularly) from every
    cell taken before it."""
    taken = []
    for idx in order:
        if all(min(abs(idx - t), n - abs(idx - t)) > 3 for t in taken):
            taken.append(int(idx))
        if len(taken) == 3:
            return taken
    raise AssertionError("fewer than three picks")


def _full_sort_picks(prof):
    """The greedy picks from a full sort, values descending, ties to the
    lower index: the order that `_top_candidates` keeps on its 15 cells."""
    n = prof.shape[1]
    return [_greedy_picks(row, n, np.argsort(-row, kind="stable")) for row in prof]


def test_top_candidates_match_full_sort_greedy():
    rng = np.random.default_rng(5)
    for n in (512, 1024, 3264):
        prof = rng.random((40, n))
        assert _top_candidates(prof, n).tolist() == _full_sort_picks(prof)
    # a built row whose third pick is entry 14, the deepest the partition
    # allows: each of the first two picks rules out its 6 neighbours
    prof = rng.random((1, 512))
    cells = [100, 97, 98, 99, 101, 102, 103, 200, 197, 198, 199, 201, 202, 203, 300]
    prof[0, cells] = 100.0 - np.arange(15)
    assert _full_sort_picks(prof) == [[100, 200, 300]]
    assert _top_candidates(prof, 512).tolist() == [[100, 200, 300]]


def test_tie_heavy_sup_norms_match_full_sort_bitwise():
    # |z^k| and |1 + z^k| repeat their grid maxima k times, so the
    # partition and the full sort it replaced can pick different tied cells;
    # Newton polishes either choice to the same bits
    rows = [(HarmonicExpansion2D.holomorphic([c] + [0.0] * (k - 1) + [1.0]), r)
            for k in range(1, 41) for c in (0.0, 1.0)
            for r in (0.5, 0.9, 1.0, 1.1, 1.7, 2.5)]
    assert sup_norms_circle(rows) == [_scalar_sup_norm_circle(v, r) for v, r in rows]
    # the sweep does reach rows whose tied picks differ
    moved = 0
    for v, r in rows:
        coeffs = v.circle_coeffs(r)
        ks = np.array(list(coeffs), dtype=float)
        n = max(512, 64 * (int(ks.max()) + 1))
        prof = _grid_profile(ks, np.array([list(coeffs.values())], dtype=complex), n)
        moved += _greedy_picks(prof[0], n, np.argsort(prof[0])[::-1]) != \
            _top_candidates(prof, n).tolist()[0]
    assert moved > 0


def test_three_sphere_suite_memory_flat_in_count(tmp_path):
    # check_hadamard runs on fixed-size blocks of polynomials, so the
    # suite's allocation peak does not grow with the number of polynomials
    def peak(count):
        tracemalloc.start()
        try:
            run_scenario("three_sphere_suite", {"count": count}, tmp_path / str(count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # an untraced warm-up call, so that first-use imports and caches land
    # in neither measured peak
    run_scenario("three_sphere_suite", {"count": 300}, tmp_path / "warm")
    assert peak(1200) <= 1.5 * peak(300)


def test_hadamard_monomial_equality():
    for k in (1, 3, 10, 30, 50):
        v = HarmonicExpansion2D.holomorphic([0] * k + [1.0])
        [(_, _, _, ratio)] = check_hadamard([(v, (0.5, 1.1, 2.5))])
        assert abs(ratio - 1.0) < 1e-12


def test_hadamard_random_polynomials():
    rng = np.random.default_rng(123)
    radii = np.linspace(0.5, 2.5, 5)
    triples = [(radii[i], radii[j], radii[k])
               for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)]
    for _ in range(100):
        deg = int(rng.integers(1, 31))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        v = HarmonicExpansion2D.holomorphic(coeffs)
        for _, _, _, ratio in check_hadamard((v, radii) for radii in triples[:3]):
            assert ratio <= 1.0 + 1e-10


def test_hadamard_zero_function_needs_no_constant():
    # 0/0: the zero function satisfies the inequality with any constant
    [(lhs, rhs, alpha, ratio)] = check_hadamard([(HarmonicExpansion2D.holomorphic([0.0]),
                                                  (0.5, 1.0, 2.0))])
    assert (lhs, rhs, ratio) == (0.0, 0.0, 0.0)
    assert alpha == math.log(2.0) / math.log(4.0)


def test_hadamard_rejects_non_holomorphic():
    v = HarmonicExpansion2D(regular={1: 1.0}, singular={1: 0.5})
    with pytest.raises(ValueError):
        check_hadamard([(v, (0.5, 1.0, 2.0))])


def test_hminushalf_norm_values_and_axioms():
    # single (n=1) mode, coefficient 1, r=1: value 1
    field = {(1, 0): (1.0 + 0j, 0.0, 0.0, 0.0)}
    assert hminushalf_div_norm(field, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert hminushalf_div_norm({}, 1.0) == 0.0
    # scaling r -> r' multiplies the mode-n term by (r'/r)^(2n)
    field = {(3, 1): (0.0, 0.0, 0.7, 0.2j)}
    a = hminushalf_div_norm(field, 1.0)
    b = hminushalf_div_norm(field, 1.3)
    assert b / a == pytest.approx(1.3 ** 3, rel=1e-12)
    # homogeneity on random fields
    rng = np.random.default_rng(3)
    for _ in range(20):
        f1 = {(int(n), 0): (rng.standard_normal() + 1j * rng.standard_normal(),
                            rng.standard_normal(),
                            rng.standard_normal() + 1j * rng.standard_normal(),
                            rng.standard_normal())
              for n in rng.integers(1, 8, 4)}
        lam = complex(rng.standard_normal(), rng.standard_normal())
        f2 = {k: tuple(lam * c for c in quad) for k, quad in f1.items()}
        assert hminushalf_div_norm(f2, 0.9) == pytest.approx(
            abs(lam) * hminushalf_div_norm(f1, 0.9), rel=1e-12)


def _scalar_random_modal_field(n_max, rng):
    """The sampler as first written: one scalar draw per normal."""
    field = {}
    for n in range(1, n_max + 1):
        for m in range(-n, n + 1):
            if rng.uniform() < 0.5:
                continue
            field[(n, m)] = tuple((rng.standard_normal() + 1j * rng.standard_normal())
                                  / (n + 1.0) for _ in range(4))
    if not field:
        field[(1, 0)] = (1.0 + 0j, 0j, 0j, 0j)
    return field


@pytest.mark.parametrize("seed", [0, 1, 29, 2024])
def test_random_modal_field_matches_scalar_sampler_bitwise(seed):
    got = random_modal_field(20, np.random.default_rng(seed))
    want = _scalar_random_modal_field(20, np.random.default_rng(seed))
    assert list(got) == list(want)
    assert all(got[key] == want[key] for key in want)


def test_three_sphere_import_loads_no_solver():
    code = ("import sys, calrlab.three_sphere; "
            "print(sorted(m for m in sys.modules if m.startswith('calrlab.layered_maxwell')))")
    src = str(Path(calrlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_maxwell_3sphere_single_mode_equality_and_family():
    field = {(4, 2): (0.3, 0.1j, 0.0, 0.2)}
    _, _, c = check_maxwell_3sphere(field, 1.0, 1.5, 2.0)
    assert c == pytest.approx(1.0, abs=1e-8)   # per-mode log-linearity
    rng = np.random.default_rng(11)
    cs = []
    for _ in range(200):
        f = random_modal_field(20, rng)
        _, _, c = check_maxwell_3sphere(f, 1.0, 1.5, 2.0)
        assert c <= 1.0 + 1e-10                # Hoelder across modes
        cs.append(c)
    assert max(cs) <= 1.0 + 1e-10
    # stability of the max under family doubling
    cs2 = list(cs)
    for _ in range(200):
        f = random_modal_field(20, rng)
        cs2.append(check_maxwell_3sphere(f, 1.0, 1.5, 2.0)[2])
    assert max(cs2) <= 1.2 * max(cs) + 1e-12


def test_maxwell_3sphere_zero_field_needs_no_constant():
    # the same 0/0 convention as check_hadamard
    assert check_maxwell_3sphere({(2, 1): (0j, 0j, 0j, 0j)}, 1.0, 1.5, 2.0) == (0.0, 0.0, 0.0)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@example(m=0, k=5, extra=7, theta=[0.0, math.pi])
@example(m=-3, k=4, extra=20, theta=[0.0, 1.1, math.pi])
@example(m=-30, k=1, extra=0, theta=[math.pi])
@given(m=st.integers(-30, 30), k=st.integers(1, 12), extra=st.integers(0, 30),
       theta=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6))
def test_legendre_rows_do_not_depend_on_the_table_degree(m, k, extra, theta):
    # the recurrence runs upward, so a table to degree N >= |m| + k - 1
    # starts with the k rows of a table to degree |m| + k - 1, bit for bit;
    # ring_density reads one table of a family's largest degree
    theta = np.array(theta)
    short = pbar_tau_pi(abs(m) + k - 1, m, theta)
    long = pbar_tau_pi(abs(m) + k - 1 + extra, m, theta)
    for a, b in zip(short, long):
        assert a.shape == (k, theta.size)
        assert np.array_equal(a, b[:k])


def test_partial_norm_monotone_and_limit():
    coeffs = {(3, 1): (0.4, 0.1), (5, 0): (0.2, 0.0)}
    v = SphericalExpansion(kind="harmonic", coeffs=coeffs)
    values = []
    for r0 in (1e-6, 0.1, 0.3, 0.6):
        pb = PartialBoundary(radius=1.0, excision=r0, quad_order=48)
        values.append(partial_data_norm(v, pb))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # r0 -> 0 recovers the full-sphere surrogate
    pb0 = PartialBoundary(radius=1.0, excision=1e-9, quad_order=48)
    assert pb0.kept_fraction == pytest.approx(1.0)
    # quadrature refinement converges
    pb_lo = PartialBoundary(radius=1.0, excision=1e-9, quad_order=32)
    pb_hi = PartialBoundary(radius=1.0, excision=1e-9, quad_order=64)
    a = partial_data_norm(v, pb_lo)
    b = partial_data_norm(v, pb_hi)
    assert a == pytest.approx(b, rel=1e-6)


def test_partial_norm_vanishing_function():
    # a function supported away from Sigma: the pure m=0 harmonic vanishing
    # nowhere is not available, so check the zero expansion instead
    v = SphericalExpansion(kind="harmonic", coeffs={(2, 0): (0.0, 0.0)})
    pb = PartialBoundary(radius=1.0, excision=0.2)
    assert partial_data_norm(v, pb) == 0.0


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.7])
def test_partial_boundary_mask_matches_per_node_distance(radius):
    # reference: the distance of each node to the equator circle, one node
    # at a time; the kept nodes are whole theta rows, which become the rings
    pts, w, theta, _ = sphere_rule(48)
    xs = radius * pts
    dist = [math.hypot(math.hypot(x[0], x[1]) - radius, x[2]) for x in xs]
    for r0 in (0.4, 0.3, 0.2, 0.1, 0.05, 0.01):
        keep = np.array([d >= r0 for d in dist]).reshape(48, 96)
        rows = keep[:, 0]
        assert np.array_equal(keep, np.repeat(rows[:, None], 96, axis=1))
        got_theta, got_w = PartialBoundary(radius=radius, excision=r0).rings
        assert np.array_equal(got_theta, theta.reshape(48, 96)[rows, 0])
        assert np.array_equal(got_w, radius ** 2 * w.reshape(48, 96).sum(axis=1)[rows])


def _masked_node_norm(v, radius, r0, quad_order):
    """The product-rule sum over the kept nodes of sphere_rule, point by point."""
    pts, w, _, _ = sphere_rule(quad_order)
    xs = radius * pts
    keep = np.hypot(np.hypot(xs[:, 0], xs[:, 1]) - radius, xs[:, 2]) >= r0
    vals, grads = v.value_and_gradient_many(xs[keep])
    dens = np.abs(vals) ** 2 + np.sum(np.abs(grads) ** 2, axis=1)
    return math.sqrt(float(np.sum(radius ** 2 * w[keep] * dens)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["harmonic", "helmholtz"]),
       quad_order=st.sampled_from([4, 12, 48]), n_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), radius=st.floats(0.5, 2.0),
       r0_frac=st.floats(0.0, 0.95), omega=st.floats(0.5, 2.0))
def test_ring_norm_matches_masked_node_sum(kind, quad_order, n_frac, seed,
                                           radius, r0_frac, omega):
    # the phi trapezoid rule is exact for the ring density while
    # n_max < quad_order, so the ring form equals the node-by-node sum
    rng = np.random.default_rng(seed)
    n_max = min(int(n_frac * quad_order), quad_order - 1)
    coeffs = {}
    for n in [n_max, *rng.integers(0, n_max + 1, size=int(rng.integers(0, 8)))]:
        m = int(rng.integers(-n, n + 1))
        coeffs[(int(n), m)] = tuple(complex(*rng.standard_normal(2)) for _ in range(2))
    v = SphericalExpansion(kind=kind, coeffs=coeffs, omega=omega)
    r0 = r0_frac * radius
    got = partial_data_norm(v, PartialBoundary(radius, r0, quad_order))
    assert got == pytest.approx(_masked_node_norm(v, radius, r0, quad_order),
                                rel=1e-13, abs=0.0)


def test_partial_norm_needs_n_max_below_quad_order():
    pb = PartialBoundary(radius=1.0, excision=0.1, quad_order=8)
    below = SphericalExpansion(kind="harmonic", coeffs={(7, -3): (1.0, 0.5)})
    assert partial_data_norm(below, pb) > 0
    for n in (8, 9):
        v = SphericalExpansion(kind="harmonic", coeffs={(n, 2): (1.0, 0.0)})
        with pytest.raises(ValueError, match="quad_order"):
            partial_data_norm(v, pb)


def test_excision_covering_sphere_rejected():
    with pytest.raises(ValueError):
        PartialBoundary(radius=1.0, excision=3.0)


def test_empirical_alpha_full_data_recovers_alpha0():
    # modal ground truth: for pure solid harmonics the three norms are
    # exponential in the degree up to slowly varying factors, so the log-log
    # slope converges to ln(R3/R2)/ln(R3/R1); the finite-degree family leaves
    # an O(ln n / n) bias, hence the +-0.05 window
    r1, r3 = 1.0, 2.0
    family = [SphericalExpansion(kind="harmonic", coeffs={(n, 0): (1.0, 0.0)})
              for n in range(12, 49)]
    pb = PartialBoundary(radius=r1, excision=1e-9, quad_order=60)
    [fit] = empirical_alpha(family, [pb], (1.44, 1.46), (r1, r3))
    alpha0 = math.log(r3 / 1.45) / math.log(r3 / r1)
    assert fit.alpha_hat == pytest.approx(alpha0, abs=0.05)


def test_empirical_alpha_small_family_rejected():
    v = SphericalExpansion(kind="harmonic", coeffs={(2, 0): (1.0, 0.0)})
    pb = PartialBoundary(radius=1.0, excision=0.1)
    with pytest.raises(ValueError, match="excision 0.1: 1 family members"):
        empirical_alpha([v], [pb], (1.2, 1.3), (1.0, 2.0))


def test_empirical_alpha_excision_trend_reported():
    family = [SphericalExpansion(kind="harmonic", coeffs={(n, 1): (1.0, 0.0)})
              for n in range(3, 20)]
    fits = empirical_alpha(family, [PartialBoundary(radius=1.0, excision=r0, quad_order=48)
                                    for r0 in (0.2, 0.1, 0.05)],
                           (1.4, 1.5), (1.0, 2.0))
    assert len(fits) == 3
    # evidence table, not pass/fail: the fitted exponents exist and are finite
    assert all(np.isfinite(f.alpha_hat) for f in fits)
    assert all(f.count >= 10 for f in fits)


def test_empirical_alpha_helmholtz_family():
    family = [SphericalExpansion(kind="helmholtz", coeffs={(n, 0): (1.0, 0.0)},
                                 omega=1.0)
              for n in range(10, 30)]
    pb = PartialBoundary(radius=1.0, excision=0.1, quad_order=48)
    [fit] = empirical_alpha(family, [pb], (1.44, 1.46), (1.0, 2.0))
    assert np.isfinite(fit.alpha_hat) and fit.count >= 10


def _alpha_fit_reference(family, boundary, mid_annulus, full_annulus):
    """One boundary's fit from per-member `partial_data_norm` calls, which
    build each member's own Legendre tables, and per-member annulus norms."""
    xs, ys = [], []
    for v in family:
        partial = partial_data_norm(v, boundary)
        full = math.sqrt(v.annulus_norm_sq(*full_annulus, include_gradient=True))
        mid = math.sqrt(v.annulus_norm_sq(*mid_annulus, include_gradient=False))
        if partial > 0 and full > 0 and mid > 0:
            xs.append(math.log(partial / full))
            ys.append(math.log(mid / full))
    slope, intercept = np.polyfit(xs, ys, 1)
    return AlphaFit(alpha_hat=float(slope), intercept=float(intercept), count=len(xs))


@pytest.mark.parametrize("kind", ["harmonic", "helmholtz"])
def test_empirical_alpha_list_matches_per_member_norms_bitwise(kind):
    # members of different degrees and orders (negative m too) read rows of
    # tables built to the family's largest degree; the zero member is left
    # out of every fit
    rng = np.random.default_rng(7)
    family = [SphericalExpansion(kind="harmonic", coeffs={(4, 1): (0.0, 0.0)})]
    for n_max in rng.integers(2, 30, size=14):
        coeffs = {}
        for n in [int(n_max), *rng.integers(0, n_max + 1, size=3)]:
            m = int(rng.integers(-n, n + 1))
            coeffs[(int(n), m)] = (float(rng.standard_normal()), 0.0)
        family.append(SphericalExpansion(kind=kind, coeffs=coeffs, omega=1.3))
    boundaries = [PartialBoundary(radius=1.0, excision=r0, quad_order=q)
                  for r0, q in ((0.2, 48), (0.05, 48), (0.1, 32))]
    fits = empirical_alpha(family, boundaries, (1.44, 1.46), (1.0, 2.0))
    assert fits == [_alpha_fit_reference(family, pb, (1.44, 1.46), (1.0, 2.0))
                    for pb in boundaries]
    assert all(fit.count == 14 for fit in fits)
    assert empirical_alpha(family, [], (1.44, 1.46), (1.0, 2.0)) == []


def test_empirical_alpha_counts_the_members_it_fits():
    # ten members, nine of them zero: the rule reads the one member a fit
    # could use, before any regression runs
    zero = [SphericalExpansion(kind="harmonic", coeffs={(n, 0): (0.0, 0.0)})
            for n in range(3, 12)]
    one = SphericalExpansion(kind="harmonic", coeffs={(5, 0): (1.0, 0.0)})
    boundaries = [PartialBoundary(radius=1.0, excision=r0) for r0 in (0.2, 0.1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="excision 0.2: 1 family members"):
            empirical_alpha(zero + [one], boundaries, (1.4, 1.5), (1.0, 2.0))
        with pytest.raises(ValueError, match="excision 0.2: 0 family members"):
            empirical_alpha(zero + zero[:1], boundaries, (1.4, 1.5), (1.0, 2.0))


def test_helmholtz_expansion_satisfies_equation():
    # FD Laplacian of the expansion: Delta v + omega^2 v = 0 on the annulus
    omega = 1.3
    v = SphericalExpansion(kind="helmholtz",
                           coeffs={(2, 1): (0.8, 0.3), (4, 0): (0.2, 0.1)},
                           omega=omega)
    rng = np.random.default_rng(2)
    h = 1e-4
    for _ in range(5):
        x = rng.standard_normal(3)
        x *= rng.uniform(1.2, 1.8) / np.linalg.norm(x)
        lap = 0.0
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            gp = v.value_and_gradient_many((x + dx)[None, :])[1][0][k]
            gm = v.value_and_gradient_many((x - dx)[None, :])[1][0][k]
            lap += (gp - gm) / (2 * h)
        val = v.value_and_gradient_many(x[None, :])[0][0]
        assert abs(lap + omega ** 2 * val) < 1e-6 * max(abs(val), 1.0)
