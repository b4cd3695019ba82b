"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a [PASS]/[FAIL] line with the measured quantity so the run
doubles as the acceptance report:  pytest -s tests/test_acceptance.py
"""
import math
import time

import numpy as np
import pytest

from calrlab.carleman import exponent_bookkeeping, minimal_fold_parameter
from calrlab.scenarios import run_scenario
from calrlab.specfun import hat_jy
from calrlab.three_sphere import HarmonicExpansion2D, sup_norm_circle
from oracles import wronskian_residual


def _report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def dcm_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dcm")
    t0 = time.perf_counter()
    res = run_scenario("dcm_convergence", {}, out)
    res["elapsed"] = time.perf_counter() - t0
    return res


def test_criterion_01_dcm_convergence_rate(dcm_run):
    slope = dcm_run["slope"]
    ok = 0.85 <= slope <= 1.15 and dcm_run["elapsed"] < 60.0
    _report(1, "homogenization error linear in the loss", ok,
            f"fitted slope {slope:.4f} in [0.85, 1.15], "
            f"runtime {dcm_run['elapsed']:.1f}s < 60s")


def test_criterion_02_uniform_exterior_bound(dcm_run):
    var = dcm_run["bound_variation"]
    ok = var < 0.10
    _report(2, "exterior norm uniform across the loss sweep", ok,
            f"sup variation {100 * var:.2f}% < 10%")


def test_criterion_03_superlens(tmp_path):
    t0 = time.perf_counter()
    res = run_scenario("superlens", {}, tmp_path)
    elapsed = time.perf_counter() - t0
    errs = list(res["errors"].values())
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ok = monotone and res["ratio"] < 1e-2 and elapsed < 60.0
    _report(3, "superlens converges to the magnified reference", ok,
            f"monotone={monotone}, err ratio {res['ratio']:.2e} < 1e-2, "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_04_gluing(tmp_path):
    t0 = time.perf_counter()
    res = run_scenario("gluing_demo", {}, tmp_path)
    elapsed = time.perf_counter() - t0
    max_jump = max(res["jumps"])
    variation = max(res["ratios"]) / min(res["ratios"])
    ok = max_jump < 1e-6 and variation < 2.0 and elapsed < 30.0
    _report(4, "removing the localized singularity", ok,
            f"max tangential jump {max_jump:.2e} < 1e-6, "
            f"resid/delta variation {variation:.3f} < 2, "
            f"runtime {elapsed:.1f}s < 30s")


def test_criterion_05_hadamard_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    radii = [0.5, 1.0, 1.5, 2.0, 2.5]
    triples = [(radii[i], radii[j], radii[k])
               for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)]
    worst = 0.0
    for _ in range(1000):
        deg = int(rng.integers(1, 31))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        v = HarmonicExpansion2D.holomorphic(coeffs)
        sups = {r: sup_norm_circle(v, r) for r in radii}
        for r1, r2, r3 in triples:
            alpha = math.log(r3 / r2) / math.log(r3 / r1)
            rhs = sups[r1] ** alpha * sups[r3] ** (1 - alpha)
            worst = max(worst, sups[r2] / rhs)
    mono_dev = 0.0
    for k in range(1, 51):
        v = HarmonicExpansion2D.holomorphic([0.0] * k + [1.0])
        sups = {r: sup_norm_circle(v, r) for r in radii}
        for r1, r2, r3 in triples:
            alpha = math.log(r3 / r2) / math.log(r3 / r1)
            ratio = sups[r2] / (sups[r1] ** alpha * sups[r3] ** (1 - alpha))
            mono_dev = max(mono_dev, abs(ratio - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-10 and mono_dev < 1e-12 and elapsed < 10.0
    _report(5, "sup-norm three-circle interpolation", ok,
            f"max ratio-1 = {worst - 1.0:.2e} <= 1e-10, "
            f"monomial |ratio-1| = {mono_dev:.2e} < 1e-12, "
            f"runtime {elapsed:.1f}s < 10s")


def test_criterion_06_maxwell_three_sphere(tmp_path):
    t0 = time.perf_counter()
    res = run_scenario("maxwell_3sphere_suite", {}, tmp_path)
    elapsed = time.perf_counter() - t0
    stable = abs(res["max_c"] - res["base_max"]) <= 0.2 * res["base_max"]
    ok = (np.isfinite(res["max_c"]) and stable
          and abs(res["single_mode_c"] - 1.0) < 1e-8 and elapsed < 30.0)
    _report(6, "tangential-trace modal norm interpolation", ok,
            f"max C {res['max_c']:.6f} finite, doubling shift "
            f"{abs(res['max_c'] - res['base_max']):.2e} within 20%, "
            f"single-mode |C-1| = {abs(res['single_mode_c'] - 1):.2e} < 1e-8, "
            f"runtime {elapsed:.1f}s < 30s")


def test_criterion_07_bessel_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(0, 101, 4):
        for r in np.logspace(-2, 2, 13):
            worst = max(worst, wronskian_residual(n, float(r)) * r * r)
    dev_max = 0.0
    c_fit = 0.0
    for n in range(4, 81, 4):
        for r in (0.1, 0.3, 0.6, 1.0):
            v = hat_jy(float(n), complex(r))
            dj = abs(v["j"].scale10(-n * math.log10(r)).to_complex()[0] - 1.0)
            dy = abs(v["y"].scale10((n + 1) * math.log10(r)).to_complex()[0] - 1.0)
            c_fit = max(c_fit, n * dj, n * dy)
            dev_max = max(dev_max, dj, dy)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and c_fit < 1.0 and elapsed < 5.0
    _report(7, "radial-function identities", ok,
            f"max relative Wronskian residual {worst:.2e} < 1e-10, "
            f"fitted asymptotics constant c = {c_fit:.3f} (envelope c/n holds), "
            f"runtime {elapsed:.1f}s < 5s")


@pytest.fixture(scope="module")
def carleman_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("carleman")
    t0 = time.perf_counter()
    res = run_scenario("carleman_suite", {}, out)
    res["elapsed"] = time.perf_counter() - t0
    return res


def test_criterion_08_frame_exactness(carleman_run):
    dev = carleman_run["anchor_deviation"]
    ok = dev < 1e-10
    _report(8, "whitened-frame anchor identity", ok,
            f"max deviation {dev:.2e} < 1e-10 over 50 random anchors, "
            f"folds {{10, 20, 40}}")


def test_criterion_09_claims_fold_independence(carleman_run):
    overall = carleman_run["claims"]
    ratios = [b / a for a, b in zip(overall, overall[1:])]
    ok = all(0.5 < r < 2.0 for r in ratios) and carleman_run["elapsed"] < 60.0
    _report(9, "structural bounds flat in the fold parameter", ok,
            f"measured constants {['%.3f' % v for v in overall]}, "
            f"doubling ratios {['%.3f' % r for r in ratios]} within (0.5, 2)")


def test_criterion_10_weighted_inequality(carleman_run):
    ok = [a for a in carleman_run["assertions"] if a[0] == "inequality_beta_stable"]
    passed = bool(ok and ok[0][1])
    _report(10, "weighted inequality constant stable in beta", passed,
            "measured C varies < 2x across beta in {32, 64, 128}, p in {8, 16}")


def test_criterion_11_exponent_bookkeeping():
    t0 = time.perf_counter()
    devs = []
    n0s = []
    for lam in (1.0, 2.0):
        table = exponent_bookkeeping(lam, 100.0 * lam, p=8.0)
        devs.append(abs(table.s_over_tau - math.exp(2 * lam)) / math.exp(2 * lam))
        n0s.extend(minimal_fold_parameter(alpha, lam) for alpha in (0.5, 0.9))
    elapsed = time.perf_counter() - t0
    ok = max(devs) < 0.05 and all(np.isfinite(n) for n in n0s) and elapsed < 1.0
    _report(11, "fold-parameter bookkeeping", ok,
            f"s/tau within {100 * max(devs):.2f}% of e^(2 lam) at n = 100 lam, "
            f"crossing folds n0 = {n0s}, runtime {elapsed:.2f}s < 1s")
