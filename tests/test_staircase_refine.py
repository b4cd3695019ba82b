"""Staircase convergence and Richardson refinement of graded shells."""
import math

import numpy as np
import pytest

from calrlab.layered_maxwell import SurfaceCurrentSource, mode, solve, staircase
from calrlab.layered_maxwell.refine import richardson_exterior, solve_staircased
from calrlab.media import make_dcm_example


def _exterior_coef(sol, n, pol):
    return sol.table([-1], [(n, pol)]).c_y.to_complex()[0, 0]


def test_staircase_convergence_p3_shell():
    # anisotropic graded shell (fractional effective orders); the solve is
    # verifiably nonsingular at delta = 0 for a source outside the structure
    med = make_dcm_example(1.0, 2.0, p=3.0, delta=0.0)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(2, 0, "TM"): 1.0})
    vals = {}
    for layers in (16, 32, 64, 128):
        sol = solve(staircase(med, layers), src, 1.0)
        vals[layers] = _exterior_coef(sol, 2, "TM")
    diffs = [abs(vals[2 * L] - vals[L]) for L in (16, 32, 64)]
    # at least first-order: doubling the layer count at least halves the
    # refinement deviation (midpoint sampling actually converges at
    # second order, so the observed ratios sit near 1/4)
    for a, b in zip(diffs[:-1], diffs[1:]):
        assert b <= 0.65 * a
    order = math.log2(diffs[0] / diffs[1])
    assert order > 0.9


def test_richardson_extrapolation_stability():
    med = make_dcm_example(1.0, 2.0, p=3.0, delta=0.0)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(2, 0, "TM"): 1.0})
    ext = {}
    for layers in (64, 128):
        ext[layers] = _exterior_coef(
            solve_staircased([med], src, 1.0, layers=layers)[0], 2, "TM")
    scale = abs(ext[128])
    assert abs(ext[128] - ext[64]) / scale < 1e-6


def test_lossy_p2_shell_richardson_matches_deep_staircase():
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    rich = _exterior_coef(solve_staircased([med], src, 1.0, layers=48)[0], 1, "TE")
    deep = _exterior_coef(solve(staircase(med, 1536), src, 1.0), 1, "TE")
    assert rich == pytest.approx(deep, rel=1e-6)


def test_lossy_anisotropic_layer_rejected():
    med = staircase(make_dcm_example(1.0, 2.0, p=3.0, delta=1e-3), 8)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    with pytest.raises(NotImplementedError):
        solve(med, src, 1.0)


def test_piecewise_constant_passthrough():
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=1e-2)
    st = staircase(med, 4)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0})
    a, = solve_staircased([st], src, 1.0, layers=99)   # already constant: plain solve
    b = solve(st, src, 1.0)
    assert _exterior_coef(a, 1, "TE") == _exterior_coef(b, 1, "TE")


def test_richardson_tables_match_per_region_extrapolation():
    # the refined tables are 4/3 hi - 1/3 lo, bit for bit, on every region
    # whose interval both solves have (the core, and the vacuum split at the
    # source into an inner part and the exterior) and hi's own coefficients
    # inside the staircased shell
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=1e-3)
    amps = {mode(n, 0, pol): 1.0 for n in (1, 2) for pol in ("TE", "TM")}
    src = SurfaceCurrentSource(radius=5.0, amplitudes=amps)
    lo, hi = solve(staircase(med, 4), src, 1.0), solve(staircase(med, 8), src, 1.0)
    rich = richardson_exterior(lo, hi)
    lo_index = {(reg.r_lo, reg.r_hi): i for i, reg in enumerate(lo.regions)}
    shared = 0
    for key in hi.radial:
        for j, reg in enumerate(hi.regions):
            got = rich.table([j], [key])
            i = lo_index.get((reg.r_lo, reg.r_hi))
            want = hi.table([j], [key])
            if i is not None:
                shared += 1
                c_lo = lo.table([i], [key])
                want = want._replace(c_j=4.0 / 3.0 * want.c_j - 1.0 / 3.0 * c_lo.c_j,
                                     c_y=4.0 / 3.0 * want.c_y - 1.0 / 3.0 * c_lo.c_y)
            for a, b in zip(got, want):
                if hasattr(a, "m"):
                    assert np.array_equal(a.m, b.m) and np.array_equal(a.e, b.e)
                else:
                    assert np.array_equal(a, b)
    assert shared == 3 * len(hi.radial)
    assert len(hi.regions) == 3 + 8
    assert rich.radial is hi.radial and rich.regions == hi.regions
