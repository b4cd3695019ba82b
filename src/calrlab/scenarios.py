"""The named experiments: each binds the library modules into one study.

Each scenario is registered with its parameter defaults and the tolerances
its manifest records; its body takes the merged parameters and returns its
tables (CSV file name -> (header, rows)), its results and its assertions, a
list of (name, passed, detail) triples.  `run_scenario` writes the CSV
tables plus a JSON manifest and returns the results with the assertions
added.  All randomness flows from the configured seed, and reductions are
ordered, so reruns with the same config are bit-identical.  Assertions read
numpy maxima and minima, which keep a NaN that the builtin max can drop.

Each scenario's `check` runs the library's own rules on what the run would
build, before any work, naming the param of a failing rule.  Each of the
five loss sweeps (`dcm_convergence`, `blowup_scan`, `superlens`, `cm_cloak`,
`gluing_demo`) is one `Sweep`, whose `check` covers the media `solves` solves.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .carleman import (
    BumpFunction,
    build_frame,
    carleman_inequality_check,
    check_inequality_args,
    constant_field,
    exponent_bookkeeping,
    lipschitz_test_field,
    minimal_fold_parameter,
    pushed_matrix,
    anchor_block,
    sample_folded_sector,
    verify_structural_claims,
)
from .layered_maxwell import (
    SurfaceCurrentSource,
    check_media_agree,
    mode,
    remove_localized_singularity,
    residual_reports,
    solve,
    sweep_norms,
)
from .layered_maxwell.refine import solve_staircased, staircase_levels
from .layered_maxwell.solver import _build_regions
from .layered_maxwell.staircase import graded_midpoints
from .media import dcm_maps, make_cm_cloak, make_dcm_example, make_superlens, vacuum_medium
from .report import write_csv, write_manifest
from .three_sphere import (
    HarmonicExpansion2D,
    PartialBoundary,
    SphericalExpansion,
    check_hadamard,
    check_maxwell_3sphere,
    empirical_alpha,
    random_modal_field,
)

SCENARIOS = {}


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: its body, parameter defaults, tolerances and check."""

    body: Callable
    defaults: dict
    tolerances: Callable    # merged params -> the manifest's tolerances
    check: Callable         # merged params -> ValueError before any work, if they break a rule


def scenario(name, defaults, tolerances=lambda p: {}, check=lambda p: None):
    def deco(fn):
        SCENARIOS[name] = Scenario(fn, defaults, tolerances, check)
        return fn
    return deco


def mixed_mode_source(radius: float, n_max: int, seed: int) -> SurfaceCurrentSource:
    """Random source with both polarizations and up to three m per n."""
    rng = np.random.default_rng(seed)
    amps = {}
    for n in range(1, n_max + 1):
        ms = sorted(set(int(m) for m in rng.integers(-n, n + 1, 3)))
        for m in ms:
            for pol in ("TE", "TM"):
                amps[mode(n, m, pol)] = complex(rng.standard_normal(),
                                                rng.standard_normal()) / n
    return SurfaceCurrentSource(radius=radius, amplitudes=amps)


# List params whose meaning fixes their length: an interval, a window, a
# radius triple, a pair of complex numbers.
_FIXED_LENGTH = ("annulus", "exterior", "radii", "object", "slope_window")
# List params of radii, which must increase strictly.
_RADII = ("annulus", "exterior", "radii", "radius_grid")


def _fit_loglog(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _named(param: str, rule, *args):
    """rule(*args), with param prefixed to the ValueError it may raise."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ValueError(f"{param}: {exc}") from None


@dataclass(frozen=True)
class Sweep:
    """The staircased solves of medium(p, delta) over the deltas, refined if
    richardson, and the plain solve of reference(p), compared on p["annulus"]."""

    medium: Callable                   # (params, delta) -> the medium at loss delta
    reference: Callable | None = None  # params -> the reference medium
    richardson: bool = True

    def check(self, p: dict) -> list:
        """Run the solver's rules on the media the run solves at the first
        loss, and return them: the staircase levels, then the reference."""
        if not min(p["deltas"]) > 0:
            raise ValueError("'deltas' must be positive")
        if len(set(p["deltas"])) < 2:
            raise ValueError("'deltas' needs at least two distinct values to compare")
        if p.get("p", 2.0) != 2.0:
            raise ValueError("'p' must be 2: a lossy p != 2 shell has a complex effective order")
        levels = staircase_levels(self.medium(p, p["deltas"][0]), p["layers"], self.richardson)
        refs = [] if self.reference is None else [self.reference(p)]
        for medium in levels + refs:
            _named(f"'r_s' {p['r_s']!r}", _build_regions, medium, p["r_s"])
        for level in levels if refs else []:
            _named(f"'annulus' {p['annulus']!r}", check_media_agree, level, *refs, *p["annulus"])
        return levels + refs

    def solves(self, p: dict):
        """(sols, ref): the solutions at the losses p["deltas"], in order,
        from one source and one `solve_staircased` call, and the reference
        solution (None without a reference)."""
        src = mixed_mode_source(p["r_s"], p["n_src"], p["seed"])
        ref = None if self.reference is None else solve(self.reference(p), src, p["omega"])
        sols = solve_staircased([self.medium(p, delta) for delta in p["deltas"]], src,
                                p["omega"], layers=p["layers"], richardson=self.richardson)
        return sols, ref


def _dcm(p, delta):
    return make_dcm_example(p["r1"], p["r2"], p.get("p", 2.0), delta)


def _superlens(p, delta):
    obj = p["object"]
    return make_superlens(p["r0"], p["m"], (complex(*obj[:2]), complex(*obj[2:])),
                          delta, r1=p["r1"])


# The loss sweeps, one per scenario; each one's `check` is its scenario's.
_DCM_CONVERGENCE = Sweep(_dcm, reference=lambda p: vacuum_medium())
_BLOWUP_SCAN = Sweep(_dcm, richardson=False)
_SUPERLENS = Sweep(lambda p, delta: _superlens(p, delta)[0],
                   reference=lambda p: _superlens(p, 0.0)[1])
_CM_CLOAK = Sweep(lambda p, delta: make_cm_cloak(p["r2"], p["r3"], None, delta),
                  reference=lambda p: vacuum_medium())
_GLUING_DEMO = Sweep(_dcm, richardson=False)


@scenario("dcm_convergence",
          defaults={"r1": 1.0, "r2": 2.0, "p": 2.0, "omega": 1.0, "r_s": 5.0,
                    "n_src": 6, "seed": 7, "layers": 96,
                    "deltas": [1e-2, 1e-3, 1e-4, 1e-5], "annulus": [4.0, 6.0],
                    "slope_window": [0.85, 1.15], "bound_variation": 0.10},
          tolerances=lambda p: {"slope_window": p["slope_window"],
                                "bound_variation": p["bound_variation"]},
          check=_DCM_CONVERGENCE.check)
def run_dcm_convergence(p: dict):
    """err(delta) against the homogenized limit, with the uniform exterior bound."""
    sols, vac = _DCM_CONVERGENCE.solves(p)
    rows = []
    for delta, sol, norms in zip(p["deltas"], sols, sweep_norms(
            sols, annuli=[p["annulus"]], ref=vac, diff_annuli=[p["annulus"]])):
        (ext,), (err,) = norms.annuli, norms.diffs
        rows.append([delta, err, ext, ext / math.sqrt(sol.source.l2_norm_sq())])
    _, errs, _, bounds = zip(*rows)
    slope = _fit_loglog(p["deltas"], errs)
    variation = (np.max(bounds) - np.min(bounds)) / np.max(bounds)
    tables = {"dcm_convergence.csv":
              (["delta", "err_l2", "exterior_l2", "exterior_over_j"], rows)}
    assertions = [
        ("slope_in_window",
         p["slope_window"][0] <= slope <= p["slope_window"][1],
         f"slope={slope:.4f} window={p['slope_window']}"),
        ("exterior_bound_uniform", variation < p["bound_variation"],
         f"variation={variation:.4f}"),
    ]
    results = {"slope": slope, "bound_variation": variation,
               "errors": dict(zip(map(str, p["deltas"]), errs))}
    return tables, results, assertions


@scenario("blowup_scan",
          defaults={"r1": 1.0, "r2": 2.0, "p": 2.0, "omega": 1.0, "r_s": 3.0,
                    "n_src": 4, "seed": 11, "layers": 64,
                    "deltas": [1e-2, 1e-3, 1e-4, 1e-5], "exterior": [4.0, 6.0]},
          check=_BLOWUP_SCAN.check)
def run_blowup_scan(p: dict):
    """Shell-norm growth for a source between r2 and r3 (localized resonance)."""
    sols, _ = _BLOWUP_SCAN.solves(p)
    rows = []
    for delta, sol, norms in zip(p["deltas"], sols, sweep_norms(
            sols, annuli=[(p["r1"], p["r2"]), p["exterior"]], deltas=p["deltas"])):
        (s_norm, e_norm), rep = norms.annuli, norms.data
        j_norm = math.sqrt(sol.source.l2_norm_sq())
        rows.append([delta, s_norm, e_norm, e_norm / j_norm,
                     rep.value, s_norm ** 2 / rep.value])
    _, shell, exterior, *_ = zip(*rows)
    growth = -_fit_loglog(p["deltas"], shell)
    tables = {"blowup_scan.csv":
              (["delta", "shell_l2", "exterior_l2", "exterior_over_j",
                "data_functional", "shell_sq_over_data"], rows)}
    ext_variation = (np.max(exterior) - np.min(exterior)) / np.max(exterior)
    assertions = [
        ("exterior_bounded", ext_variation < 0.5,
         f"variation={ext_variation:.4f}"),
    ]
    results = {"shell_growth_exponent": growth,
               "exterior_variation": ext_variation}
    return tables, results, assertions


@scenario("superlens",
          defaults={"m": 4.0, "r0": 0.5, "r1": 1.0, "object": [2.0, 0.0, 2.0, 0.0],
                    "omega": 1.0, "r_s": 5.0, "n_src": 4, "seed": 13, "layers": 96,
                    "deltas": [1e-2, 1e-3, 1e-4, 1e-5], "annulus": [4.0, 6.0],
                    "ratio_bound": 1e-2},
          tolerances=lambda p: {"ratio_bound": p["ratio_bound"]},
          check=_SUPERLENS.check)
def run_superlens(p: dict):
    """Convergence to the magnified reference as the shell loss vanishes."""
    sols, ref = _SUPERLENS.solves(p)
    rows = [[delta, norms.diffs[0]] for delta, norms in zip(
        p["deltas"], sweep_norms(sols, ref=ref, diff_annuli=[p["annulus"]]))]
    errs = [err for _, err in rows]
    tables = {"superlens.csv": (["delta", "err_vs_reference"], rows)}
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ratio = errs[-1] / errs[0]
    assertions = [
        ("err_monotone_in_delta", monotone, f"errors={errs}"),
        ("deep_loss_ratio", ratio < p["ratio_bound"],
         f"err({p['deltas'][-1]})/err({p['deltas'][0]}) = {ratio:.3e}"),
    ]
    results = {"errors": dict(zip(map(str, p["deltas"]), errs)),
               "ratio": ratio}
    return tables, results, assertions


@scenario("cm_cloak",
          defaults={"r2": 1.0, "r3": 2.0, "omega": 1.0, "r_s": 5.0, "n_src": 3,
                    "seed": 17, "layers": 96, "deltas": [1e-2, 1e-3, 1e-4],
                    "annulus": [3.0, 5.0]},
          check=_CM_CLOAK.check)
def run_cm_cloak(p: dict):
    """Annulus cloak against free space: exterior error vs loss."""
    sols, vac = _CM_CLOAK.solves(p)
    rows = [[delta, norms.diffs[0]] for delta, norms in zip(
        p["deltas"], sweep_norms(sols, ref=vac, diff_annuli=[p["annulus"]]))]
    errs = [err for _, err in rows]
    tables = {"cm_cloak.csv": (["delta", "err_vs_free_space"], rows)}
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    assertions = [("err_monotone_in_delta", monotone, f"errors={errs}")]
    results = {"errors": dict(zip(map(str, p["deltas"]), errs))}
    return tables, results, assertions


def _gluing_radii(p: dict, medium) -> list:
    """The residual sample radii of `gluing_demo` on its staircased DCM
    medium: the reflections r2^2/m of the shell's sublayer midpoints m that
    lie in (1.1 r2, 0.95 r3), every 12th in increasing order."""
    r2sq = p["r2"] * p["r2"]
    r3 = medium.provenance["r3"]
    return sorted(r2sq / m for m in graded_midpoints(medium, p["r1"], p["r2"])
                  if 1.1 * p["r2"] < r2sq / m < 0.95 * r3)[::12]


def _gluing_check(p: dict) -> None:
    """`gluing_demo`'s sweep check, and a shell thick enough to leave
    residual sample radii (r2/r1 above about 1.158)."""
    (medium,) = _GLUING_DEMO.check(p)
    if not _gluing_radii(p, medium):
        raise ValueError(f"'r1' {p['r1']} and 'r2' {p['r2']} leave no residual "
                         "sample radius r2^2/m in (1.1 r2, 0.95 r3)")


@scenario("gluing_demo",
          defaults={"r1": 1.0, "r2": 2.0, "omega": 1.0, "r_s": 5.0, "n_src": 2,
                    "seed": 19, "layers": 192, "deltas": [1e-2, 1e-3, 1e-4],
                    "jump_tol": 1e-6, "ratio_variation": 2.0},
          tolerances=lambda p: {"jump_tol": p["jump_tol"]},
          check=_gluing_check)
def run_gluing_demo(p: dict):
    """Removing the localized singularity: jump residuals and the delta-forcing."""
    # without Richardson, sol.medium is the staircased DCM that was solved;
    # its layer geometry, and so the sample radii, is the same for every loss
    glued = [remove_localized_singularity(sol, *dcm_maps(sol.medium))
             for sol in _GLUING_DEMO.solves(p)[0]]
    reports = residual_reports(glued, _gluing_radii(p, glued[0].sol.medium), seed=p["seed"])
    rows = [[delta, rep.jump_rel_r2, rep.jump_rel_r3, rep.maxwell_resid_norm,
             rep.maxwell_resid_norm / delta, rep.forcing_rel_deviation]
            for delta, rep in zip(p["deltas"], reports)]
    ratios = [row[4] for row in rows]
    jumps = [np.max(row[1:3]) for row in rows]
    tables = {"gluing_demo.csv":
              (["delta", "jump_rel_r2", "jump_rel_r3", "maxwell_resid",
                "resid_over_delta", "forcing_rel_dev"], rows)}
    variation = np.max(ratios) / np.min(ratios)
    assertions = [
        ("jump_residuals_small", np.max(jumps) < p["jump_tol"],
         f"max jump={np.max(jumps):.3e}"),
        ("resid_over_delta_bounded", variation < p["ratio_variation"],
         f"variation={variation:.3f}"),
    ]
    results = {"ratios": ratios, "jumps": jumps}
    return tables, results, assertions


# Fixed thresholds, read by the assertion and by the manifest's tolerances.
_RATIO_BOUND = 1e-10
_MONOMIAL_TOL = 1e-12
# Polynomials per `check_hadamard` call in `three_sphere_suite`: one call
# per block keeps its stacks, and the suite's memory, flat in `count`.
_HADAMARD_BLOCK = 256
# Largest anchor deviation of `carleman_suite`, relative to the anchor block.
_ANCHOR_TOL = 1e-10


def _alpha_boundary(r0: float) -> PartialBoundary:
    """The unit-sphere partial boundary of `three_sphere_suite` at excision r0."""
    return PartialBoundary(radius=1.0, excision=r0, quad_order=48)


@scenario("three_sphere_suite",
          defaults={"count": 1000, "max_degree": 30,
                    "radius_grid": [0.5, 1.0, 1.5, 2.0, 2.5],
                    "monomial_max": 50, "seed": 23,
                    "alpha_excisions": [0.2, 0.1, 0.05]},
          tolerances=lambda p: {"ratio_bound": _RATIO_BOUND,
                                "monomial_tol": _MONOMIAL_TOL},
          check=lambda p: [_named(f"'alpha_excisions' entry {r0!r}", _alpha_boundary, r0)
                           for r0 in p["alpha_excisions"]])
def run_three_sphere_suite(p: dict):
    """Planar sup-norm interpolation plus the partial-data evidence table."""
    rng = np.random.default_rng(p["seed"])
    triples = list(itertools.combinations(p["radius_grid"], 3))
    ratios = []
    rows = []
    for start in range(0, p["count"], _HADAMARD_BLOCK):
        items = []
        for idx in range(start, min(start + _HADAMARD_BLOCK, p["count"])):
            deg = int(rng.integers(1, p["max_degree"] + 1))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            items.append((HarmonicExpansion2D.holomorphic(coeffs),
                          triples[idx % len(triples)]))
        for idx, ((_, radii), (lhs, rhs, _, ratio)) in enumerate(
                zip(items, check_hadamard(items)), start):
            ratios.append(ratio)
            if idx < 200:
                rows.append(["hadamard", *radii, 0.0, lhs, rhs, ratio])
    worst = np.max(ratios)
    monomials = [(HarmonicExpansion2D.holomorphic([0.0] * k + [1.0]), (0.5, 1.1, 2.5))
                 for k in range(1, p["monomial_max"] + 1)]
    mono_dev = np.max([abs(ratio - 1.0) for *_, ratio in check_hadamard(monomials)])
    family = [SphericalExpansion(kind="harmonic", coeffs={(n, 0): (1.0, 0.0)})
              for n in range(12, 40)]
    fits = empirical_alpha(family, [_alpha_boundary(r0) for r0 in p["alpha_excisions"]],
                           (1.44, 1.46), (1.0, 2.0))
    alpha_rows = [["empirical_alpha", 1.0, 1.45, 2.0, r0, fit.alpha_hat, fit.intercept, fit.count]
                  for r0, fit in zip(p["alpha_excisions"], fits)]
    tables = {"three_sphere_suite.csv":
              (["experiment", "r1", "r2", "r3", "r0", "lhs_or_alpha",
                "rhs_or_intercept", "ratio_or_count"], rows + alpha_rows)}
    assertions = [
        ("hadamard_ratio_bound", worst <= 1.0 + _RATIO_BOUND,
         f"max ratio={worst:.12f}"),
        ("monomial_equality", mono_dev < _MONOMIAL_TOL,
         f"max |ratio-1|={mono_dev:.2e}"),
    ]
    results = {"max_ratio": worst, "monomial_deviation": mono_dev,
               "alpha_fits": [r[5] for r in alpha_rows]}
    return tables, results, assertions


@scenario("maxwell_3sphere_suite",
          defaults={"count": 200, "n_max": 20, "radii": [1.0, 1.5, 2.0], "seed": 29,
                    "stability": 0.2},
          tolerances=lambda p: {"stability": p["stability"]})
def run_maxwell_3sphere_suite(p: dict):
    """Randomized interpolation constants for the tangential-trace modal norm."""
    rng = np.random.default_rng(p["seed"])
    r1, r2, r3 = p["radii"]
    cs = []
    rows = []
    for idx in range(2 * p["count"]):
        f = random_modal_field(p["n_max"], rng)
        lhs, rhs, c = check_maxwell_3sphere(f, r1, r2, r3)
        cs.append(c)
        if idx < 100:
            rows.append(["maxwell", r1, r2, r3, 0.0, lhs, rhs, c])
    base_max = np.max(cs[:p["count"]])
    full_max = np.max(cs)
    single = check_maxwell_3sphere({(4, 2): (0.5, 0.1j, 0.2, 0.0)}, r1, r2, r3)[2]
    tables = {"maxwell_3sphere_suite.csv":
              (["experiment", "r1", "r2", "r3", "r0", "lhs", "rhs", "measured_c"],
               rows)}
    assertions = [
        ("constant_finite", np.isfinite(full_max), f"max C={full_max}"),
        ("doubling_stability",
         abs(full_max - base_max) <= p["stability"] * base_max,
         f"base={base_max:.6f} doubled={full_max:.6f}"),
        ("single_mode_closed_form", abs(single - 1.0) < 1e-8,
         f"C={single:.12f}"),
    ]
    results = {"max_c": full_max, "base_max": base_max, "single_mode_c": single}
    return tables, results, assertions


def _carleman_check(p: dict) -> None:
    for pw, beta in itertools.product(p["ps"], p["betas"]):
        _named(f"'ps' entry {pw!r} with 'betas' entry {beta!r}", check_inequality_args, beta, pw)
    _named(f"'claims_lam' {p['claims_lam']!r}", lipschitz_test_field, p["claims_lam"])


@scenario("carleman_suite",
          defaults={"seed": 31, "frame_count": 50, "frame_lam": 10.0,
                    "frame_folds": [10.0, 20.0, 40.0], "claims_lam": 1.5,
                    "claims_samples": 80, "ps": [8.0, 16.0],
                    "betas": [-32.0, -64.0, -128.0],
                    "bookkeeping_lams": [1.0, 2.0], "alphas": [0.5, 0.9]},
          tolerances=lambda p: {"anchor_tol": _ANCHOR_TOL},
          check=_carleman_check)
def run_carleman_suite(p: dict):
    """Frame exactness, claim flatness, the weighted inequality, bookkeeping."""
    rng = np.random.default_rng(p["seed"])
    # 1) anchor exactness
    devs = []
    for _ in range(p["frame_count"]):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        eigs = rng.uniform(1.0 / p["frame_lam"], p["frame_lam"], 3)
        m0 = q @ np.diag(eigs) @ q.T
        fr = build_frame(m0, z3=float(rng.uniform(-0.3, 0.3)))
        for n in p["frame_folds"]:
            x = sample_folded_sector(fr, n, 3, rng)
            # both sides scale with gamma, which grows with frame_lam:
            # the deviation is relative to the anchor block's size
            block = anchor_block(fr, n, x)
            devs.append(np.max(np.abs(pushed_matrix(fr, n, constant_field(m0), x) - block))
                        / np.max(np.abs(block)))
    worst_dev = np.max(devs)
    # 2) structural claims: flat in the fold parameter
    lam = p["claims_lam"]
    field = lipschitz_test_field(lam)
    fr = build_frame(field(np.zeros(3)), lam=lam)
    folds = [10.0 * lam, 20.0 * lam, 40.0 * lam]
    claim_rows = []
    overall = []
    for n in folds:
        b = verify_structural_claims(fr, n, field, count=p["claims_samples"],
                                     seed=p["seed"])
        overall.append(b.overall)
        claim_rows.append([n, "lower", b.lower])
        claim_rows.append([n, "drift", b.drift])
        claim_rows.append([n, "bquad", b.bquad])
    tables = {"carleman_claims.csv": (["n", "claim", "measured"], claim_rows)}
    flat = all(0.5 < b / a < 2.0 for a, b in zip(overall, overall[1:]))
    # 3) weighted inequality sweep
    bump = BumpFunction(a=0.68, b=0.92)
    ineq_rows = []
    sweep_ok = True
    for pw in p["ps"]:
        cs = []
        for beta in p["betas"]:
            for m_name, m in (("identity", np.eye(3)),
                              ("anisotropic", np.diag([1.4, 0.8, 1.0]))):
                check = carleman_inequality_check(m, bump, beta=beta, p=pw)
                ineq_rows.append([pw, beta, m_name, check.measured_c])
                if m_name == "identity":
                    cs.append(check.measured_c)
        sweep_ok = sweep_ok and all(0.5 < b / a < 2.0 for a, b in zip(cs, cs[1:]))
    tables["carleman_inequality.csv"] = (["p", "beta", "medium", "measured_c"],
                                         ineq_rows)
    # 4) bookkeeping
    book_ok = True
    book_rows = []
    for lam_b in p["bookkeeping_lams"]:
        table = exponent_bookkeeping(lam_b, 100.0 * lam_b, p=8.0)
        dev = abs(table.s_over_tau - math.exp(2 * lam_b)) / math.exp(2 * lam_b)
        book_ok = book_ok and dev < 0.05
        n0s = [minimal_fold_parameter(alpha, lam_b) for alpha in p["alphas"]]
        book_rows.append([lam_b, table.s_over_tau, math.exp(2 * lam_b), dev,
                          *n0s])
    tables["carleman_bookkeeping.csv"] = (
        ["lam", "s_over_tau", "e_2lam", "rel_dev",
         *[f"n0_alpha_{a}" for a in p["alphas"]]], book_rows)
    assertions = [
        ("anchor_exactness", worst_dev < _ANCHOR_TOL,
         f"max deviation={worst_dev:.2e}"),
        ("claims_flat_in_fold", flat, f"overall={overall}"),
        ("inequality_beta_stable", sweep_ok, "see carleman_inequality.csv"),
        ("bookkeeping_limits", book_ok, "see carleman_bookkeeping.csv"),
    ]
    results = {"anchor_deviation": worst_dev, "claims": overall}
    return tables, results, assertions


def _same_kind(value, default) -> bool:
    """Whether a JSON value has its default's type: a number (an integer
    where the default is one) or a list of such numbers."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0])
                                               for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _check_list(key: str, value: list, default: list) -> None:
    """The rules a list param obeys whatever its scenario."""
    if key in _FIXED_LENGTH and len(value) != len(default):
        raise ValueError(f"'{key}' needs {len(default)} entries, like its "
                         f"default {default!r}")
    if key == "radius_grid" and len(value) < 3:
        raise ValueError("'radius_grid' needs at least 3 radii to form a triple")
    if not value:
        raise ValueError(f"'{key}' must not be empty")
    if key in _RADII and not value[0] > 0:
        raise ValueError(f"'{key}' needs positive radii, not {value[0]!r}")
    if key in _RADII and not all(lo < hi for lo, hi in zip(value, value[1:])):
        raise ValueError(f"'{key}' must increase strictly")


def scenario_params(name: str, params: dict) -> dict:
    """The scenario's defaults updated by params, after the scenario's `check`.

    Raises ValueError naming the param for a key the defaults lack, a value
    of another type than its default, a number or list entry that is not
    finite (JSON NaN or Infinity), a number that is not positive (a `seed`
    that is negative) or a list that breaks a rule of `_check_list`, and
    for merged params that fail the check (docs/schemas.md lists them all).
    """
    defaults = SCENARIOS[name].defaults
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"unknown param {key!r} for scenario {name!r}; "
                             f"known: {sorted(defaults)}")
        if not _same_kind(value, defaults[key]):
            raise ValueError(f"param {key!r} must have the type of its default "
                             f"{defaults[key]!r}")
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"param {key!r} must be finite, not {value!r}")
        if isinstance(value, list):
            _check_list(key, value, defaults[key])
        elif not (value >= 0 if key == "seed" else value > 0):
            raise ValueError(f"param {key!r} must be {'>= 0' if key == 'seed' else '> 0'}"
                             f", not {value!r}")
    merged = {**defaults, **params}
    SCENARIOS[name].check(merged)
    return merged


def run_scenario(name: str, params: dict, outdir) -> dict:
    """Run one scenario, write its CSV tables and manifest into outdir, and
    return its results with the "assertions" triples added."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    sc = SCENARIOS[name]
    p = scenario_params(name, params)
    tables, results, assertions = sc.body(p)
    outdir = Path(outdir)
    for filename, (header, rows) in tables.items():
        write_csv(outdir / filename, header, rows)
    results["assertions"] = assertions
    write_manifest(outdir / f"{name}.manifest.json", p, results, sc.tolerances(p))
    return results
