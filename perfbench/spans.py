"""Span tracing of calrlab's layers from outside the package.

`Tracer.install()` rebinds each traced function under every name a calrlab
module binds it to (modules import by name, so `solver.hat_jy`,
`refine.solve`, `scenarios.solve`, ... are separate bindings), and
`Tracer.restore()` puts every original back.  Spans nest: a span's self time
is its duration minus the time of the spans opened inside it, so the self
times of all spans plus the enclosing `scenarios` span add up to the traced
wall time.  A group's total is the time from entering its outermost traced
function to leaving it, children included.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np


def _count_args(counts, name, fn, args, kwargs):
    counts[name + ".args"] += int(np.size(args[1] if len(args) > 1 else kwargs["z"]))
    return fn(*args, **kwargs)


def _count_points(counts, name, fn, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts[name + ".points"] += len(np.atleast_2d(np.asarray(points)))
    return fn(*args, **kwargs)


def _solve(counts, name, fn, args, kwargs):
    # The solver reports near-singular modes and interface residuals with
    # warnings.warn, which no scenario records; count them, then re-issue.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = fn(*args, **kwargs)
    counts[name + ".guard_warnings"] += len(caught)
    counts[name + ".radial_solves"] += len(sol.radial)
    counts[name + ".region_steps"] += len(sol.radial) * len(sol.regions)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return sol


def _adaptive_gauss(counts, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    integrand = bound.arguments["fn"]
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        counts[name + ".nodes"] += int(np.size(x))
        return integrand(x)

    bound.arguments["fn"] = counted
    result = fn(*bound.args, **bound.kwargs)
    counts[name + ".integrand_evals"] += calls
    # It returns its last estimate without a word when the doublings run
    # out; a quadrature that used every doubling is counted as unconverged.
    if calls == 2 ** (bound.arguments["max_doublings"] + 1) - 1:
        counts[name + ".unconverged"] += 1
    return result


def _count_bytes(counts, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    with open(args[0], "rb") as fh:
        counts["report.bytes"] += len(fh.read())
    return result


# (module, attribute, span name, group, call hook)
TARGETS = (
    ("calrlab.specfun.bessel", "hat_jy", "specfun.hat_jy", "specfun", _count_args),
    ("calrlab.specfun.bessel", "hat_h1", "specfun.hat_h1", "specfun", None),
    ("calrlab.specfun.vsh", "vsh_table", "specfun.vsh_table", "specfun", None),
    ("calrlab.media.radial", "make_dcm_example", "media.build", "media", None),
    ("calrlab.media.radial", "make_superlens", "media.build", "media", None),
    ("calrlab.media.radial", "make_cm_cloak", "media.build", "media", None),
    ("calrlab.media.radial", "vacuum_medium", "media.build", "media", None),
    ("calrlab.layered_maxwell.staircase", "staircase", "media.build", "media", None),
    ("calrlab.layered_maxwell.solver", "solve", "layered_maxwell.solve",
     "layered_maxwell.solver", _solve),
    ("calrlab.layered_maxwell.refine", "solve_staircased",
     "layered_maxwell.solve_staircased", "layered_maxwell.solver", None),
    ("calrlab.layered_maxwell.refine", "richardson_exterior",
     "layered_maxwell.richardson_exterior", "layered_maxwell.solver", None),
    ("calrlab.layered_maxwell.norms", "l2_norm_annulus",
     "layered_maxwell.l2_norm_annulus", "layered_maxwell.norms", None),
    ("calrlab.layered_maxwell.norms", "l2_norm_annulus_diff",
     "layered_maxwell.l2_norm_annulus_diff", "layered_maxwell.norms", None),
    ("calrlab.layered_maxwell.norms", "data_quantity",
     "layered_maxwell.data_quantity", "layered_maxwell.norms", None),
    ("calrlab.layered_maxwell.norms", "adaptive_gauss",
     "layered_maxwell.adaptive_gauss", "layered_maxwell.norms", _adaptive_gauss),
    ("calrlab.layered_maxwell.fields", "eval_field_many",
     "layered_maxwell.eval_field_many", "layered_maxwell.fields", _count_points),
    ("calrlab.layered_maxwell.fields", "GluedField.residual_report",
     "layered_maxwell.residual_report", "layered_maxwell.fields", None),
    ("calrlab.three_sphere.harmonic2d", "check_hadamard",
     "three_sphere.check_hadamard", "three_sphere", None),
    ("calrlab.three_sphere.partial", "empirical_alpha",
     "three_sphere.empirical_alpha", "three_sphere", None),
    ("calrlab.three_sphere.maxwell_norms", "check_maxwell_3sphere",
     "three_sphere.check_maxwell_3sphere", "three_sphere", None),
    ("calrlab.three_sphere.maxwell_norms", "random_modal_field",
     "three_sphere.random_modal_field", "three_sphere", None),
    ("calrlab.carleman.weights", "carleman_inequality_check",
     "carleman.carleman_inequality_check", "carleman", None),
    ("calrlab.carleman.matrices", "verify_structural_claims",
     "carleman.verify_structural_claims", "carleman", None),
    ("calrlab.report", "write_csv", "report.write", "report", _count_bytes),
    ("calrlab.report", "write_manifest", "report.write", "report", _count_bytes),
)

# The per-layer metrics a traced run reports, with their units.  `scenarios`
# is the span around run_scenario; its self time is the scaffolding and
# every function not traced above.
PER_LAYER = (
    ("specfun.hat_jy.calls", "count"),
    ("specfun.hat_jy.args", "count"),
    ("specfun.hat_jy.self_s", "s"),
    ("specfun.hat_h1.calls", "count"),
    ("specfun.hat_h1.self_s", "s"),
    ("specfun.vsh_table.calls", "count"),
    ("specfun.vsh_table.self_s", "s"),
    ("media.build.calls", "count"),
    ("media.build.self_s", "s"),
    ("layered_maxwell.solve.calls", "count"),
    ("layered_maxwell.solve.radial_solves", "count"),
    ("layered_maxwell.solve.region_steps", "count"),
    ("layered_maxwell.solve.guard_warnings", "count"),
    ("layered_maxwell.solve.self_s", "s"),
    ("layered_maxwell.solve_staircased.calls", "count"),
    ("layered_maxwell.solve_staircased.self_s", "s"),
    ("layered_maxwell.richardson_exterior.self_s", "s"),
    ("layered_maxwell.l2_norm_annulus.calls", "count"),
    ("layered_maxwell.l2_norm_annulus.self_s", "s"),
    ("layered_maxwell.l2_norm_annulus_diff.calls", "count"),
    ("layered_maxwell.l2_norm_annulus_diff.self_s", "s"),
    ("layered_maxwell.data_quantity.calls", "count"),
    ("layered_maxwell.data_quantity.self_s", "s"),
    ("layered_maxwell.adaptive_gauss.calls", "count"),
    ("layered_maxwell.adaptive_gauss.integrand_evals", "count"),
    ("layered_maxwell.adaptive_gauss.nodes", "count"),
    ("layered_maxwell.adaptive_gauss.unconverged", "count"),
    ("layered_maxwell.adaptive_gauss.self_s", "s"),
    ("layered_maxwell.eval_field_many.calls", "count"),
    ("layered_maxwell.eval_field_many.points", "count"),
    ("layered_maxwell.eval_field_many.self_s", "s"),
    ("layered_maxwell.residual_report.calls", "count"),
    ("layered_maxwell.residual_report.self_s", "s"),
    ("three_sphere.check_hadamard.calls", "count"),
    ("three_sphere.check_hadamard.self_s", "s"),
    ("three_sphere.empirical_alpha.self_s", "s"),
    ("three_sphere.check_maxwell_3sphere.calls", "count"),
    ("three_sphere.check_maxwell_3sphere.self_s", "s"),
    ("three_sphere.random_modal_field.self_s", "s"),
    ("carleman.carleman_inequality_check.calls", "count"),
    ("carleman.carleman_inequality_check.self_s", "s"),
    ("carleman.verify_structural_claims.self_s", "s"),
    ("report.write.calls", "count"),
    ("report.write.self_s", "s"),
    ("report.bytes", "B"),
    ("scenarios.self_s", "s"),
    ("specfun.total_s", "s"),
    ("layered_maxwell.solver.total_s", "s"),
    ("layered_maxwell.norms.total_s", "s"),
    ("layered_maxwell.fields.total_s", "s"),
    ("three_sphere.total_s", "s"),
    ("carleman.total_s", "s"),
    ("traced.wall_s", "s"),
    ("tracing.overhead_s", "s"),
)


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span and count recorder for one pass; install() before, restore() after."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._open = []          # [start, child seconds] of each open span
        self._depth = Counter()  # open spans per group
        self._bindings = []      # (owner, attribute, original)

    def span(self, name, group, fn, hook=None):
        """Wrap fn so that each call is a span; a hook(counts, name, fn, args,
        kwargs) makes the call itself, to count what it sees."""
        def run(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._open.append(frame)
            self._depth[group] += 1
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self.counts, name, fn, args, kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._open.pop()
                self.self_s[name] += elapsed - frame[1]
                if self._open:
                    self._open[-1][1] += elapsed
                self._depth[group] -= 1
                if not self._depth[group]:
                    self.total_s[group] += elapsed
                self.counts[name + ".calls"] += 1
        return run

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "calrlab" or key.startswith("calrlab.")]
        for module, attr, name, group, hook in TARGETS:
            owner, attr_name = _resolve(module, attr)
            original = getattr(owner, attr_name)
            traced = self.span(name, group, original, hook)
            if isinstance(owner, type):
                # a method: bound through its class only
                self._bind(owner, attr_name, original, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, traced)

    def _bind(self, owner, key, original, traced):
        self._bindings.append((owner, key, original))
        setattr(owner, key, traced)

    def restore(self):
        while self._bindings:
            owner, key, original = self._bindings.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict:
        """Every span's self time, group totals and counts, by metric name."""
        out = {f"{name}.self_s": v for name, v in self.self_s.items()}
        out.update({f"{group}.total_s": v for group, v in self.total_s.items()})
        out.update(self.counts)
        return out
