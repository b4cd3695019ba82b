"""The benchmark's workloads: which scenarios one pass runs, and why.

Each workload is a list of (scenario, params) steps run through
`calrlab.scenarios.run_scenario`.  The sizes are cut down from the scenario
defaults so that one pass takes a few seconds and a run of the benchmark
holds several passes; each workload keeps the mechanism it was chosen for
(see `why`), which the traced run shows.
"""
from __future__ import annotations

from dataclasses import dataclass

# The `seed` default of each scenario in calrlab.scenarios.  Benchmark seed s
# runs every scenario at its default seed plus s, so seed 0 reproduces the
# defaults and the recorded reference tables apply to it.
DEFAULT_SEEDS = {
    "dcm_convergence": 7,
    "blowup_scan": 11,
    "gluing_demo": 19,
    "three_sphere_suite": 23,
    "maxwell_3sphere_suite": 29,
    "carleman_suite": 31,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple

    def scenario_params(self, seed: int):
        """(scenario, params) pairs for benchmark seed `seed`."""
        for scenario, params in self.steps:
            if seed:
                params = {**params, "seed": DEFAULT_SEEDS[scenario] + seed}
            yield scenario, dict(params)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dcm_fine",
        why=("region-bound solver: staircase + Richardson over about 195 "
             "regions with few radial keys, so the per-region solve "
             "dominates and norms are minor"),
        # 96 layers (the default) keeps the region count; n_src=1 and two
        # losses keep the pass short.
        steps=(("dcm_convergence", {"n_src": 1, "deltas": [1e-2, 1e-3]}),),
    ),
    Workload(
        name="glue_high_order",
        why=("order-bound solver: few regions and many radial keys up to "
             "n=12, plus the field surgery; the only workload that "
             "evaluates fields"),
        steps=(("gluing_demo", {"n_src": 12, "layers": 16,
                                "deltas": [1e-2, 1e-3]}),),
    ),
    Workload(
        name="blowup_norms",
        why=("annulus and lossy-layer norms dominate; Bessel calls come "
             "from the many-argument evaluation path, so a solver-only "
             "gain barely shows here"),
        steps=(("blowup_scan", {"n_src": 2, "layers": 16,
                                "deltas": [1e-2, 1e-3]}),),
    ),
    Workload(
        name="analysis",
        why=("control: three-sphere and weighted-inequality suites that "
             "never call layered_maxwell, so solver, norms and Bessel "
             "changes should not move it"),
        steps=(
            ("three_sphere_suite", {"count": 100}),
            ("carleman_suite", {"ps": [8.0], "betas": [-32.0, -64.0],
                                "frame_count": 10, "claims_samples": 20}),
            ("maxwell_3sphere_suite", {"count": 20}),
        ),
    ),
)}
