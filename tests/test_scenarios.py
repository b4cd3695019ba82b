"""Pinned numbers of five scenarios at the small configs the CI and the
benchmark run.

No other test pins what `superlens`, `cm_cloak` and `maxwell_3sphere_suite`
measure.  `dcm_convergence` at the benchmark's `dcm_fine` params and
`gluing_demo` at the CI config are pinned tightly because their numbers are
fragile: one rounding in the solved coefficients shifts `gluing_demo`'s
`forcing_rel_dev` by about 10%.  A change that moves a pinned result by more
than its relative tolerance changes the measurement, and says so.
"""
import csv

import pytest

from calrlab.scenarios import run_scenario

# The small configs, at the default seed:
# scenario -> (params, {result key: recorded value}, relative tolerance).
RECORDED = {
    "superlens": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-5]},
                  {"errors": {"0.01": 0.19463776287154144,
                              "1e-05": 0.0001346899067619627}}, 1e-10),
    "cm_cloak": ({"n_src": 1, "layers": 8, "deltas": [1e-2, 1e-3]},
                 {"errors": {"0.01": 0.12353107650990781,
                             "0.001": 0.012239098918695523}}, 1e-10),
    "maxwell_3sphere_suite": ({"count": 20},
                              {"max_c": 0.823328377538009,
                               "base_max": 0.823328377538009,
                               "single_mode_c": 0.9999999999999996}, 1e-12),
    "dcm_convergence": ({"n_src": 1, "deltas": [1e-2, 1e-3]},
                        {"errors": {"0.01": 0.2887970707717797,
                                    "0.001": 0.02923120601106022}}, 1e-12),
    "gluing_demo": ({"n_src": 2, "layers": 16, "deltas": [1e-2, 1e-3]},
                    {"ratios": [0.8062212950722675, 0.816462551654296]}, 1e-12),
}
# Recorded CSV columns of the same runs, at the same tolerance:
# scenario -> (file, {column: recorded values}).
RECORDED_CSV = {
    "gluing_demo": ("gluing_demo.csv",
                    {"forcing_rel_dev": [2.035577911423e-09, 2.020771386643e-08]}),
}


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_results_match_recorded_values(tmp_path, scenario):
    params, recorded, rel = RECORDED[scenario]
    res = run_scenario(scenario, params, tmp_path)
    for key, value in recorded.items():
        assert res[key] == pytest.approx(value, rel=rel, abs=0.0), key
    filename, columns = RECORDED_CSV.get(scenario, (None, {}))
    if columns:
        with open(tmp_path / filename, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column, values in columns.items():
            got = [float(row[column]) for row in rows]
            assert got == pytest.approx(values, rel=rel, abs=0.0), column
