"""Solution export: JSON coefficient tables and CSV field scans."""
import json

import numpy as np

from calrlab.layered_maxwell import SurfaceCurrentSource, mode, solve, staircase
from calrlab.layered_maxwell.io import FIELD_SCAN_HEADER, field_scan_rows, solution_to_json
from calrlab.media import make_dcm_example
from calrlab.report import write_csv


def _solution():
    med = staircase(make_dcm_example(1.0, 2.0, 2.0, 1e-3), 4)
    src = SurfaceCurrentSource(radius=5.0, amplitudes={mode(1, 0, "TE"): 1.0,
                                                       mode(2, 1, "TM"): 0.5j})
    return solve(med, src, 1.0)


def test_solution_json_structure():
    sol = _solution()
    payload = json.loads(solution_to_json(sol))
    assert payload["schema"] == "calrlab.field_solution/1"
    assert payload["omega"] == 1.0
    assert "1:TE" in payload["radial"] and "2:TM" in payload["radial"]
    reg0 = payload["radial"]["1:TE"]["regions"][0]
    # innermost region regular: the singular coefficient is zero
    assert reg0["c_y"][0] == 0.0 and reg0["c_y"][1] == 0.0
    last = payload["radial"]["1:TE"]["regions"][-1]
    assert last["outgoing"] and last["r_hi"] is None
    # scaled pairs carry (re, im, exp10)
    assert len(reg0["c_j"]) == 3
    assert payload["medium"]["provenance"]["constructor"] == "dcm_example"


def test_field_scan_csv(tmp_path):
    sol = _solution()
    pts = np.array([[3.0, 0.0, 0.0], [0.0, 2.5, 1.0]])
    rows = field_scan_rows(sol, pts)
    assert len(rows) == 2 and len(rows[0]) == len(FIELD_SCAN_HEADER)
    path = tmp_path / "scan.csv"
    write_csv(path, FIELD_SCAN_HEADER, rows)
    text = path.read_text().splitlines()
    assert text[0].split(",")[:3] == ["x", "y", "z"]
    assert len(text) == 3


def test_modal_quadruple_table_feeds_trace_norm_check():
    from calrlab.layered_maxwell.io import modal_quadruple_table
    from calrlab.three_sphere import check_maxwell_3sphere
    sol = _solution()
    # region between the shell and the source is vacuum and source-free
    idx = sol.region_index(3.0)
    table = modal_quadruple_table(sol, idx)
    assert set(table) == {(1, 0), (2, 1)}
    lhs, rhs, c = check_maxwell_3sphere(table, 2.5, 3.0, 4.0)
    assert 0 < c <= 1.0 + 1e-12
