"""Export of solved configurations: JSON coefficient tables and CSV field scans."""
from __future__ import annotations

import json
import math

import numpy as np

from ..media.serialize import medium_to_json
from .fields import eval_field_many
from .solver import FieldSolution


def _scaled_pair(sa) -> list:
    sc = sa.item()
    return [sc.mantissa.real, sc.mantissa.imag, sc.exp10]


def solution_to_json(sol: FieldSolution) -> str:
    """Coefficient tables (scaled mantissa/exponent pairs) plus metadata."""
    radial = {}
    for (n, pol), rs in sol.radial.items():
        regions = []
        for i, reg in enumerate(sol.regions):
            co = sol.coeffs((n, pol), i)
            regions.append({
                "r_lo": reg.r_lo,
                "r_hi": None if math.isinf(reg.r_hi) else reg.r_hi,
                "nu": co.nu,
                "k": [co.k.real, co.k.imag],
                "outgoing": co.outgoing,
                "c_j": _scaled_pair(co.c_j),
                "c_y": _scaled_pair(co.c_y),
            })
        radial[f"{n}:{pol}"] = {
            "condition": rs.condition,
            "interface_residual": rs.interface_residual,
            "regions": regions,
        }
    payload = {
        "schema": "calrlab.field_solution/1",
        "omega": sol.omega,
        "n_max": sol.n_max,
        "source": {
            "radius": sol.source.radius,
            "amplitudes": {f"{k.n}:{k.m}:{k.pol}": [v.real, v.imag]
                           for k, v in sorted(sol.amplitudes.items())},
        },
        "medium": json.loads(medium_to_json(sol.medium)),
        "radial": radial,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def field_scan_rows(sol: FieldSolution, points) -> list:
    """Rows (x, y, z, Re/Im of E and H components) for a CSV field scan."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    e, h = eval_field_many(sol, pts)
    rows = []
    for p, ev, hv in zip(pts, e, h):
        row = [p[0], p[1], p[2]]
        for comp in (*ev, *hv):
            row.extend([comp.real, comp.imag])
        rows.append(row)
    return rows


FIELD_SCAN_HEADER = ["x", "y", "z",
                     "re_Ex", "im_Ex", "re_Ey", "im_Ey", "re_Ez", "im_Ez",
                     "re_Hx", "im_Hx", "re_Hy", "im_Hy", "re_Hz", "im_Hz"]


def modal_quadruple_table(sol: FieldSolution, region_idx: int) -> dict:
    """(n, m) -> (a1, a2, b1, b2) coefficient quadruples on one region.

    The quadruples are the coefficients of (jhat, yhat) in the E-type (TM)
    and H-type (TE) families of the modal series, amplitudes folded in; they
    feed directly into the tangential-trace norm and its three-sphere check.
    The region must be source-free for the table to describe an annulus field.
    """
    from .modes import TE, h_jump_factor
    _, _, c_j, c_y, _ = sol.as_jy([region_idx], [(k.n, k.pol) for k in sol.amplitudes])
    out = {}
    for (key, amp), cj, cy in zip(sol.amplitudes.items(), c_j.to_complex()[0],
                                  c_y.to_complex()[0]):
        mult = amp * h_jump_factor(key.pol)
        c1 = mult * cj
        c2 = mult * cy
        quad = list(out.get((key.n, key.m), (0j, 0j, 0j, 0j)))
        if key.pol == TE:
            quad[2], quad[3] = c1, c2
        else:
            # the E-type radial family relates to the H_V function by an
            # i factor in the series convention
            quad[0], quad[1] = -1j * c1, -1j * c2
        out[(key.n, key.m)] = tuple(quad)
    return out
