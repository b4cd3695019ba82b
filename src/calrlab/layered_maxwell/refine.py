"""Staircase refinement with Richardson extrapolation of matching regions.

Midpoint staircasing converges at second order in the sublayer width, so the
(4 c_{2L} - c_L)/3 combination removes the leading bias.  Only regions whose
radial intervals coincide between the two refinements (everything outside the
graded layers, plus shared constant layers) are extrapolated; the refined
solution is therefore meant for observation outside the staircased shell.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..specfun.scaled import ScaledArray
from .modes import SurfaceCurrentSource
from .solver import FieldSolution, _solve_levels
from .staircase import staircase


def richardson_exterior(sol_lo: FieldSolution, sol_hi: FieldSolution) -> FieldSolution:
    """Second-order Richardson combination on regions shared by both solves.

    The coefficient tables of sol_hi become 4/3 hi - 1/3 lo on every region
    whose interval sol_lo also has, and stay hi elsewhere.
    """
    def interval(reg):
        return round(reg.r_lo, 12), round(reg.r_hi, 12)

    lo_by_interval = {interval(reg): i for i, reg in enumerate(sol_lo.regions)}
    match = np.array([lo_by_interval.get(interval(reg), -1) for reg in sol_hi.regions])
    shared = (match >= 0)[:, None]
    lo_rows = sol_lo.table(np.maximum(match, 0), list(sol_hi.radial))

    def extrapolate(hi, lo):
        return ScaledArray.where(shared, 4.0 / 3.0 * hi - 1.0 / 3.0 * lo, hi)

    hi = sol_hi.modes
    return replace(sol_hi, modes=hi._replace(c_j=extrapolate(hi.c_j, lo_rows.c_j),
                                             c_y=extrapolate(hi.c_y, lo_rows.c_y)))


def staircase_levels(medium, layers: int, richardson: bool = True) -> list:
    """The media `solve_staircased` solves for medium, in order: medium if it is
    piecewise constant, else its staircases at 2*layers and layers (layers alone
    without richardson)."""
    if medium.is_piecewise_constant:
        return [medium]
    return [staircase(medium, n) for n in ((2 * layers, layers) if richardson else (layers,))]


def solve_staircased(media, source: SurfaceCurrentSource, omega: float,
                     layers: int, richardson: bool = True,
                     reference=None) -> list[FieldSolution]:
    """One solution per medium, from one region pass over every
    `staircase_levels` level of all media, which must share their breakpoints
    (a loss sweep); each level is a column group of the pass.  Two levels are
    Richardson-combined, accurate outside the graded shell.  A reference
    medium (piecewise constant) is one more group, the first, so that its
    guards fire first; its solution is appended."""
    levels = zip(*(staircase_levels(m, layers, richardson) for m in media), strict=True)
    refs = [] if reference is None else [[reference]]
    solved = _solve_levels(refs + [list(level) for level in levels], source, omega)
    sols = solved[len(refs):]
    sols = sols[0] if len(sols) == 1 else [richardson_exterior(lo, hi) for hi, lo in zip(*sols)]
    return sols + (solved[0] if refs else [])
