"""Staircase refinement with Richardson extrapolation of matching regions.

Midpoint staircasing converges at second order in the sublayer width, so the
(4 c_{2L} - c_L)/3 combination removes the leading bias.  Only regions whose
radial intervals coincide between the two refinements (everything outside the
graded layers, plus shared constant layers) are extrapolated; the refined
solution is therefore meant for observation outside the staircased shell.
"""
from __future__ import annotations

from dataclasses import replace

from ..media.radial import RadialMedium
from .modes import SurfaceCurrentSource
from .solver import FieldSolution, RegionCoeffs, solve
from .staircase import staircase


def _extrapolate_coeffs(c_lo: RegionCoeffs, c_hi: RegionCoeffs) -> RegionCoeffs:
    if c_lo.outgoing != c_hi.outgoing:
        raise ValueError("incompatible region bases")
    four_thirds = 4.0 / 3.0
    third = 1.0 / 3.0
    return RegionCoeffs(
        nu=c_hi.nu, k=c_hi.k,
        c_j=four_thirds * c_hi.c_j - third * c_lo.c_j,
        c_y=four_thirds * c_hi.c_y - third * c_lo.c_y,
        outgoing=c_hi.outgoing)


def richardson_exterior(sol_lo: FieldSolution, sol_hi: FieldSolution) -> FieldSolution:
    """Second-order Richardson combination on regions shared by both solves."""
    lo_by_interval = {}
    for i, reg in enumerate(sol_lo.regions):
        lo_by_interval[(round(reg.r_lo, 12), round(reg.r_hi, 12))] = i
    radial = {}
    for key, rs_hi in sol_hi.radial.items():
        rs_lo = sol_lo.radial[key]
        coeffs = list(rs_hi.coeffs)
        for j, reg in enumerate(sol_hi.regions):
            i = lo_by_interval.get((round(reg.r_lo, 12), round(reg.r_hi, 12)))
            if i is None:
                continue
            coeffs[j] = _extrapolate_coeffs(rs_lo.coeffs[i], rs_hi.coeffs[j])
        radial[key] = replace(rs_hi, coeffs=coeffs)
    return FieldSolution(medium=sol_hi.medium, source=sol_hi.source,
                         omega=sol_hi.omega, regions=sol_hi.regions,
                         radial=radial, amplitudes=sol_hi.amplitudes,
                         n_max=sol_hi.n_max, options=sol_hi.options)


def solve_staircased(medium: RadialMedium, source: SurfaceCurrentSource,
                     omega: float, layers: int, richardson: bool = True) -> FieldSolution:
    """Staircase a graded medium and solve; optionally Richardson-refine.

    With richardson=True two solves (layers and 2*layers) are combined; the
    returned solution is accurate for evaluation outside the graded shell.
    """
    if medium.is_piecewise_constant:
        return solve(medium, source, omega)
    sol_hi = solve(staircase(medium, 2 * layers if richardson else layers),
                   source, omega)
    if not richardson:
        return sol_hi
    sol_lo = solve(staircase(medium, layers), source, omega)
    return richardson_exterior(sol_lo, sol_hi)
