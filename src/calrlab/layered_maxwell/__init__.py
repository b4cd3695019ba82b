"""Exact per-mode Maxwell solver for radially layered media."""

from .modes import TE, TM, ModeId, SurfaceCurrentSource, h_jump_factor, mode
from .solver import (
    FieldSolution,
    NearSingularMode,
    RadialSolve,
    RegionSpec,
    branch_sqrt,
    effective_order,
    solve,
)
from .fields import (
    GluedField,
    GluedReport,
    eval_field,
    eval_field_many,
    fd_curl,
    field_evaluator,
    mode_radial_components,
    reflect_solution,
    remove_localized_singularity,
    residual_reports,
)
from .norms import (
    DataReport,
    SweepNorms,
    adaptive_gauss,
    check_media_agree,
    data_quantity,
    farfield_flux,
    l2_norm_annulus,
    l2_norm_annulus_diff,
    second_order_residual,
    sweep_norms,
)
from .staircase import graded_midpoints, staircase

__all__ = [
    "TE", "TM", "ModeId", "SurfaceCurrentSource", "h_jump_factor", "mode",
    "FieldSolution", "NearSingularMode", "RadialSolve", "RegionSpec",
    "branch_sqrt", "effective_order", "solve",
    "GluedField", "GluedReport", "eval_field", "eval_field_many", "fd_curl", "field_evaluator",
    "mode_radial_components", "reflect_solution", "remove_localized_singularity",
    "residual_reports",
    "DataReport", "SweepNorms", "adaptive_gauss", "check_media_agree", "data_quantity",
    "farfield_flux", "l2_norm_annulus", "l2_norm_annulus_diff", "second_order_residual",
    "sweep_norms",
    "graded_midpoints", "staircase",
]
