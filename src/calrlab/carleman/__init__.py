"""Fold maps, aligned frames, and weighted-estimate verification."""

from .fold import fold_map, fold_map_flatten, fold_map_inverse, fold_smooth_map
from .frame import ConformalFrame, build_frame
from .matrices import (
    ClaimBounds,
    anchor_block,
    bform,
    constant_field,
    kn_matrix,
    lipschitz_test_field,
    pushed_matrix,
    sample_folded_sector,
    sample_transformed_domain,
    verify_structural_claims,
)
from .weights import (
    BumpFunction,
    ExponentTable,
    WeightedCheck,
    carleman_inequality_check,
    check_inequality_args,
    exponent_bookkeeping,
    minimal_fold_parameter,
    weight_derivative_identity,
)

__all__ = [
    "fold_map", "fold_map_flatten", "fold_map_inverse", "fold_smooth_map",
    "ConformalFrame", "build_frame",
    "ClaimBounds", "anchor_block", "bform", "constant_field", "kn_matrix",
    "lipschitz_test_field", "pushed_matrix", "sample_folded_sector",
    "sample_transformed_domain",
    "verify_structural_claims",
    "BumpFunction", "ExponentTable", "WeightedCheck",
    "carleman_inequality_check", "check_inequality_args", "exponent_bookkeeping",
    "minimal_fold_parameter", "weight_derivative_identity",
]
