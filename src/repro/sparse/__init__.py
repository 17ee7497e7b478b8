"""Sparse gradient primitives: COO vectors, top-k selection, threshold
estimation and gradient-space partitioning."""

from .coo import (
    COOVector,
    INDEX_DTYPE,
    VALUE_DTYPE,
    combine_sum,
    intersect_sorted,
)
from .partition import (
    balanced_boundaries_local,
    equal_boundaries,
    imbalance,
    region_counts,
    region_of,
    sanitize_boundaries,
    validate_boundaries,
)
from .threshold import (
    ReusedThreshold,
    adjusted_gaussian_threshold,
    exact_threshold,
    gaussian_threshold,
)
from .topk import (
    exact_topk,
    kth_largest_abs,
    threshold_indices,
    threshold_select,
    topk_indices,
)

__all__ = [
    "COOVector",
    "combine_sum",
    "intersect_sorted",
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "exact_topk",
    "kth_largest_abs",
    "topk_indices",
    "threshold_indices",
    "threshold_select",
    "exact_threshold",
    "gaussian_threshold",
    "adjusted_gaussian_threshold",
    "ReusedThreshold",
    "equal_boundaries",
    "balanced_boundaries_local",
    "sanitize_boundaries",
    "region_of",
    "region_counts",
    "imbalance",
    "validate_boundaries",
]
