"""Vectorised numpy kernels — the algorithm implementations benchmarked in
Figure 4 (grouping) and costed in Table 2 (grouping + joins)."""

from repro.engine.kernels.grouping import (
    GROUPING_KERNELS,
    GroupingAlgorithm,
    GroupingAssignment,
    GroupingResult,
    KeyOrder,
    aggregate_assignment,
    binary_search_slots,
    group_by,
    hash_slots,
    order_slots,
    perfect_hash_slots,
    sort_order_slots,
)
from repro.engine.kernels.parallel import merge_partials, parallel_group_by
from repro.engine.kernels.rle_grouping import rle_compress_with_sums, rle_group_by
from repro.engine.kernels.joins import (
    JOIN_KERNELS,
    JoinAlgorithm,
    JoinOutputOrder,
    JoinResult,
    binary_search_join,
    hash_join,
    join,
    merge_join,
    perfect_hash_join,
    sort_merge_join,
)

__all__ = [
    "GROUPING_KERNELS",
    "GroupingAlgorithm",
    "GroupingAssignment",
    "GroupingResult",
    "JOIN_KERNELS",
    "JoinAlgorithm",
    "JoinOutputOrder",
    "JoinResult",
    "KeyOrder",
    "aggregate_assignment",
    "binary_search_join",
    "binary_search_slots",
    "group_by",
    "hash_join",
    "hash_slots",
    "join",
    "merge_join",
    "merge_partials",
    "order_slots",
    "parallel_group_by",
    "perfect_hash_join",
    "rle_compress_with_sums",
    "rle_group_by",
    "perfect_hash_slots",
    "sort_merge_join",
    "sort_order_slots",
]
