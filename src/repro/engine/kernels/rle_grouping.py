"""Grouping directly over run-length-encoded columns.

§2.2 lists *"compressed (and how exactly?)"* among the DQO plan
properties. Here is the payoff for knowing *exactly how*: an RLE column
is physically clustered by value, so grouping degenerates to aggregating
run metadata — COUNT is a sum of run lengths, touching ``num_runs``
elements instead of ``decoded_size``. On well-compressed data this is the
largest constant-factor win in the whole kernel zoo, and it is only
reachable if the optimiser knows the compression scheme, not just
"compressed: yes".
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import compute_aggregate, sum_of
from repro.engine.kernels.grouping import GroupingResult, KeyOrder
from repro.errors import PreconditionError
from repro.storage.rle import RunLengthEncoded


def rle_group_by(
    encoded: RunLengthEncoded,
    run_value_sums: np.ndarray | None = None,
) -> GroupingResult:
    """Group an RLE column without decoding it.

    :param encoded: the run-length encoded grouping keys.
    :param run_value_sums: optional per-run sums of a payload column
        (aligned with ``encoded.values``); when given, the result's SUM
        aggregates are computed from them. Producing per-run payload sums
        is the storage layer's job when it RLE-compresses a table region.
    :returns: COUNT (and SUM) per distinct key, key-ascending.
    :raises PreconditionError: if ``run_value_sums`` misaligns.
    """
    if run_value_sums is not None and run_value_sums.shape != encoded.values.shape:
        raise PreconditionError(
            f"run_value_sums shape {run_value_sums.shape} does not match "
            f"runs {encoded.values.shape}"
        )
    if encoded.num_runs == 0:
        return GroupingResult(
            keys=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            sums=np.empty(0, dtype=np.int64),
            key_order=KeyOrder.SORTED,
        )
    keys, inverse = np.unique(encoded.values, return_inverse=True)

    def total(per_run: np.ndarray) -> np.ndarray:
        return compute_aggregate(sum_of("runs"), inverse, keys.size, per_run)

    return GroupingResult(
        keys=keys.astype(np.int64),
        counts=total(encoded.lengths.astype(np.int64, copy=False)),
        sums=np.zeros(keys.size, dtype=np.int64)
        if run_value_sums is None
        else total(run_value_sums),
        key_order=KeyOrder.SORTED,
    )


def rle_compress_with_sums(
    keys: np.ndarray, values: np.ndarray
) -> tuple[RunLengthEncoded, np.ndarray]:
    """RLE-compress ``keys`` and keep per-run sums of ``values`` — what a
    storage layer materialises so :func:`rle_group_by` can aggregate
    without touching row data."""
    from repro.storage.rle import rle_encode

    if keys.shape != values.shape:
        raise PreconditionError(
            f"keys shape {keys.shape} does not match values {values.shape}"
        )
    encoded = rle_encode(keys)
    if encoded.num_runs == 0:
        return encoded, np.empty(0, dtype=values.dtype)
    boundaries = np.concatenate([[0], np.cumsum(encoded.lengths, dtype=np.int64)])
    run_sums = np.add.reduceat(values, boundaries[:-1])
    return encoded, run_sums
