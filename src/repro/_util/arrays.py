"""numpy array helpers shared by storage, kernels, and statistics."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def as_int_array(values: Iterable[int] | np.ndarray, dtype: type = np.int64) -> np.ndarray:
    """Convert ``values`` to a 1-D integer numpy array.

    Accepts any iterable of ints or an existing integer array (which is
    returned converted, never aliased into a different dtype silently).

    :raises ValueError: if the result would not be 1-D or not integral.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {array.shape}")
    if array.size and not np.issubdtype(array.dtype, np.integer):
        if not np.issubdtype(array.dtype, np.floating):
            raise ValueError(f"expected integer data, got dtype {array.dtype}")
        rounded = np.rint(array)
        if not np.array_equal(rounded, array):
            raise ValueError("expected integer data, got non-integral floats")
        array = rounded
    return array.astype(dtype, copy=False)


def is_nondecreasing(array: np.ndarray) -> bool:
    """True when ``array`` is sorted in non-decreasing order.

    Empty and single-element arrays count as sorted.
    """
    if array.size <= 1:
        return True
    return bool(np.all(array[:-1] <= array[1:]))


def runs_of(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (run start offsets, run values) of consecutive equal elements.

    For ``[3, 3, 5, 5, 5, 3]`` this returns ``([0, 2, 5], [3, 5, 3])``.
    Used by order-based grouping and by run-length encoding.
    """
    if array.size == 0:
        return np.empty(0, dtype=np.int64), array.copy()
    change = np.empty(array.size, dtype=bool)
    change[0] = True
    np.not_equal(array[1:], array[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(np.int64)
    return starts, array[starts]


def run_count(array: np.ndarray) -> int:
    """Number of runs :func:`runs_of` would return for a non-empty array,
    without building them (a NaN equals nothing, so every NaN is a run of
    its own)."""
    return int(np.count_nonzero(array[1:] != array[:-1])) + 1
