"""A single named, typed, numpy-backed column with lazy statistics."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ColumnError
from repro.storage.dtypes import DataType
from repro.storage.statistics import ColumnStatistics, collect_statistics


class Column:
    """One column of a relation: a name, a logical type, and values.

    Columns are *logically* immutable: the backing array must not be written
    to after construction (statistics are cached on first access and would
    go stale). The convention-over-enforcement approach follows the package
    style guide; the array is exposed read-only via :attr:`values`.
    """

    __slots__ = ("_name", "_dtype", "_values", "_stats", "_memo")

    def __init__(
        self,
        name: str,
        values: np.ndarray | Iterable,
        dtype: DataType | None = None,
        statistics: ColumnStatistics | None = None,
    ) -> None:
        """
        :param name: column name; must be a non-empty identifier-ish string.
        :param values: 1-D data; converted to the numpy dtype of ``dtype``.
        :param dtype: logical type; inferred from the data when omitted.
        :param statistics: precomputed statistics (trusted, not re-verified);
            pass them when the producer knows the distribution to skip a scan.
        """
        if not name or not isinstance(name, str):
            raise ColumnError(f"column name must be a non-empty string, got {name!r}")
        array = np.asarray(values)
        if array.ndim != 1:
            raise ColumnError(
                f"column {name!r} must be 1-D, got shape {array.shape}"
            )
        if dtype is None:
            dtype = DataType.from_numpy(array.dtype)
        _check_integer_range(name, array, dtype.numpy_dtype)
        array = np.ascontiguousarray(array, dtype=dtype.numpy_dtype)
        array.flags.writeable = False
        self._name = name
        self._dtype = dtype
        self._values = array
        self._stats = statistics
        self._memo: dict = {}

    @property
    def name(self) -> str:
        """Column name."""
        return self._name

    @property
    def dtype(self) -> DataType:
        """Logical data type."""
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The backing (read-only) numpy array."""
        return self._values

    @property
    def statistics(self) -> ColumnStatistics:
        """Statistics of this column, computed on first access and cached."""
        if self._stats is None:
            self._stats = collect_statistics(self._values)
        return self._stats

    @property
    def memo(self) -> dict:
        """Structures derived from this column's (immutable) values — a
        join's build side, the column's one dictionary ``encoding``, a
        probe column's ``lookup`` into a build side — memoised by the
        operators that read them. Renamed views share one memo, so every
        query over a registered table reads the same entries; a column
        made from new or sliced data starts empty, and the memo is freed
        with the last view of the column."""
        return self._memo

    def memory_bytes(self) -> int:
        """Bytes held by the backing array (the memory-accounting
        protocol every storage structure, index, and operator speaks)."""
        return int(self._values.nbytes)

    def __len__(self) -> int:
        return int(self._values.size)

    def __repr__(self) -> str:
        return f"Column({self._name!r}, {self._dtype.value}, n={len(self)})"

    def renamed(self, name: str) -> "Column":
        """A view of this column under a different name (data is shared)."""
        clone = Column.__new__(Column)
        clone._name = name
        clone._dtype = self._dtype
        clone._values = self._values
        clone._stats = self._stats
        clone._memo = self._memo
        return clone

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position into a new column (statistics dropped)."""
        return Column(self._name, self._values[indices], self._dtype)

    def slice(self, start: int, stop: int) -> "Column":
        """A zero-copy contiguous slice ``[start, stop)`` of this column.

        Sortedness and density statistics do not generally survive slicing,
        so the slice starts with no cached statistics.
        """
        return Column(self._name, self._values[start:stop], self._dtype)

    def equals(self, other: "Column") -> bool:
        """Value equality: same name, logical type, and element-wise data."""
        return (
            self._name == other._name
            and self._dtype == other._dtype
            and self._values.shape == other._values.shape
            and bool(np.array_equal(self._values, other._values))
        )


def _check_integer_range(name: str, array: np.ndarray, target: np.dtype) -> None:
    """Raise :class:`ColumnError` if integer ``array`` holds a value the
    integer ``target`` type cannot, instead of letting the conversion
    wrap it (a ``uint64`` value of 2**63 or more would become a negative
    ``int64``). Only a cast that is not always safe pays the scan."""
    if (
        array.dtype == target
        or array.dtype.kind not in "iu"
        or target.kind not in "iu"
        or not array.size
        or np.can_cast(array.dtype, target)
    ):
        return
    limits = np.iinfo(target)
    low, high = int(array.min()), int(array.max())
    if low < limits.min or high > limits.max:
        raise ColumnError(
            f"column {name!r}: {array.dtype} values in [{low}, {high}] do not "
            f"fit its {target} type"
        )
