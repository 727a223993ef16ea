"""Dictionary compression.

Section 2.1 of the paper observes that *"the keys of a dictionary-compressed
column are a natural candidate for [static perfect hashing] and can directly
be used for SPH"*: dictionary codes are dense integers ``0..NDV-1`` by
construction. This module provides that encoding, so that density is not
just a measured statistic but something the storage layer can *manufacture*
— which is exactly the lever the DQO optimiser pulls when it rewrites a
sparse-domain grouping into dictionary-encode + SPH grouping.

It is also the one ``encoding`` the engine memoises on a key column:
build-side group-bys read their groups off it, join probes gather
matches through its codes, and a dictionary view holds it.
:func:`code_dtype` is the one code width rule, for the memo and disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.arrays import is_nondecreasing, runs_of
from repro.errors import ColumnError
from repro.storage.column import Column
from repro.storage.dtypes import DataType
from repro.storage.statistics import OCCUPANCY_MAX_SPREAD, ColumnStatistics


def code_dtype(count: int) -> np.dtype:
    """The narrowest unsigned type holding every integer in ``[0,
    count)``: the codes of ``count`` dictionary entries (uint8 up to 256,
    uint16 up to 65 536), or run lengths below ``count``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if count <= int(np.iinfo(dtype).max) + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def narrow_counts(counts: np.ndarray) -> np.ndarray:
    """Row counts (run lengths, rows per dictionary entry) in
    :func:`code_dtype` of one more than the largest."""
    return counts.astype(code_dtype(int(counts.max(initial=0)) + 1))


@dataclass(frozen=True)
class DictionaryEncoded:
    """A dictionary-encoded column: codes plus the sorted dictionary.

    ``codes[i]`` is the index of the original value in ``dictionary``;
    because the dictionary is sorted, the encoding is *order-preserving*:
    ``codes[i] < codes[j]  <=>  original[i] < original[j]``.
    """

    #: dense integer codes in ``[0, len(dictionary))``, in :func:`code_dtype`.
    codes: np.ndarray
    #: sorted array of the distinct original values.
    dictionary: np.ndarray
    #: rows per dictionary entry (each >= 1), in :func:`narrow_counts`
    #: width, like run lengths: the column pre-aggregated by value.
    counts: np.ndarray

    @property
    def cardinality(self) -> int:
        """Number of dictionary entries (= NDV of the original column)."""
        return int(self.dictionary.size)

    def memory_bytes(self) -> int:
        """Bytes held by the code, dictionary and count arrays."""
        return (
            int(self.codes.nbytes)
            + int(self.dictionary.nbytes)
            + int(self.counts.nbytes)
        )

    def decode(self) -> np.ndarray:
        """Reconstruct the original values."""
        return self.dictionary[self.codes]

    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Map an arbitrary array of codes back to original values."""
        return self.dictionary[codes]

    def encode_values(self, values: np.ndarray) -> np.ndarray:
        """Map original-domain ``values`` to codes.

        :raises ColumnError: if any value is not in the dictionary.
        """
        positions = np.searchsorted(self.dictionary, values)
        in_range = positions < self.dictionary.size
        if not bool(np.all(in_range)) or not bool(
            np.all(self.dictionary[np.minimum(positions, self.dictionary.size - 1)] == values)
        ):
            raise ColumnError("value(s) not present in dictionary")
        return positions.astype(np.int64)


def dictionary_encode(values: np.ndarray) -> DictionaryEncoded:
    """Encode ``values`` against its own sorted distinct-value dictionary.

    The resulting code column is dense and order-preserving, which makes it
    directly usable as a static perfect hash key (paper §2.1). An integer
    array whose domain is at most :data:`OCCUPANCY_MAX_SPREAD` times its
    length is encoded by counting (:func:`_encode_by_counting`), any other
    non-decreasing integer array from its runs (:func:`_encode_runs`),
    and the rest by ``np.unique``; all three give the same arrays in the
    same types.
    """
    if values.ndim != 1:
        raise ColumnError(f"expected 1-D values, got shape {values.shape}")
    if values.dtype.kind in "iu" and values.size:
        minimum = int(values.min())
        domain = int(values.max()) - minimum + 1
        if domain <= OCCUPANCY_MAX_SPREAD * values.size:
            return _encode_by_counting(values, minimum, domain)
        if is_nondecreasing(values):
            return _encode_runs(values)
    dictionary, codes, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    return DictionaryEncoded(
        codes=codes.astype(code_dtype(dictionary.size)),
        dictionary=dictionary,
        counts=narrow_counts(counts),
    )


def _encode_by_counting(
    values: np.ndarray, minimum: int, domain: int
) -> DictionaryEncoded:
    """:func:`dictionary_encode` of an integer array all inside
    ``[minimum, minimum + domain)``, in O(n + domain) and without a sort:
    the rows per domain value are a ``bincount`` of the offsets, a
    value's code is the number of occupied values below it (a prefix
    sum of the occupancy), and the rows gather their codes. Offsets are
    taken as :func:`~repro.storage.statistics.occupancy_distinct` takes
    them, in ``int64`` (``uint64`` for unsigned input), which cannot wrap
    because every offset is below ``domain``."""
    offset_dtype = np.uint64 if values.dtype.kind == "u" else np.int64
    base = offset_dtype(minimum)
    offsets = (values.astype(offset_dtype, copy=False) - base).astype(
        np.intp, copy=False
    )
    per_value = np.bincount(offsets, minlength=domain)
    occupied = per_value > 0
    present = np.flatnonzero(occupied)
    # The smallest value occurs, so every prefix count is at least one.
    code_of = np.cumsum(occupied, dtype=np.intp)
    code_of -= 1
    return DictionaryEncoded(
        codes=code_of.astype(code_dtype(present.size))[offsets],
        dictionary=(present.astype(offset_dtype) + base).astype(values.dtype),
        counts=narrow_counts(per_value[present]),
    )


def _encode_runs(values: np.ndarray) -> DictionaryEncoded:
    """:func:`dictionary_encode` of a non-empty non-decreasing array, in
    one linear pass and without a sort: each run of equal values
    (:func:`~repro._util.arrays.runs_of`) is one dictionary entry, its
    length the entry's count, and its rows take the run's index as
    their code."""
    starts, dictionary = runs_of(values)
    counts = np.diff(starts, append=values.size)
    codes = np.arange(starts.size, dtype=code_dtype(starts.size))
    return DictionaryEncoded(
        codes=np.repeat(codes, counts),
        dictionary=dictionary,
        counts=narrow_counts(counts),
    )


def code_column(column: Column, encoded: DictionaryEncoded) -> Column:
    """The code column of ``column`` under its encoding ``encoded``.

    It carries precomputed statistics: density is guaranteed by
    construction, and sortedness is inherited from the input because the
    encoding is order-preserving.
    """
    source = column.statistics
    stats = ColumnStatistics(
        count=source.count,
        minimum=0 if source.count else None,
        maximum=encoded.cardinality - 1 if source.count else None,
        distinct=encoded.cardinality,
        is_sorted=source.is_sorted,
        is_clustered=source.is_clustered,
        is_dense=source.count > 0,
    )
    return Column(column.name, encoded.codes, DataType.INT64, stats)
