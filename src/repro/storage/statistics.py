"""Column statistics — the source of DQO plan properties.

Section 2.2 of the paper lists the data properties deep query optimisation
must track beyond the classical "interesting orders": *sparse vs dense,
clustered, partitioned, correlated, compressed, layout*. This module measures
the statistical ones directly from column data:

* **sortedness** — is the column non-decreasing?
* **density** — does the column use every value of ``[min, max]``? A dense
  integer domain is what makes static perfect hashing applicable (§2.1).
* **clusteredness** — are equal values stored contiguously even if the
  column is not globally sorted? (Order-based grouping only needs this,
  which the paper calls "partitioned by the grouping key".)
* **number of distinct values (NDV)** — the paper assumes NDV is known to
  every grouping implementation; it is collected here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.arrays import is_nondecreasing, run_count
from repro.errors import StatisticsError

#: an integer column counts its distinct values through an occupancy
#: array while its domain ``max - min + 1`` is at most this multiple of
#: its length. Twice the length is the widest domain static perfect
#: hashing can accept (``MIN_DENSITY`` = 0.5), so every column whose
#: density matters to the optimiser is counted without a sort; the array
#: is one byte per domain value, a quarter of an ``int64`` column.
OCCUPANCY_MAX_SPREAD = 2

#: rows offset against the minimum per step of :func:`occupancy_distinct`,
#: so that the offsets' scratch is 512 KiB however long the column.
_OCCUPANCY_CHUNK_ROWS = 65_536


def occupancy_distinct(values: np.ndarray, minimum: int, domain: int) -> int:
    """Distinct values of an integer array all inside ``[minimum,
    minimum + domain)``, in O(n + domain) and without a sort.

    One byte per domain value is set where a value occurs — the
    occupancy of the slot array a static perfect hash over that domain
    stands for (§2.1) — and the set bytes are counted. The caller bounds
    ``domain``; offsets are taken in ``int64`` (``uint64`` for unsigned
    input), which cannot wrap because every offset is below ``domain``.
    """
    occupied = np.zeros(domain, dtype=np.bool_)
    offset_dtype = np.uint64 if values.dtype.kind == "u" else np.int64
    base = offset_dtype(minimum)
    for start in range(0, values.size, _OCCUPANCY_CHUNK_ROWS):
        chunk = values[start : start + _OCCUPANCY_CHUNK_ROWS]
        occupied[chunk.astype(offset_dtype, copy=False) - base] = True
    return int(np.count_nonzero(occupied))


def count_distinct(values: np.ndarray, minimum, maximum) -> int:
    """Distinct values of a non-empty, NaN-free 1-D array whose extremes
    are ``minimum`` and ``maximum``.

    Integer arrays whose domain is at most :data:`OCCUPANCY_MAX_SPREAD`
    times their length go through :func:`occupancy_distinct`; wider
    domains and non-integer arrays are sorted by ``np.unique``. The
    domain is computed in Python integers, so ``int64`` extremes do not
    wrap.
    """
    if values.dtype.kind in "iu":
        domain = int(maximum) - int(minimum) + 1
        if domain <= OCCUPANCY_MAX_SPREAD * values.size:
            return occupancy_distinct(values, int(minimum), domain)
    return int(np.unique(values).size)


@dataclass(frozen=True)
class ColumnStatistics:
    """Immutable summary statistics of one column.

    Instances are produced by :func:`collect_statistics`; constructing them
    by hand is allowed in tests and by generators that know their output
    distribution (which avoids a rescan).
    """

    #: number of values in the column.
    count: int
    #: smallest value; ``None`` for an empty column.
    minimum: int | float | None
    #: largest value; ``None`` for an empty column.
    maximum: int | float | None
    #: number of distinct values.
    distinct: int
    #: column is globally non-decreasing.
    is_sorted: bool
    #: equal values are stored contiguously (weaker than sorted).
    is_clustered: bool
    #: every integer in ``[minimum, maximum]`` occurs (integer columns only).
    is_dense: bool

    def __post_init__(self) -> None:
        if self.count < 0:
            raise StatisticsError(f"count must be >= 0, got {self.count}")
        if self.distinct > max(self.count, 0):
            raise StatisticsError(
                f"distinct ({self.distinct}) cannot exceed count ({self.count})"
            )
        if self.is_sorted and not self.is_clustered:
            raise StatisticsError("a sorted column is by definition clustered")

    @property
    def domain_size(self) -> int:
        """Size of the integer interval ``[minimum, maximum]``; 0 if empty."""
        if self.count == 0 or self.minimum is None or self.maximum is None:
            return 0
        return int(self.maximum) - int(self.minimum) + 1

    @property
    def density(self) -> float:
        """``distinct / domain_size`` in (0, 1]; 0.0 for an empty column."""
        domain = self.domain_size
        if domain == 0:
            return 0.0
        return self.distinct / domain


def collect_statistics(values: np.ndarray) -> ColumnStatistics:
    """Compute the :class:`ColumnStatistics` of ``values`` in a fixed
    number of O(n) passes: extremes, sortedness, runs and — unless the
    column is sorted, where the runs are the distinct values —
    :func:`count_distinct`.

    Works for any 1-D numeric array. Density is only meaningful for integer
    data; for float data ``is_dense`` is reported as ``False``.
    """
    if values.ndim != 1:
        raise StatisticsError(f"expected a 1-D array, got shape {values.shape}")
    if values.size == 0:
        return ColumnStatistics(
            count=0,
            minimum=None,
            maximum=None,
            distinct=0,
            is_sorted=True,
            is_clustered=True,
            is_dense=False,
        )
    minimum = values.min()
    maximum = values.max()
    sorted_flag = is_nondecreasing(values)
    runs = run_count(values)
    if sorted_flag:
        # Every run of a sorted column is a distinct value.
        distinct = runs
        clustered = True
    else:
        distinct = count_distinct(values, minimum, maximum)
        # Clustered: each distinct value forms exactly one run.
        clustered = runs == distinct
    if np.issubdtype(values.dtype, np.integer):
        domain = int(maximum) - int(minimum) + 1
        dense = distinct == domain
        min_out: int | float = int(minimum)
        max_out: int | float = int(maximum)
    else:
        dense = False
        min_out = float(minimum)
        max_out = float(maximum)
    return ColumnStatistics(
        count=int(values.size),
        minimum=min_out,
        maximum=max_out,
        distinct=distinct,
        is_sorted=sorted_flag,
        is_clustered=clustered,
        is_dense=dense,
    )


def merge_statistics(
    head: ColumnStatistics, tail: ColumnStatistics
) -> ColumnStatistics | None:
    """Statistics of a column followed by appended rows, from the two
    parts' statistics alone — or ``None`` where those do not decide it
    and the merged column has to be measured.

    Counts add and extremes combine; the whole is sorted iff both parts
    are and ``head.maximum <= tail.minimum``. The distinct count is
    decided in three cases: the value ranges are disjoint (the counts
    add, and the whole is clustered iff both parts are); the whole is
    sorted and the parts share the boundary value (one less, clustered);
    the head is dense and the tail lies inside its domain (the head's
    count — and the whole is unclustered as soon as one part is, since a
    value with two runs keeps them; two clustered parts are undecided).
    """
    if tail.count == 0:
        return head
    if head.count == 0:
        return tail
    extremes = (head.minimum, head.maximum, tail.minimum, tail.maximum)
    if any(value != value for value in extremes):  # NaN
        return None
    both_clustered = head.is_clustered and tail.is_clustered
    is_sorted = (
        head.is_sorted and tail.is_sorted and head.maximum <= tail.minimum
    )
    if tail.minimum > head.maximum or tail.maximum < head.minimum:
        distinct = head.distinct + tail.distinct
        clustered = both_clustered
    elif is_sorted:
        distinct = head.distinct + tail.distinct - 1
        clustered = True
    elif (
        head.is_dense
        and head.minimum <= tail.minimum
        and tail.maximum <= head.maximum
        and not both_clustered
    ):
        distinct = head.distinct
        clustered = False
    else:
        return None
    minimum = min(head.minimum, tail.minimum)
    maximum = max(head.maximum, tail.maximum)
    return ColumnStatistics(
        count=head.count + tail.count,
        minimum=minimum,
        maximum=maximum,
        distinct=distinct,
        is_sorted=is_sorted,
        is_clustered=clustered,
        is_dense=isinstance(minimum, int)
        and distinct == maximum - minimum + 1,
    )
