"""DQO plan properties (§2.2) and their propagation.

§2.2: *"in DQO, an 'interesting order' is just one tiny special case. Other
cases include ... sparse vs dense, clustered, partitioned, correlated,
compressed (and how exactly?), layout"*. This module defines the property
vector the deep optimiser's dynamic programming carries per subplan, plus
the correlation side-information that lets sortedness propagate across
monotone-related columns (the FK-correlation assumption behind Figure 5,
DESIGN.md substitution #5b).

SQO sees a *projection* of this vector — ``restrict_to_orders`` keeps only
the classical interesting orders — which is exactly how the paper frames
the difference: §4.3 *"While SQO only considers data sortedness as in
traditional dynamic programming, DQO also considers other [DQO] plan
properties ... here: the density of the grouping keys."*
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro._util.arrays import is_nondecreasing
from repro.obs.runtime import get_tracer
from repro.storage.statistics import OCCUPANCY_MAX_SPREAD, ColumnStatistics
from repro.storage.table import Table


@dataclass(frozen=True)
class PropertyVector:
    """The properties a (sub)plan's output stream is known to have.

    All fields are column-name sets; a column being in a set is a
    *guarantee*, absence means "unknown" (the safe assumption of §2.1:
    what we cannot prove we must treat as absent).
    """

    #: columns whose values are non-decreasing in stream order.
    sorted_on: frozenset[str] = frozenset()
    #: columns whose equal values are contiguous (sorted implies clustered).
    clustered_on: frozenset[str] = frozenset()
    #: columns with dense (gap-free) integer domains.
    dense: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # Sorted columns are clustered by definition; normalise.
        if not self.sorted_on <= self.clustered_on:
            object.__setattr__(
                self, "clustered_on", self.clustered_on | self.sorted_on
            )

    def is_sorted_on(self, column: str) -> bool:
        """Is the stream known sorted by ``column``?"""
        return column in self.sorted_on

    def is_clustered_on(self, column: str) -> bool:
        """Is the stream known clustered by ``column``?"""
        return column in self.clustered_on

    def is_dense(self, column: str) -> bool:
        """Is ``column`` known to have a dense domain?"""
        return column in self.dense

    def covers(self, other: "PropertyVector") -> bool:
        """True when this vector guarantees everything ``other`` does.

        This is the dominance partial order the DP prunes with: a plan
        with lower-or-equal cost whose properties cover another's makes
        the other redundant.
        """
        return (
            self.sorted_on >= other.sorted_on
            and self.clustered_on >= other.clustered_on
            and self.dense >= other.dense
        )

    def restrict_to_orders(self) -> "PropertyVector":
        """The SQO projection: keep only classical interesting orders
        (sortedness/clusteredness); forget density."""
        return PropertyVector(
            sorted_on=self.sorted_on,
            clustered_on=self.clustered_on,
            dense=frozenset(),
        )

    def restrict_to_columns(self, columns: Iterable[str]) -> "PropertyVector":
        """Drop guarantees about columns not in ``columns`` (projection)."""
        keep = frozenset(columns)
        return PropertyVector(
            sorted_on=self.sorted_on & keep,
            clustered_on=self.clustered_on & keep,
            dense=self.dense & keep,
        )

    def union(self, other: "PropertyVector") -> "PropertyVector":
        """Pointwise union (for combining disjoint column sets, e.g. join
        inputs whose guarantees both survive)."""
        return PropertyVector(
            sorted_on=self.sorted_on | other.sorted_on,
            clustered_on=self.clustered_on | other.clustered_on,
            dense=self.dense | other.dense,
        )

    def with_sorted(self, *columns: str) -> "PropertyVector":
        """A copy additionally guaranteeing sortedness on ``columns``."""
        added = frozenset(columns)
        return PropertyVector(
            sorted_on=self.sorted_on | added,
            clustered_on=self.clustered_on | added,
            dense=self.dense,
        )

    def with_dense(self, *columns: str) -> "PropertyVector":
        """A copy additionally guaranteeing density on ``columns``."""
        return replace(self, dense=self.dense | frozenset(columns))

    def without_order(self) -> "PropertyVector":
        """A copy with all order guarantees dropped (e.g. after a hash
        shuffle); density is a value-domain property and survives."""
        return PropertyVector(dense=self.dense)

    def describe(self) -> str:
        """Compact human-readable rendering."""
        parts = []
        if self.sorted_on:
            parts.append(f"sorted({', '.join(sorted(self.sorted_on))})")
        clustered_only = self.clustered_on - self.sorted_on
        if clustered_only:
            parts.append(f"clustered({', '.join(sorted(clustered_only))})")
        if self.dense:
            parts.append(f"dense({', '.join(sorted(self.dense))})")
        return "{" + ", ".join(parts) + "}" if parts else "{}"


@dataclass(frozen=True)
class Correlations:
    """Monotone column correlations: ``(x, y)`` means sorting a stream by
    ``x`` leaves it sorted by ``y`` as well.

    §2.2 lists "correlated" among DQO plan properties. Correlations are
    declared (or detected) per base table and used to *close* sortedness
    guarantees: whenever a plan's output becomes sorted on ``x``, it is
    also sorted on every ``y`` monotone in ``x``.
    """

    pairs: frozenset[tuple[str, str]] = frozenset()
    #: column -> :meth:`implied_by`, filled on demand; dies with the
    #: object (a search merges its own).
    _implied: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def implied_by(self, column: str) -> frozenset[str]:
        """All columns monotone in ``column`` (transitively)."""
        known = self._implied.get(column)
        if known is not None:
            return known
        implied: set[str] = set()
        frontier = [column]
        while frontier:
            current = frontier.pop()
            for x, y in self.pairs:
                if x == current and y not in implied:
                    implied.add(y)
                    frontier.append(y)
        known = self._implied[column] = frozenset(implied)
        return known

    def close_sorted(self, properties: PropertyVector) -> PropertyVector:
        """Extend ``sorted_on`` with everything correlation implies."""
        extra: set[str] = set()
        for column in properties.sorted_on:
            extra |= self.implied_by(column)
        if not extra:
            return properties
        return properties.with_sorted(*extra)

    def merged(self, other: "Correlations") -> "Correlations":
        """Union of two correlation sets."""
        return Correlations(self.pairs | other.pairs)


#: rows of the sample that may refute a correlation before the full sort.
CORRELATION_SAMPLE_ROWS = 2048

#: rows of a table's prefix that correlation detection looks at.
CORRELATION_PREFIX_ROWS = 100_000


def in_order_of_unique(
    x_values: np.ndarray, y_values: np.ndarray, x_statistics: ColumnStatistics
) -> np.ndarray:
    """``y_values`` ordered by ``x_values``, a prefix of a column without
    ties whose whole-column statistics are ``x_statistics``.

    With no ties there is one order by ``x``, so no stable sort is
    needed. An integer ``x`` whose whole-column domain is at most
    :data:`~repro.storage.statistics.OCCUPANCY_MAX_SPREAD` times the
    prefix's rows is scattered, each ``y`` to slot ``x - minimum``, in
    O(n + domain): the slots are the order when the prefix fills them,
    else the filled ones are kept through an occupancy mask, as in
    :func:`~repro.storage.statistics.occupancy_distinct`. Any other
    ``x`` is sorted unstably.
    """
    if x_values.dtype.kind in "iu":
        domain = x_statistics.domain_size
        if domain <= OCCUPANCY_MAX_SPREAD * x_values.size:
            offset_dtype = np.uint64 if x_values.dtype.kind == "u" else np.int64
            offsets = x_values.astype(offset_dtype, copy=False) - offset_dtype(
                x_statistics.minimum
            )
            slots = np.empty(domain, dtype=y_values.dtype)
            slots[offsets] = y_values
            if domain == x_values.size:
                return slots
            occupied = np.zeros(domain, dtype=np.bool_)
            occupied[offsets] = True
            return slots[occupied]
    return y_values[np.argsort(x_values)]


def detect_monotone_correlation(
    table: Table, x: str, y: str, sample_limit: int = CORRELATION_PREFIX_ROWS
) -> bool:
    """Measure whether ``y`` is non-decreasing when rows are ordered by
    ``x`` (stably) — i.e. whether ``(x, y)`` is a monotone correlation.

    Checks the first ``sample_limit`` rows; exact for tables at or below
    the limit. The answer is that of one stable sort by ``x``, reached in
    three stages so that the sort is rarely paid:

    1. *Statistics decide.* At most one row, or a constant ``y``: true.
       A sorted ``x`` is its own stable order, so the answer is whether
       ``y`` is sorted — its statistic, or one pass over the prefix when
       the table is longer than the limit.
    2. *A sample refutes.* The same test on the first
       :data:`CORRELATION_SAMPLE_ROWS` rows. Two rows are ordered the same
       way by the stable sort of any subset that holds both, so a pair
       out of order in the sample is out of order in the whole: a
       refutation is exact.
    3. *The order confirms* a pair the sample could not refute. An ``x``
       without ties (``distinct == count``) has one order, which
       :func:`in_order_of_unique` reaches by a scatter or an unstable
       sort; only a tied ``x`` pays the stable sort. Stage 2 orders its
       sample the same way.

    Only the rows looked at are read: a disk table decodes the segments
    covering them, never the whole column. A correlation is a fact about
    the data, so a what-if overlay table is judged by the statistics
    measured on its :attr:`~repro.storage.table.Table.origin`.
    """
    table = table.origin
    rows = min(table.num_rows, sample_limit)
    if rows <= 1:
        return True
    x_column, y_column = table.column(x), table.column(y)
    y_statistics = y_column.statistics
    if y_statistics.minimum == y_statistics.maximum:  # never true of NaN
        return True
    x_statistics = x_column.statistics
    if x_statistics.is_sorted:
        if y_statistics.is_sorted or rows == table.num_rows:
            return y_statistics.is_sorted
        return is_nondecreasing(y_column.slice(0, rows).values)
    unique = x_statistics.distinct == x_statistics.count

    def ordered_within(count: int) -> bool:
        """``y`` non-decreasing under a stable order by ``x``, over the
        first ``count`` rows."""
        x_values = x_column.slice(0, count).values
        y_values = y_column.slice(0, count).values
        if unique:
            ordered = in_order_of_unique(x_values, y_values, x_statistics)
        else:
            ordered = y_values[np.argsort(x_values, kind="stable")]
        return is_nondecreasing(ordered)

    if rows > CORRELATION_SAMPLE_ROWS and not ordered_within(
        CORRELATION_SAMPLE_ROWS
    ):
        return False
    return ordered_within(rows)


def properties_from_table(table: Table, qualify: str = "") -> PropertyVector:
    """Measure the initial property vector of a base table's scan output.

    :param qualify: optional ``alias`` to prefix column names with, so
        that the vector speaks the same names as the plan's streams.
    """
    sorted_on: set[str] = set()
    clustered_on: set[str] = set()
    dense: set[str] = set()
    for column in table.columns():
        name = f"{qualify}.{column.name}" if qualify else column.name
        stats: ColumnStatistics = column.statistics
        if stats.is_sorted:
            sorted_on.add(name)
        if stats.is_clustered:
            clustered_on.add(name)
        if stats.is_dense:
            dense.add(name)
    return PropertyVector(
        sorted_on=frozenset(sorted_on),
        clustered_on=frozenset(clustered_on),
        dense=frozenset(dense),
    )


def correlations_from_table(table: Table, qualify: str = "") -> Correlations:
    """Detect all pairwise monotone correlations among a table's columns,
    over its first :data:`CORRELATION_PREFIX_ROWS` rows.

    Quadratic in column count — intended for the narrow relations of the
    paper's experiments, not thousand-column tables. The pairs are
    memoised in the :attr:`~repro.storage.table.Table.memo` of the
    table's :attr:`~repro.storage.table.Table.origin` (the object whose
    data they describe): the memo dies with that table, and a new table
    is never answered with an old one's pairs. Detection runs inside one
    ``optimizer.correlations`` tracer span, so a traced first query
    shows what confirming its correlations cost.
    """
    source = table.origin
    pairs = source.memo.get("monotone_correlations")
    if pairs is None:
        names = source.schema.names
        with get_tracer().span("optimizer.correlations", columns=len(names)):
            pairs = source.memo["monotone_correlations"] = frozenset(
                (x, y)
                for x in names
                for y in names
                if x != y and detect_monotone_correlation(source, x, y)
            )
    if qualify:
        pairs = frozenset(
            (f"{qualify}.{x}", f"{qualify}.{y}") for x, y in pairs
        )
    return Correlations(pairs)
