"""What-if statistics overlays: hypothetical catalogs, real data.

A :class:`StatisticsOverlay` is an ordered set of patches over a
catalog's statistics — "pretend R.ID is sorted", "pretend S has 180k
rows", "pretend an SPH array exists on D1.ID" — that :meth:`apply`
turns into a fresh :class:`OverlayCatalog` *without mutating anything*:
the base catalog, its tables, and their backing arrays are untouched
and shared. Optimising against the overlay catalog answers "what plan
would the optimiser pick if the statistics said X?"
(:func:`repro.obs.search.whatif`).

Mechanics worth knowing:

* The overlay catalog is a real :class:`~repro.storage.catalog.Catalog`
  subclass with its own identity token, so its
  :meth:`~repro.storage.catalog.Catalog.fingerprint` never collides with
  the base catalog's — a process-wide plan cache cannot leak hypothetical
  plans into real optimisations (or vice versa).
* Patched tables are built once and held by the overlay catalog. Each
  names the base table as its :attr:`~repro.storage.table.Table.origin`:
  correlations are facts about the data, not the statistics, so the
  optimiser measures (and memoises) them on the base table, under its
  real statistics, and a hypothetical ``sorted`` flag cannot forge one.
* Column statistics are fabricated as *trusted* precomputed
  :class:`~repro.storage.statistics.ColumnStatistics` — exactly the
  constructor hook producers use when they already know a distribution.
  Consistency invariants are maintained for you (sorted implies
  clustered, distinct <= count).
* A cardinality patch changes the *statistics* (catalog cardinality and
  per-column counts, with distinct clamped), not the data: hypothetical
  plans are costed, not executed, so the arrays keep their real length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import StatisticsError
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table


@dataclass(frozen=True)
class StatPatch:
    """One hypothetical statistics change."""

    table: str
    #: None for table-level patches (cardinality).
    column: str | None
    #: "cardinality" | "shuffled" | "sorted" | "clustered" | "dense" |
    #: "distinct" | "index".
    field: str
    value: object

    def describe(self) -> str:
        target = (
            f"{self.table}.{self.column}" if self.column else self.table
        )
        return f"{target}.{self.field}={self.value}"


class StatisticsOverlay:
    """An ordered, chainable collection of :class:`StatPatch` entries."""

    def __init__(self) -> None:
        self._patches: list[StatPatch] = []

    # -- builders (all chainable) -----------------------------------------

    def set_cardinality(self, table: str, rows: int) -> "StatisticsOverlay":
        """Pretend ``table`` has ``rows`` rows."""
        if rows < 0:
            raise StatisticsError(f"cardinality must be >= 0, got {rows}")
        self._patches.append(StatPatch(table, None, "cardinality", int(rows)))
        return self

    def set_sorted(
        self, table: str, column: str, value: bool = True
    ) -> "StatisticsOverlay":
        """Pretend ``table.column`` is (un)sorted. Setting sorted also
        sets clustered (a sorted column is by definition clustered);
        clearing it also clears clustered — follow with
        :meth:`set_clustered` to model a shuffled-but-clustered column."""
        self._patches.append(StatPatch(table, column, "sorted", bool(value)))
        return self

    def set_shuffled(self, table: str) -> "StatisticsOverlay":
        """Pretend ``table`` was physically shuffled: *every* column
        loses sortedness and clusteredness at once. Prefer this over
        :meth:`set_sorted` for modelling a layout change — a per-column
        patch can be undone by the optimiser's correlation closure
        (columns monotone in a still-sorted sibling are re-derived
        sorted, because correlations are facts about the data, not the
        layout)."""
        self._patches.append(StatPatch(table, None, "shuffled", True))
        return self

    def set_clustered(
        self, table: str, column: str, value: bool = True
    ) -> "StatisticsOverlay":
        """Pretend equal values of ``table.column`` are stored
        contiguously (clearing it also clears sorted)."""
        self._patches.append(StatPatch(table, column, "clustered", bool(value)))
        return self

    def set_dense(
        self, table: str, column: str, value: bool = True
    ) -> "StatisticsOverlay":
        """Pretend ``table.column``'s domain is dense (§2.1's SPH
        precondition)."""
        self._patches.append(StatPatch(table, column, "dense", bool(value)))
        return self

    def set_distinct(
        self, table: str, column: str, distinct: int
    ) -> "StatisticsOverlay":
        """Pretend ``table.column`` has ``distinct`` distinct values
        (clamped to the — possibly patched — row count at apply time)."""
        if distinct < 0:
            raise StatisticsError(f"distinct must be >= 0, got {distinct}")
        self._patches.append(
            StatPatch(table, column, "distinct", int(distinct))
        )
        return self

    def set_index(
        self, table: str, column: str, kind: str = "btree", present: bool = True
    ) -> "StatisticsOverlay":
        """Pretend an Algorithmic View of ``kind`` on ``table.column``
        is (or is not) materialised. Consumed by
        :func:`repro.obs.search.whatif`, which adjusts the hypothetical
        AV registry; :meth:`apply` itself only patches statistics."""
        self._patches.append(
            StatPatch(table, column, "index", (str(kind), bool(present)))
        )
        return self

    # -- introspection ------------------------------------------------------

    def patches(self) -> list[StatPatch]:
        """All patches, in application order."""
        return list(self._patches)

    def index_patches(self) -> list[StatPatch]:
        """Just the hypothetical-view patches (see :meth:`set_index`)."""
        return [patch for patch in self._patches if patch.field == "index"]

    def is_empty(self) -> bool:
        return not self._patches

    def tables(self) -> list[str]:
        """The tables any patch touches, sorted."""
        return sorted({patch.table for patch in self._patches})

    def describe(self) -> str:
        """One line, e.g. ``R.ID.sorted=False, S.cardinality=180000``."""
        if not self._patches:
            return "(no patches)"
        return ", ".join(patch.describe() for patch in self._patches)

    def to_dict(self) -> dict:
        """JSON-friendly rendering."""
        return {
            "patches": [
                {
                    "table": patch.table,
                    "column": patch.column,
                    "field": patch.field,
                    "value": list(patch.value)
                    if isinstance(patch.value, tuple)
                    else patch.value,
                }
                for patch in self._patches
            ]
        }

    # -- application --------------------------------------------------------

    def apply(self, catalog: Catalog) -> "OverlayCatalog":
        """A fresh hypothetical catalog over ``catalog`` (see module
        docstring). Unpatched tables are shared by identity.

        :raises StatisticsError: when a patch names an unknown table or
            column (via the catalog's own lookup errors).
        """
        return OverlayCatalog(catalog, self)


class OverlayCatalog(Catalog):
    """A catalog with this overlay's statistics; built by
    :meth:`StatisticsOverlay.apply`."""

    def __init__(self, base: Catalog, overlay: StatisticsOverlay) -> None:
        super().__init__()  # fresh identity token: distinct fingerprint
        self._base = base
        self._overlay = overlay
        self._row_overrides: dict[str, int] = {}
        patched_tables = {
            name: [
                patch
                for patch in overlay.patches()
                if patch.table == name and patch.field != "index"
            ]
            for name in base.names()
        }
        unknown = {
            patch.table
            for patch in overlay.patches()
            if patch.table not in patched_tables
        }
        if unknown:
            raise StatisticsError(
                f"overlay patches unknown tables {sorted(unknown)}; "
                f"catalog has {base.names()}"
            )
        for name in base.names():
            table = base.table(name)
            patches = patched_tables[name]
            if patches:
                table = self._patched_table(name, table, patches)
            self.register(name, table)
        for fk in base.foreign_keys():
            self.add_foreign_key(fk)

    def _patched_table(
        self, name: str, table: Table, patches: list[StatPatch]
    ) -> Table:
        rows = None
        per_column: dict[str, list[StatPatch]] = {}
        for patch in patches:
            if patch.field == "cardinality":
                rows = int(patch.value)
            elif patch.field == "shuffled":
                # Expands in patch order, so a later explicit
                # set_sorted/set_clustered overrides the shuffle.
                for column_name in table.schema.names:
                    per_column.setdefault(column_name, []).append(
                        StatPatch(name, column_name, "sorted", False)
                    )
            else:
                if patch.column not in table.schema.names:
                    raise StatisticsError(
                        f"overlay patches unknown column "
                        f"{name}.{patch.column}; table has "
                        f"{list(table.schema.names)}"
                    )
                per_column.setdefault(patch.column, []).append(patch)
        if rows is not None:
            self._row_overrides[name] = rows
        columns = []
        for column in table.columns():
            stats = column.statistics
            if rows is not None:
                stats = replace(
                    stats,
                    count=rows,
                    distinct=min(stats.distinct, rows),
                )
            for patch in per_column.get(column.name, ()):
                if patch.field == "sorted":
                    stats = replace(
                        stats,
                        is_sorted=bool(patch.value),
                        # sorted implies clustered; a hypothetical
                        # shuffle destroys both (re-patch clustered
                        # afterwards to keep it).
                        is_clustered=bool(patch.value),
                    )
                elif patch.field == "clustered":
                    stats = replace(
                        stats,
                        is_clustered=bool(patch.value),
                        is_sorted=stats.is_sorted and bool(patch.value),
                    )
                elif patch.field == "dense":
                    stats = replace(stats, is_dense=bool(patch.value))
                elif patch.field == "distinct":
                    stats = replace(
                        stats, distinct=min(int(patch.value), stats.count)
                    )
            # Shares the backing array; only the trusted statistics differ.
            columns.append(
                Column(column.name, column.values, column.dtype, statistics=stats)
            )
        return Table(columns, origin=table)

    @property
    def base(self) -> Catalog:
        """The catalog this overlay hypothesises over."""
        return self._base

    @property
    def overlay(self) -> StatisticsOverlay:
        """The overlay that produced this catalog."""
        return self._overlay

    def cardinality(self, name: str) -> int:
        if name in self._row_overrides:
            return self._row_overrides[name]
        return super().cardinality(name)
