"""The catalog: named tables plus their statistics and constraints.

Optimisers consume the catalog, never raw tables: cardinalities, column
statistics (the source of DQO plan properties), and foreign-key constraints
(which drive the join-output cardinality assumption of §4.3) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.errors import SchemaError
from repro.settings import get_settings
from repro.storage.statistics import ColumnStatistics
from repro.storage.table import Table


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


#: process-unique catalog identity tokens (see :meth:`Catalog.fingerprint`).
_CATALOG_TOKENS = count(1)

#: callbacks fired after a table is unregistered: ``f(catalog, name, table)``.
#: The shared-memory column store hooks in here to release segments whose
#: backing table left the catalog (see :mod:`repro.engine.procpool`).
_unregister_observers: list = []


def add_unregister_observer(observer) -> None:
    """Register a callback invoked after every :meth:`Catalog.unregister`."""
    if observer not in _unregister_observers:
        _unregister_observers.append(observer)


def _maybe_spill(name: str, table: Table):
    """Spill ``table`` to disk when ``REPRO_STORAGE=disk`` is active.

    Only plain in-memory tables with at least one column are spilled;
    disk-resident handles pass through (re-registering one must not
    copy it), as do degenerate column-less tables.
    """
    if not isinstance(table, Table) or table.num_columns == 0:
        return table
    if get_settings().storage != "disk":
        return table
    from repro.storage.disk import spill_table

    return spill_table(table, name)


class Catalog:
    """A registry of named tables, with statistics and FK metadata."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._token = next(_CATALOG_TOKENS)
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumps on every registration change,
        table replacement (fresh statistics), or constraint addition."""
        return self._version

    def fingerprint(self) -> tuple[int, int]:
        """(identity token, version): stable while the catalog's contents
        are unchanged, different across catalogs and across mutations —
        the optimiser plan cache's invalidation key."""
        return (self._token, self._version)

    def register(self, name: str, table: Table, replace: bool = False) -> None:
        """Register ``table`` under ``name``.

        Under ``REPRO_STORAGE=disk``, in-memory tables are transparently
        spilled to the spill directory and the disk-resident handle is
        registered instead — the whole engine then exercises the
        segment/buffer path without callers changing.

        :param replace: allow overwriting an existing registration.
        :raises SchemaError: if ``name`` is taken and ``replace`` is false.
        """
        if name in self._tables and not replace:
            raise SchemaError(f"table {name!r} is already registered")
        self._tables[name] = _maybe_spill(name, table)
        self._version += 1

    def register_disk(self, name: str, directory: str, replace: bool = False) -> None:
        """Register the disk-resident table stored in ``directory``.

        Opening reads only the manifest — persisted statistics make the
        table plannable without touching segment data, which is how a
        restarted service comes back warm.
        """
        from repro.storage.disk import open_table

        if name in self._tables and not replace:
            raise SchemaError(f"table {name!r} is already registered")
        self._tables[name] = open_table(directory)
        self._version += 1

    def unregister(self, name: str) -> None:
        """Remove the registration of ``name`` (missing names are an error)."""
        if name not in self._tables:
            raise SchemaError(f"no table named {name!r}")
        table = self._tables.pop(name)
        self._version += 1
        for observer in list(_unregister_observers):
            observer(self, name, table)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        """The table registered as ``name``.

        :raises SchemaError: if absent.
        """
        if name not in self._tables:
            raise SchemaError(
                f"no table named {name!r}; catalog has {sorted(self._tables)}"
            )
        return self._tables[name]

    def names(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(self._tables)

    def cardinality(self, name: str) -> int:
        """Row count of table ``name``."""
        return self.table(name).num_rows

    def column_statistics(self, table_name: str, column_name: str) -> ColumnStatistics:
        """Statistics of one column of one registered table."""
        return self.table(table_name).column(column_name).statistics

    def add_foreign_key(self, fk: ForeignKey) -> None:
        """Declare a foreign-key constraint (tables must be registered)."""
        for table_name in (fk.child_table, fk.parent_table):
            if table_name not in self._tables:
                raise SchemaError(
                    f"foreign key references unregistered table {table_name!r}"
                )
        self._foreign_keys.append(fk)
        self._version += 1

    def foreign_keys(self) -> list[ForeignKey]:
        """All declared foreign keys."""
        return list(self._foreign_keys)

    def foreign_key_between(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> ForeignKey | None:
        """The FK matching the join predicate, in either direction, if any."""
        for fk in self._foreign_keys:
            forward = (
                fk.child_table == left_table
                and fk.child_column == left_column
                and fk.parent_table == right_table
                and fk.parent_column == right_column
            )
            backward = (
                fk.child_table == right_table
                and fk.child_column == right_column
                and fk.parent_table == left_table
                and fk.parent_column == left_column
            )
            if forward or backward:
                return fk
        return None
