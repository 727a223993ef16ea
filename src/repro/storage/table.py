"""Columnar tables (relations).

A :class:`Table` is an immutable set of equal-length :class:`Column` objects.
It is the unit of data the engine scans and the unit query results are
returned as.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ColumnError, SchemaError
from repro.storage.column import Column
from repro.storage.dtypes import DataType
from repro.storage.schema import ColumnSpec, Schema


class Table:
    """An immutable columnar relation.

    Construct via :meth:`from_arrays`, :meth:`from_rows`, or by passing
    prepared :class:`Column` objects. All columns must have equal length.
    """

    __slots__ = ("_columns", "_schema", "_num_rows", "_origin", "_memo")

    def __init__(
        self, columns: Iterable[Column], origin: "Table | None" = None
    ) -> None:
        """
        :param origin: the table whose data these columns share unchanged,
            when the statistics given with them are hypothetical (a
            what-if overlay). Facts measured from the data are then read
            off — and memoised on — the origin; see :attr:`memo`.
        """
        columns = tuple(columns)
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            detail = {column.name: len(column) for column in columns}
            raise ColumnError(f"columns have unequal lengths: {detail}")
        self._columns = {column.name: column for column in columns}
        if len(self._columns) != len(columns):
            names = [column.name for column in columns]
            raise SchemaError(f"duplicate column names in {names}")
        self._schema = Schema(
            ColumnSpec(column.name, column.dtype) for column in columns
        )
        self._num_rows = lengths.pop() if lengths else 0
        # None stands for the table itself (no reference cycle to collect).
        self._origin = None if origin is None else origin.origin
        self._memo: dict = {}

    # -- constructors --------------------------------------------------

    @classmethod
    def from_arrays(
        cls, data: Mapping[str, np.ndarray | Sequence], dtypes: Mapping[str, DataType] | None = None
    ) -> "Table":
        """Build a table from a mapping of column name to array-like.

        :param data: insertion order defines column order.
        :param dtypes: optional per-column logical types; inferred otherwise.
        """
        dtypes = dtypes or {}
        return cls(
            Column(name, values, dtypes.get(name)) for name, values in data.items()
        )

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        """Build a table from an iterable of row tuples matching ``schema``."""
        rows = list(rows)
        columns = []
        for position, spec in enumerate(schema):
            values = np.array(
                [row[position] for row in rows], dtype=spec.dtype.numpy_dtype
            )
            columns.append(Column(spec.name, values, spec.dtype))
        return cls(columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        return cls(
            Column(spec.name, np.empty(0, dtype=spec.dtype.numpy_dtype), spec.dtype)
            for spec in schema
        )

    # -- basic accessors -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema (column names and types, in order)."""
        return self._schema

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def origin(self) -> "Table":
        """The table whose measured statistics describe this table's
        data: the table itself, unless it was built as a hypothetical
        view of another one."""
        return self if self._origin is None else self._origin

    @property
    def memo(self) -> dict:
        """Facts derived from this table's (immutable) data, memoised by
        whoever derives them — the optimiser keeps detected correlations
        here. The memo lives and dies with the table object, so no fact
        outlives the data it was measured on."""
        return self._memo

    def column(self, name: str) -> Column:
        """The column named ``name``.

        :raises SchemaError: if absent.
        """
        if name not in self._columns:
            raise SchemaError(
                f"no column {name!r}; table has {list(self._schema.names)}"
            )
        return self._columns[name]

    def __getitem__(self, name: str) -> np.ndarray:
        """Shorthand for ``table.column(name).values``."""
        return self.column(name).values

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, num_rows={self._num_rows})"

    def columns(self) -> Iterator[Column]:
        """Iterate over the columns in schema order."""
        return iter(self._columns.values())

    def memory_bytes(self) -> int:
        """Total bytes held by all column arrays."""
        return sum(column.memory_bytes() for column in self._columns.values())

    # -- relational-ish helpers -------------------------------------------

    def project(self, names: Iterable[str]) -> "Table":
        """Keep only ``names``, in the given order (shares column data)."""
        return Table(self.column(name) for name in names)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns per ``mapping`` (absent names stay unchanged)."""
        return Table(
            column.renamed(mapping.get(column.name, column.name))
            for column in self.columns()
        )

    def qualified(self, relation: str) -> "Table":
        """All columns renamed to ``relation.column`` (for join inputs)."""
        return self.rename(
            {name: f"{relation}.{name}" for name in self._schema.names}
        )

    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position into a new table."""
        return Table(column.take(indices) for column in self.columns())

    def slice(self, start: int, stop: int) -> "Table":
        """Zero-copy contiguous row slice ``[start, stop)``."""
        start = max(0, min(start, self._num_rows))
        stop = max(start, min(stop, self._num_rows))
        return Table(column.slice(start, stop) for column in self.columns())

    def head(self, count: int = 10) -> "Table":
        """The first ``count`` rows."""
        return self.slice(0, count)

    def sort_by(self, names: Sequence[str]) -> "Table":
        """Rows sorted lexicographically by ``names`` (stable)."""
        if not names:
            return self
        # np.lexsort sorts by the *last* key first.
        keys = tuple(self[name] for name in reversed(names))
        order = np.lexsort(keys)
        return self.take(order)

    def to_rows(self) -> list[tuple]:
        """Materialise as a list of Python row tuples (small tables only)."""
        arrays = [self[name] for name in self._schema.names]
        return [tuple(array[i].item() for array in arrays) for i in range(self._num_rows)]

    def equals(self, other: "Table") -> bool:
        """Exact equality: same schema and same rows in the same order."""
        if self._schema != other._schema or self._num_rows != other._num_rows:
            return False
        return all(
            self.column(name).equals(other.column(name))
            for name in self._schema.names
        )

    def equals_unordered(self, other: "Table") -> bool:
        """Bag equality: same schema and the same multiset of rows."""
        if self._schema != other._schema or self._num_rows != other._num_rows:
            return False
        return sorted(self.to_rows()) == sorted(other.to_rows())

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width textual rendering of (at most ``limit``) rows."""
        names = list(self._schema.names)
        shown = self.head(limit).to_rows()
        cells = [[str(v) for v in row] for row in shown]
        widths = [
            max(len(names[i]), *(len(row[i]) for row in cells), 1)
            if cells
            else len(names[i])
            for i in range(len(names))
        ]
        header = " | ".join(name.ljust(w) for name, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in cells
        ]
        footer = []
        if self._num_rows > limit:
            footer.append(f"... ({self._num_rows - limit} more rows)")
        return "\n".join([header, rule, *body, *footer])
