"""The benchmark's query families and a numpy-only evaluator for them.

Every operation's result is compared with :func:`evaluate`, which
imports nothing from ``repro``: it uses foreign-key position lookup,
boolean masks and ``np.unique`` / ``np.bincount`` on the raw arrays of
:mod:`perf.datagen`. One :class:`Query` covers all three families —
group-by over one table (no joins), the paper's section 4.3 join (one
join) and the star join (one join per dimension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Tables = dict  # {table name: {column name: array}}


@dataclass(frozen=True)
class Query:
    """``SELECT <group>, COUNT(*) | SUM(<fact>.<sum_column>) FROM <fact>
    joined to each dimension on ``dimension.ID = fact.<fk>``
    [WHERE <table>.<column> < <literal>] GROUP BY <group>``."""

    #: the table whose rows are counted; holds the foreign keys.
    fact: str
    #: the grouping column, as (table, column).
    group: tuple[str, str]
    #: (dimension table, fact foreign-key column), grouped dimension first.
    joins: tuple[tuple[str, str], ...] = ()
    #: (table, column, literal) for ``table.column < literal``.
    filter: tuple[str, str, int] | None = None
    #: aggregate ``SUM(fact.sum_column)`` instead of ``COUNT(*)``.
    sum_column: str | None = None

    def sql(self) -> str:
        """The query text handed to the program."""
        aggregate = (
            f"SUM({self.fact}.{self.sum_column})" if self.sum_column else "COUNT(*)"
        )
        group = f"{self.group[0]}.{self.group[1]}"
        parts = [f"SELECT {group}, {aggregate}"]
        if self.joins:
            first, first_fk = self.joins[0]
            parts.append(
                f"FROM {first} JOIN {self.fact} ON {first}.ID = {self.fact}.{first_fk}"
            )
            parts.extend(
                f"JOIN {table} ON {self.fact}.{fk} = {table}.ID"
                for table, fk in self.joins[1:]
            )
        else:
            parts.append(f"FROM {self.fact}")
        if self.filter is not None:
            table, column, literal = self.filter
            parts.append(f"WHERE {table}.{column} < {literal}")
        parts.append(f"GROUP BY {group}")
        return " ".join(parts)


def fk_positions(parent_ids: np.ndarray, child_fk: np.ndarray) -> np.ndarray:
    """For each child row, the position of the parent row it references."""
    order = np.argsort(parent_ids, kind="stable")
    positions = order[np.searchsorted(parent_ids, child_fk, sorter=order)]
    if not np.array_equal(parent_ids[positions], child_fk):
        raise ValueError("foreign key references a missing parent row")
    return positions


def evaluate(query: Query, tables: Tables) -> tuple[np.ndarray, np.ndarray]:
    """The query's rows as (group keys ascending, aggregate per key).

    Every join is a foreign-key join, so each fact row matches exactly
    one row of each dimension: the result aggregates fact rows, and a
    dimension's column is read through the fact row's foreign key.
    """
    fact = tables[query.fact]
    foreign_keys = dict(query.joins)

    def column(table: str, name: str) -> np.ndarray:
        if table == query.fact:
            return fact[name]
        positions = fk_positions(tables[table]["ID"], fact[foreign_keys[table]])
        return tables[table][name][positions]

    keys = column(*query.group)
    values = fact[query.sum_column] if query.sum_column else None
    if query.filter is not None:
        table, name, literal = query.filter
        mask = column(table, name) < literal
        keys = keys[mask]
        values = values[mask] if values is not None else None
    unique, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    if values is None:
        return unique, counts.astype(np.int64)
    # float64 accumulation is exact here: sums stay far below 2**53.
    sums = np.bincount(inverse.ravel(), weights=values, minlength=unique.size)
    return unique, sums.astype(np.int64)


def same_rows(expected: tuple, keys, values) -> bool:
    """True when (keys, values) holds exactly the expected rows, in any
    row order."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != expected[0].shape or values.shape != expected[1].shape:
        return False
    order = np.argsort(keys, kind="stable")
    return bool(
        np.array_equal(keys[order], expected[0])
        and np.array_equal(values[order], expected[1])
    )
