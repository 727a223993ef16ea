"""Index range scan: the "unclustered B-tree" access path of §1.

Where a :class:`~repro.engine.operators.scan.TableScan` + filter reads
every row, :class:`IndexRangeScan` consults an unclustered B+-tree that
maps column values to row positions, gathers only the matching rows, and
re-applies nothing. Row order of the output follows the *index* (value
order), so the scanned column comes out sorted — an access-path choice
with a DQO plan-property side effect, exactly §1's point.
"""

from __future__ import annotations

import numpy as np

from repro.engine.operators.base import MaterialisedOperator
from repro.errors import ExecutionError
from repro.indexes.btree import BPlusTree
from repro.storage.schema import Schema
from repro.storage.table import Table


def build_row_index(table: Table, column: str, order: int = 64) -> BPlusTree:
    """Build an unclustered B+-tree from column values to row-id lists."""
    tree = BPlusTree(order=order)
    values = table[column]
    # Bulk path: group row ids by value, then bulkload sorted keys.
    sort_order = np.argsort(values, kind="stable")
    sorted_values = values[sort_order]
    if sorted_values.size == 0:
        return tree
    change = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    starts = np.concatenate([[0], change])
    stops = np.concatenate([change, [sorted_values.size]])
    keys = sorted_values[starts]
    row_lists = [
        sort_order[start:stop].astype(np.int64)
        for start, stop in zip(starts, stops)
    ]
    tree.bulkload(keys, row_lists)
    return tree


class IndexRangeScan(MaterialisedOperator):
    """Scan the rows of ``table`` whose ``column`` lies in ``[low, high]``
    via an unclustered B+-tree, in ascending ``column`` order."""

    def __init__(
        self,
        table: Table,
        column: str,
        index: BPlusTree,
        low: int,
        high: int,
    ) -> None:
        super().__init__(children=[])
        if column not in table.schema:
            raise ExecutionError(f"index column {column!r} not in schema")
        self._table = table
        self._column = column
        self._index = index
        self._low = low
        self._high = high

    @property
    def output_schema(self) -> Schema:
        return self._table.schema

    def _materialise(self) -> Table:
        row_lists = [
            rows for __, rows in self._index.range(self._low, self._high)
        ]
        if row_lists:
            row_ids = np.concatenate(row_lists)
        else:
            row_ids = np.empty(0, dtype=np.int64)
        gathered = self._table.take(row_ids)
        # Working set: the consulted index plus the gathered row copy.
        self._note_memory(
            self._index.memory_bytes()
            + int(row_ids.nbytes)
            + gathered.memory_bytes()
        )
        return gathered

    def describe(self) -> str:
        return (
            f"IndexRangeScan({self._column} in [{self._low}, {self._high}], "
            f"rows={self._table.num_rows})"
        )
