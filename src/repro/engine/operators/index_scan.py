"""Index range scan: the "unclustered B-tree" access path of §1.

Where a :class:`~repro.engine.operators.scan.TableScan` + filter reads
every row, :class:`IndexRangeScan` gathers only the rows an unclustered
index on the column names: the column's sorted permutation, BSJ's build
side. Output follows the index (value order, ties in row order), so the
scanned column comes out sorted — an access-path choice with a DQO
plan-property side effect, exactly §1's point.
"""

from __future__ import annotations

from repro.engine.kernels.joins import BuildSide
from repro.engine.operators.base import MaterialisedOperator
from repro.errors import ExecutionError
from repro.storage.schema import Schema
from repro.storage.table import Table


class IndexRangeScan(MaterialisedOperator):
    """Scan the rows of ``table`` whose ``column`` lies in ``[low, high]``
    through ``build``, the column's sorted build side, in ascending
    ``column`` order."""

    def __init__(
        self,
        table: Table,
        column: str,
        build: BuildSide,
        low: int,
        high: int,
    ) -> None:
        super().__init__(children=[])
        if column not in table.schema:
            raise ExecutionError(f"index column {column!r} not in schema")
        self._table = table
        self._column = column
        self._build = build
        self._low = low
        self._high = high

    @property
    def output_schema(self) -> Schema:
        return self._table.schema

    def _materialise(self) -> Table:
        row_ids = self._build.range_rows(self._low, self._high)
        gathered = self._table.take(row_ids)
        # Working set: the consulted index plus the gathered row copy.
        self._note_memory(
            self._build.structure_bytes + row_ids.nbytes + gathered.memory_bytes()
        )
        return gathered

    def describe(self) -> str:
        return (
            f"IndexRangeScan({self._column} in [{self._low}, {self._high}], "
            f"rows={self._table.num_rows})"
        )
