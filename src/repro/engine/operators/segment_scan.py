"""The out-of-core scan: pinned row groups with zone-map segment skipping.

:class:`SegmentScan` is what a scan over a disk-resident table lowers to
(see :func:`repro.core.plan.to_operator`). It walks the table segment by
segment; before touching a segment it consults the zone maps against its
pushed-down predicates and skips segments provably empty — the skip is
free (manifest metadata only, no I/O). Unpruned segments are pinned as a
:meth:`~repro.storage.disk.table.DiskTable.row_group` through the buffer
pool, sliced into vectorised chunks, and released. A scan told which
``columns`` its ancestors read pins only those columns' segments; the
others are never decoded, and never compete for the pool.

The pushed-down predicates only *skip*; they are not applied row-wise
here. The Filter above the scan still evaluates them, so results are
bit-identical to the in-memory path — the zone maps merely prove which
segments cannot contribute.
"""

from __future__ import annotations

from typing import Collection, Iterator, Sequence

import numpy as np

from repro.engine.expressions import Expression
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    PhysicalOperator,
    kept_columns,
)
from repro.service.context import check_active_context
from repro.storage.disk.table import DiskTable
from repro.storage.schema import ColumnSpec, Schema


class SegmentScan(PhysicalOperator):
    """Stream a disk-resident table, skipping zone-map-pruned segments.

    :param table: the disk table to scan.
    :param alias: relation alias; output columns are ``alias.column``
        (empty = raw column names), matching ``Table.qualified``.
    :param predicates: pushed-down conjuncts used for segment skipping
        only — never applied row-wise here.
    :param columns: the output columns (qualified names) an ancestor
        reads; ``None`` (default) scans every column. Names the table
        does not have are ignored, and at least one column is always
        scanned (it carries the row count). Zone-map skipping does not
        depend on it: a predicate's column need not be scanned to prune.
    """

    def __init__(
        self,
        table: DiskTable,
        alias: str = "",
        predicates: Sequence[Expression] = (),
        columns: Collection[str] | None = None,
    ) -> None:
        super().__init__(children=[])
        self._table = table
        self._alias = alias
        self._predicates = tuple(predicates)
        prefix = f"{alias}." if alias else ""
        raw = {f"{prefix}{name}": name for name in table.schema.names}
        #: raw column name -> output (qualified) name, in table order.
        self._names = {
            raw[output]: output for output in kept_columns(list(raw), columns)
        }
        self._raw_names = list(self._names)

    @property
    def table(self) -> DiskTable:
        """The scanned disk table."""
        return self._table

    @property
    def output_schema(self) -> Schema:
        return Schema(
            ColumnSpec(output, self._table.schema[name].dtype)
            for name, output in self._names.items()
        )

    def chunks(self) -> Iterator[Chunk]:
        table = self._table
        produced = False
        for index in range(table.num_segments):
            check_active_context()
            if table.segment_prunable(index, self._predicates, self._alias):
                self._note_io(segments_skipped=1)
                continue
            with table.row_group(index, self._raw_names) as group:
                self._note_io(segments_read=1, bytes_read=group.cold_bytes)
                # The pinned decoded group is this scan's working set.
                self._note_memory(group.nbytes)
                data = {
                    self._names[name]: values
                    for name, values in group.arrays.items()
                }
                for start in range(0, group.num_rows, DEFAULT_CHUNK_SIZE):
                    stop = min(start + DEFAULT_CHUNK_SIZE, group.num_rows)
                    produced = True
                    yield Chunk(
                        {name: values[start:stop] for name, values in data.items()}
                    )
        if not produced:
            # Preserve the engine convention: even an empty relation
            # yields one zero-row chunk carrying the schema.
            schema = self.output_schema
            yield Chunk(
                {
                    spec.name: np.empty(0, dtype=spec.dtype.numpy_dtype)
                    for spec in schema
                }
            )

    def describe(self) -> str:
        pushed = f", pushed={len(self._predicates)}" if self._predicates else ""
        return (
            f"SegmentScan(rows={self._table.num_rows}, "
            f"segments={self._table.num_segments}{pushed})"
        )
