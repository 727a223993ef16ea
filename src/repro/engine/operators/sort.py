"""Sort and partition operators.

``Sort`` is the classic pipeline breaker. ``PartitionBy`` is the paper's
Figure 2 granule made executable: it consumes its input and exposes *"a
bundle of independent producers"* — one producer per group — without
deciding how downstream code consumes them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    GroupingAssignment,
    assign_slots,
)
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    MaterialisedOperator,
    PhysicalOperator,
)
from repro.errors import ExecutionError
from repro.storage.schema import Schema
from repro.storage.table import Table


class Sort(MaterialisedOperator):
    """Materialise the input, emit it sorted by the given key columns."""

    def __init__(
        self,
        child: PhysicalOperator,
        keys: list[str],
    ) -> None:
        super().__init__(children=[child])
        schema = child.output_schema
        for key in keys:
            if key not in schema:
                raise ExecutionError(f"sort key {key!r} not in input schema")
        if not keys:
            raise ExecutionError("sort needs at least one key column")
        self._keys = list(keys)

    @property
    def output_schema(self) -> Schema:
        return self.children[0].output_schema

    def _materialise(self) -> Table:
        table = self.children[0].to_table()
        ordered = table.sort_by(self._keys)
        # Sort buffer: the materialised input plus the reordered copy.
        self._note_memory(table.memory_bytes() + ordered.memory_bytes())
        return ordered

    def describe(self) -> str:
        return f"Sort(by={self._keys})"


class PartitionBy(PhysicalOperator):
    """Figure 2's ``partitionBy``: one producer per group.

    Consumes the input, assigns rows to groups with a selectable
    implementation (the very decision DQO optimises), and then offers the
    groups both as a single slot-tagged stream (:meth:`chunks`, column
    ``__slot__`` appended) and as true independent producers
    (:meth:`producers`).
    """

    SLOT_COLUMN = "__slot__"

    def __init__(
        self,
        child: PhysicalOperator,
        key: str,
        algorithm: GroupingAlgorithm = GroupingAlgorithm.HG,
    ) -> None:
        super().__init__(children=[child])
        if key not in child.output_schema:
            raise ExecutionError(f"partition key {key!r} not in input schema")
        self._key = key
        self._algorithm = algorithm
        self._materialised: Table | None = None
        self._assignment: GroupingAssignment | None = None

    @property
    def output_schema(self) -> Schema:
        return self.children[0].output_schema

    @property
    def key(self) -> str:
        """The partitioning key column."""
        return self._key

    def _ensure_materialised(self) -> tuple[Table, GroupingAssignment]:
        if self._materialised is None or self._assignment is None:
            table = self.children[0].to_table()
            assignment = assign_slots(
                table[self._key], self._algorithm, validate=True
            )
            self._materialised = table
            self._assignment = assignment
            self._note_memory(
                table.memory_bytes() + assignment.memory_bytes()
            )
        return self._materialised, self._assignment

    def num_partitions(self) -> int:
        """Number of groups (produced bundles)."""
        __, assignment = self._ensure_materialised()
        return assignment.num_groups

    def chunks(self) -> Iterator[Chunk]:
        """The input stream with a dense ``__slot__`` group id appended."""
        table, assignment = self._ensure_materialised()
        names = list(table.schema.names)
        for start in range(0, max(table.num_rows, 1), DEFAULT_CHUNK_SIZE):
            stop = min(start + DEFAULT_CHUNK_SIZE, table.num_rows)
            data = {name: table[name][start:stop] for name in names}
            data[self.SLOT_COLUMN] = assignment.slots[start:stop]
            yield Chunk(data)
            if stop >= table.num_rows:
                return

    def producers(self) -> Iterator[tuple[int, Table]]:
        """Figure 2 semantics: yield ``(group_key, rows_of_that_group)``
        pairs — a bundle of independent producers."""
        table, assignment = self._ensure_materialised()
        order = np.argsort(assignment.slots, kind="stable")
        sorted_slots = assignment.slots[order]
        boundaries = np.searchsorted(
            sorted_slots, np.arange(assignment.num_groups + 1)
        )
        for group in range(assignment.num_groups):
            rows = order[boundaries[group] : boundaries[group + 1]]
            yield int(assignment.group_keys[group]), table.take(rows)

    def describe(self) -> str:
        return f"PartitionBy(key={self._key}, impl={self._algorithm.value})"
