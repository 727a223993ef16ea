"""Table scan and streaming row operators: filter, project, limit."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.engine.expressions import Expression
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    MaterialisedOperator,
    PhysicalOperator,
)
from repro.errors import ExecutionError
from repro.storage.dtypes import DataType
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.table import Table


class TableScan(MaterialisedOperator):
    """Scan an in-memory table: handed to a materialising parent as it
    is, sliced into chunks for a streaming one."""

    def __init__(self, table: Table, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        super().__init__(children=[])
        self._table = table
        self._chunk_size = chunk_size

    @property
    def output_schema(self) -> Schema:
        return self._table.schema

    @property
    def table(self) -> Table:
        """The scanned table."""
        return self._table

    def _materialise(self) -> Table:
        # The scan pins its table for the duration of the query.
        self._note_memory(self._table.memory_bytes())
        return self._table

    def describe(self) -> str:
        return f"TableScan(rows={self._table.num_rows})"


class Filter(PhysicalOperator):
    """Keep rows where a boolean expression holds. Streaming and serial
    at every worker count: no plan prices parallel filtering."""

    def __init__(self, child: PhysicalOperator, predicate: Expression) -> None:
        super().__init__(children=[child])
        missing = predicate.referenced_columns() - set(child.output_schema.names)
        if missing:
            raise ExecutionError(
                f"filter references missing column(s): {sorted(missing)}"
            )
        self._predicate = predicate

    @property
    def output_schema(self) -> Schema:
        return self.children[0].output_schema

    def chunks(self) -> Iterator[Chunk]:
        for chunk in self.children[0].chunks():
            mask = np.asarray(self._predicate.evaluate(chunk.data()), dtype=bool)
            filtered = chunk.filter(mask)
            # Working set: the mask plus the filtered copy of one chunk.
            self._note_memory(int(mask.nbytes) + filtered.memory_bytes())
            yield filtered

    def describe(self) -> str:
        return f"Filter({self._predicate!r})"


class Project(PhysicalOperator):
    """Evaluate named expressions per row. Streaming.

    :param outputs: (alias, expression) pairs in output column order.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        outputs: list[tuple[str, Expression]],
    ) -> None:
        super().__init__(children=[child])
        if not outputs:
            raise ExecutionError("projection must produce at least one column")
        available = set(child.output_schema.names)
        for alias, expression in outputs:
            missing = expression.referenced_columns() - available
            if missing:
                raise ExecutionError(
                    f"projection {alias!r} references missing column(s): "
                    f"{sorted(missing)}"
                )
        self._outputs = list(outputs)

    @property
    def output_schema(self) -> Schema:
        child_schema = self.children[0].output_schema
        specs = []
        for alias, expression in self._outputs:
            referenced = expression.referenced_columns()
            if len(referenced) == 1:
                source = next(iter(referenced))
                dtype = child_schema[source].dtype
            else:
                dtype = DataType.INT64
            specs.append(ColumnSpec(alias, dtype))
        return Schema(specs)

    def chunks(self) -> Iterator[Chunk]:
        for chunk in self.children[0].chunks():
            projected = Chunk(
                {
                    alias: np.asarray(expression.evaluate(chunk.data()))
                    for alias, expression in self._outputs
                }
            )
            self._note_memory(projected.memory_bytes())
            yield projected

    def describe(self) -> str:
        inner = ", ".join(
            f"{expression!r} AS {alias}" for alias, expression in self._outputs
        )
        return f"Project({inner})"


class Limit(PhysicalOperator):
    """Pass through at most ``count`` rows, then stop pulling. Streaming."""

    def __init__(self, child: PhysicalOperator, count: int) -> None:
        super().__init__(children=[child])
        if count < 0:
            raise ExecutionError(f"limit must be >= 0, got {count}")
        self._count = count

    @property
    def output_schema(self) -> Schema:
        return self.children[0].output_schema

    def chunks(self) -> Iterator[Chunk]:
        remaining = self._count
        for chunk in self.children[0].chunks():
            if remaining <= 0:
                return
            if chunk.num_rows <= remaining:
                remaining -= chunk.num_rows
                yield chunk
            else:
                mask = np.zeros(chunk.num_rows, dtype=bool)
                mask[:remaining] = True
                remaining = 0
                yield chunk.filter(mask)
                return

    def describe(self) -> str:
        return f"Limit({self._count})"
