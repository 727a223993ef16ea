"""The physical operator protocol: chunked pull iteration.

Operators follow the vectorised descendant of the volcano model the paper
cites ([3] MonetDB/X100): instead of one tuple per ``next()`` call, each
step yields a :class:`Chunk` of a few thousand rows as parallel numpy
arrays. Pipeline breakers (sort, grouping, join build sides) materialise
their input; streaming operators (filter, project, limit) pass chunks
through.

An operator has two outputs, ``chunks()`` for a streaming parent and
``to_table()`` for a materialising one. A :class:`MaterialisedOperator`
— one whose whole output exists as a :class:`Table` before the first row
leaves it (table scan, join, group-by, sort) — hands that table to
``to_table()`` as it is, and slices the same table for ``chunks()``; every
other operator's ``to_table()`` drains its chunks. So a pipeline of
breakers copies nothing between them.
"""

from __future__ import annotations

import threading
from typing import Callable, Collection, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.errors import ExecutionError
from repro.service.context import charge_active_context, check_active_context
from repro.storage.column import Column
from repro.storage.schema import Schema
from repro.storage.table import Table

T = TypeVar("T")

#: default rows per chunk, in the vectorised sweet-spot range.
DEFAULT_CHUNK_SIZE = 4096

#: guards the read-compare-write accounting updates below: morsel workers
#: report into the same operator instance concurrently.
_ACCOUNTING_LOCK = threading.Lock()


class Chunk:
    """A horizontal slice of a relation: equal-length named arrays."""

    __slots__ = ("_data", "_num_rows")

    def __init__(self, data: Mapping[str, np.ndarray]) -> None:
        lengths = {name: len(values) for name, values in data.items()}
        if len(set(lengths.values())) > 1:
            raise ExecutionError(f"chunk arrays have unequal lengths: {lengths}")
        self._data = dict(data)
        self._num_rows = next(iter(lengths.values())) if lengths else 0

    @property
    def num_rows(self) -> int:
        """Rows in this chunk."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Names of the chunk's columns, in order."""
        return list(self._data)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise ExecutionError(
                f"chunk has no column {name!r}; have {sorted(self._data)}"
            )
        return self._data[name]

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def data(self) -> dict[str, np.ndarray]:
        """The underlying name -> array mapping (shared, do not mutate)."""
        return self._data

    def select(self, names: list[str]) -> "Chunk":
        """A chunk with only ``names``, in the given order."""
        return Chunk({name: self[name] for name in names})

    def filter(self, mask: np.ndarray) -> "Chunk":
        """Rows where ``mask`` is true."""
        return Chunk({name: values[mask] for name, values in self._data.items()})

    def memory_bytes(self) -> int:
        """Total bytes of the chunk's arrays."""
        return sum(int(values.nbytes) for values in self._data.values())


class PhysicalOperator:
    """Base class of all physical operators.

    Subclasses implement :meth:`chunks` (the data flow) and expose
    :attr:`output_schema`. ``children`` enables generic plan walking.

    The ``estimated_*`` class attributes are the optimiser's predictions
    for this node, attached by :func:`repro.core.plan.to_operator` when a
    plan is lowered from an optimised :class:`~repro.core.plan.PhysicalNode`
    tree. Hand-built operator trees keep the ``None`` defaults, which
    :func:`repro.obs.instrument.instrumented` reads as "no estimate" —
    q-error reporting then stays silent for those nodes.
    """

    #: optimiser-estimated output cardinality (None = not optimised).
    estimated_rows: float | None = None
    #: optimiser-estimated cumulative cost in cost-model units.
    estimated_cost: float | None = None
    #: optimiser-estimated distinct groups (join/group-by nodes only).
    estimated_groups: float | None = None
    #: the plan-node kind ('scan', 'join', ...) this operator lowers.
    plan_op: str = ""
    #: the algorithm family the optimiser chose (e.g. 'HG', 'SPHJ').
    plan_algorithm: str = ""
    #: shape hash of the plan subtree this operator lowers (see
    #: :func:`repro.core.plan.plan_fingerprint`; "" = not optimised).
    #: The root operator's value is the whole query's plan hash — the
    #: key the plan-regression sentinel watches for flips.
    plan_fingerprint: str = ""
    #: peak working-set bytes observed during the latest execution; a
    #: class attribute so operators that never note memory stay at 0
    #: without any per-instance cost.
    _peak_memory_bytes: int = 0
    #: workers the latest execution actually scheduled across (0 = this
    #: operator never ran a morsel batch; 1 = batches ran inline/serial).
    _parallel_degree: int = 0
    #: summed worker wall seconds of the latest execution's morsel batches.
    _parallel_busy_seconds: float = 0.0
    #: disk segments this operator read during the latest execution (class
    #: attributes, like the memory peak: only segment scans ever note I/O).
    _segments_read: int = 0
    #: disk segments zone maps proved empty (skipped without reading).
    _segments_skipped: int = 0
    #: cold payload bytes the buffer pool read from disk for this operator.
    _bytes_read: int = 0

    def __init__(self, children: list["PhysicalOperator"]) -> None:
        self.children = children

    def memory_bytes(self) -> int:
        """Peak bytes of working state (build structures, sort buffers,
        materialised inputs/outputs) this operator held while producing
        its latest output. 0 until the operator has executed, and for
        purely pass-through operators. Child operators account for their
        own state; this value is per-node, not cumulative."""
        return self._peak_memory_bytes

    def reset_memory_accounting(self) -> None:
        """Forget the recorded peak and parallelism facts (called before
        a fresh instrumented execution, so repeated runs never report
        stale numbers)."""
        self._peak_memory_bytes = 0
        self._parallel_degree = 0
        self._parallel_busy_seconds = 0.0
        self._segments_read = 0
        self._segments_skipped = 0
        self._bytes_read = 0

    def _note_memory(self, nbytes: int) -> None:
        """Record a working-set high-water mark (monotone per run).

        Thread-safe: parallel morsels executing inside one operator may
        report concurrently, and an unlocked read-compare-write would
        drop peaks. Also charges the active
        :class:`~repro.service.context.QueryContext` (if any), so a
        governed query's memory budget is enforced at the same points
        the profiler observes."""
        with _ACCOUNTING_LOCK:
            if nbytes > self._peak_memory_bytes:
                self._peak_memory_bytes = int(nbytes)
        charge_active_context(nbytes)

    def parallel_degree(self) -> int:
        """Workers the latest execution scheduled morsels across (0 when
        the operator ran no morsel batch at all)."""
        return self._parallel_degree

    def worker_busy_seconds(self) -> float:
        """Summed worker wall seconds of the latest execution's morsel
        batches (across all workers; compare against the operator's own
        wall time for effective speedup)."""
        return self._parallel_busy_seconds

    def io_counters(self) -> tuple[int, int, int]:
        """``(segments_read, segments_skipped, bytes_read)`` of the latest
        execution — all zero for operators that never touch disk."""
        return (self._segments_read, self._segments_skipped, self._bytes_read)

    def _note_io(
        self, segments_read: int = 0, segments_skipped: int = 0, bytes_read: int = 0
    ) -> None:
        """Accumulate disk I/O facts (thread-safe, like :meth:`_note_memory` —
        morsel workers may report into one operator concurrently)."""
        with _ACCOUNTING_LOCK:
            self._segments_read = self._segments_read + int(segments_read)
            self._segments_skipped = self._segments_skipped + int(segments_skipped)
            self._bytes_read = self._bytes_read + int(bytes_read)

    def _note_parallelism(self, workers_used: int, busy_seconds: float) -> None:
        """Record a morsel batch's scheduling facts (accumulates per run)."""
        with _ACCOUNTING_LOCK:
            if workers_used > self._parallel_degree:
                self._parallel_degree = int(workers_used)
            self._parallel_busy_seconds = (
                self._parallel_busy_seconds + float(busy_seconds)
            )

    @property
    def output_schema(self) -> Schema:
        """Schema of the rows this operator produces."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Display name used by ``explain`` output."""
        return type(self).__name__

    def chunks(self) -> Iterator[Chunk]:
        """Yield the operator's output as a stream of chunks."""
        raise NotImplementedError

    def to_table(self) -> Table:
        """Drain the operator into a materialised :class:`Table`."""
        schema = self.output_schema
        pieces: dict[str, list[np.ndarray]] = {name: [] for name in schema.names}
        for chunk in self.chunks():
            check_active_context()
            for name in schema.names:
                pieces[name].append(chunk[name])
        data = {}
        for spec in schema:
            arrays = pieces[spec.name]
            if arrays:
                data[spec.name] = np.concatenate(arrays)
            else:
                data[spec.name] = np.empty(0, dtype=spec.dtype.numpy_dtype)
        return Table.from_arrays(
            data, dtypes={spec.name: spec.dtype for spec in schema}
        )

    def explain(self, indent: int = 0) -> str:
        """A textual tree rendering of this operator subtree."""
        lines = [f"{'  ' * indent}{self.describe()}"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description used by :meth:`explain`."""
        return self.name


class MaterialisedOperator(PhysicalOperator):
    """An operator whose whole output is one :class:`Table` before the
    first row leaves it.

    Subclasses implement :meth:`_materialise`; both outputs derive from
    it. ``to_table()`` hands the table over without slicing it into
    chunks and concatenating them again; it polls the governing context
    before and after the work, where the chunk loop used to poll per
    chunk. :func:`repro.obs.instrument.instrumented` hooks the methods
    named in :attr:`HAND_OVERS` and :attr:`STEPS` as well as ``chunks``,
    and counts a handed-over output as the :func:`chunk_count` chunks it
    stands for.
    """

    _chunk_size: int = DEFAULT_CHUNK_SIZE
    #: methods that hand the whole output (anything with a ``num_rows``)
    #: to a parent; one call is one execution of the operator.
    HAND_OVERS: tuple[str, ...] = ("to_table",)
    #: methods a parent calls on a hand-over's result to finish the
    #: operator's work (a join's gather): the operator's own time and
    #: memory, but no rows of their own.
    STEPS: tuple[str, ...] = ()

    def _materialise(self) -> Table:
        """Compute the operator's whole output."""
        raise NotImplementedError

    def to_table(self) -> Table:
        check_active_context()
        table = self._materialise()
        check_active_context()
        return table

    def chunks(self) -> Iterator[Chunk]:
        yield from table_to_chunks(self._materialise(), self._chunk_size)


def kept_columns(
    names: Sequence[str], columns: Collection[str] | None
) -> list[str]:
    """Of ``names``, those an ancestor reads (``columns``; None = all),
    in their order. Never empty for a relation that has columns: one
    column at least must carry the row count."""
    if columns is None:
        return list(names)
    return [name for name in names if name in columns] or list(names[:1])


#: the memo entry of a structure whose column has been read once
#: (:func:`memoised` with ``second_touch``).
_TOUCHED = object()


def memoised(
    column: Column,
    kind: str,
    key: tuple,
    build: Callable[[], T | None],
    second_touch: bool = False,
) -> T | None:
    """``build()``, memoised on ``column`` as its one ``kind`` structure.

    ``build`` must read nothing but the column and ``key``, so a hit
    returns exactly what a fresh build would. A column keeps one entry
    per kind, and a miss replaces it; a build that raises, or declines
    by returning None, leaves the memo as it was. Every query shares the
    structure (a dataclass or one array), so its arrays are made
    read-only first.

    With ``second_touch`` the first read only records that it happened
    and returns None; the second builds. A filter's or a join's output
    is a fresh column read once, so it never pays for the build.
    """
    # Imported here: repro.obs imports this module.
    from repro.obs.runtime import get_metrics

    entry = column.memo.get(kind)
    current = entry is not None and entry[0] == key
    hit = current and entry[1] is not _TOUCHED
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(
            "engine.build_memo.hits" if hit else "engine.build_memo.misses",
            exist_ok=True,
        ).inc()
    if hit:
        return entry[1]
    if second_touch and not current:
        column.memo[kind] = (key, _TOUCHED)
        return None
    structure = build()
    if structure is None:
        return None
    arrays = (
        [structure] if isinstance(structure, np.ndarray) else vars(structure).values()
    )
    for value in arrays:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    column.memo[kind] = (key, structure)
    return structure


def chunk_count(num_rows: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Chunks :func:`table_to_chunks` slices ``num_rows`` rows into (an
    empty table still yields one chunk, carrying the schema)."""
    return max(-(-num_rows // chunk_size), 1)


def table_to_chunks(table: Table, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Chunk]:
    """Slice a table into chunks of at most ``chunk_size`` rows."""
    if chunk_size <= 0:
        raise ExecutionError(f"chunk_size must be > 0, got {chunk_size}")
    names = list(table.schema.names)
    if table.num_rows == 0:
        yield Chunk({name: table[name] for name in names})
        return
    for start in range(0, table.num_rows, chunk_size):
        check_active_context()
        stop = min(start + chunk_size, table.num_rows)
        yield Chunk({name: table[name][start:stop] for name in names})
