"""Disk-resident tables: segment files behind the Table protocol.

A :class:`DiskTable` opens a table directory written by
:func:`write_table` and speaks enough of the :class:`~repro.storage.
table.Table` protocol that every catalog consumer — the optimiser's
property/correlation extraction, Algorithmic View materialisation, the
naive executor — works unchanged. Column statistics come straight from
the manifest (persisted at write time), so opening a table and planning
against it reads **no data**: that is what lets the service restart
warm.

Data access always goes through a :class:`~repro.storage.disk.buffer.
BufferManager`: :meth:`DiskTable.row_group` pins one aligned segment
across all columns (what :class:`~repro.engine.operators.segment_scan.
SegmentScan` iterates), and :meth:`column_values` materialises a column
for whole-table consumers.

Zone-map reasoning lives here too: :meth:`segment_prunable` answers
"can this predicate conjunction match anything in segment *i*?" from
footer min/max alone, and :meth:`estimate_scan` turns the same zone
maps into the optimiser's segment-read and selectivity estimates.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.settings import DEFAULT_SEGMENT_ROWS, get_settings
from repro.storage.column import Column
from repro.storage.disk.buffer import BufferManager, get_buffer_manager
from repro.storage.disk.format import (
    FORMAT_VERSION,
    read_manifest,
    read_segment,
    statistics_from_dict,
    statistics_to_dict,
    write_manifest,
    write_segment,
)
from repro.storage.dtypes import DataType
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.statistics import (
    ColumnStatistics,
    collect_statistics,
    merge_statistics,
)
from repro.storage.table import Table

#: comparison operators zone maps can reason about.
_PRUNABLE_OPS = ("=", "<>", "<", "<=", ">", ">=")


def conjunct_triple(predicate, alias: str, names) -> tuple[str, str, float] | None:
    """Decompose a conjunct into ``(raw column, op, literal)`` if it has
    the simple ``column <op> literal`` shape zone maps understand.

    ``alias`` strips the scan qualification (``alias.col`` -> ``col``);
    ``names`` is the set of raw column names the table owns. Returns
    ``None`` for any other expression shape (those conjuncts cannot
    prune, but still execute exactly in the Filter above the scan).
    """
    from repro.engine.expressions import BinaryOp, ColumnRef, Literal

    if not isinstance(predicate, BinaryOp) or predicate.op not in _PRUNABLE_OPS:
        return None
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    name = left.name
    if alias and name.startswith(alias + "."):
        name = name[len(alias) + 1 :]
    if name not in names:
        return None
    return (name, op, right.value)


def _zone_prunes(meta: dict, op: str, value) -> bool:
    """True when the zone map proves ``col <op> value`` matches no row
    of the segment. NaN rows never satisfy ``=``/range comparisons (so
    an all-null segment prunes for those), but *do* satisfy ``<>``."""
    zmin, zmax = meta.get("min"), meta.get("max")
    if zmin is None:  # all-null segment
        return op != "<>"
    if op == "=":
        return value < zmin or value > zmax
    if op == "<":
        return zmin >= value
    if op == "<=":
        return zmin > value
    if op == ">":
        return zmax <= value
    if op == ">=":
        return zmax < value
    # '<>': only an all-equal, null-free segment can prune.
    return meta.get("null_count", 0) == 0 and zmin == zmax == value


def _zone_fraction(meta: dict, op: str, value) -> float:
    """Estimated fraction of the segment's rows matching ``col <op>
    value``, assuming a uniform spread over the zone interval."""
    rows = max(int(meta["rows"]), 1)
    zmin, zmax = meta.get("min"), meta.get("max")
    nulls = int(meta.get("null_count", 0))
    if zmin is None:
        return 1.0 if op == "<>" else 0.0
    present = max(rows - nulls, 0) / rows
    distinct = max(int(meta.get("distinct", 1)) - (1 if nulls else 0), 1)
    if _zone_prunes(meta, op, value):
        return 0.0
    span = float(zmax) - float(zmin)
    if op == "=":
        return present / distinct
    if op == "<>":
        return max(present * (1.0 - 1.0 / distinct), nulls / rows)
    if span <= 0:
        return present  # single-value zone, not pruned => all match
    if op in ("<", "<="):
        fraction = (float(value) - float(zmin) + (1.0 if op == "<=" else 0.0)) / (
            span + 1.0
        )
    else:  # '>', '>='
        fraction = (float(zmax) - float(value) + (1.0 if op == ">=" else 0.0)) / (
            span + 1.0
        )
    return present * min(max(fraction, 0.0), 1.0)


@dataclass(frozen=True)
class ScanEstimate:
    """Zone-map-derived scan facts the optimiser costs a disk scan with."""

    #: segments in the table.
    segments_total: int
    #: segments the predicates cannot prune (what the scan will read).
    segments_read: int
    #: rows in the unpruned segments (what the scan touches).
    rows_scanned: float
    #: estimated rows surviving the predicates.
    rows_matching: float
    #: encoded payload bytes of the unpruned segments.
    bytes_scanned: int


class _RowGroup:
    """One pinned, aligned segment across the requested columns of a table."""

    __slots__ = ("arrays", "num_rows", "cold_bytes", "nbytes")

    def __init__(self, arrays: dict, num_rows: int, cold_bytes: int, nbytes: int) -> None:
        #: raw column name -> decoded values for this segment.
        self.arrays = arrays
        self.num_rows = num_rows
        #: payload bytes actually read from disk (0 when fully buffered).
        self.cold_bytes = cold_bytes
        #: decoded bytes pinned while this group is held.
        self.nbytes = nbytes


class DiskColumn:
    """A column of a :class:`DiskTable`: manifest statistics up front,
    values materialised through the buffer pool on demand."""

    __slots__ = ("_table", "_name", "_dtype", "_stats")

    def __init__(self, table: "DiskTable", name: str, dtype: DataType, stats: ColumnStatistics) -> None:
        self._table = table
        self._name = name
        self._dtype = dtype
        self._stats = stats

    @property
    def name(self) -> str:
        return self._name

    @property
    def dtype(self) -> DataType:
        return self._dtype

    @property
    def statistics(self) -> ColumnStatistics:
        """Persisted statistics (from the manifest; no data is read)."""
        return self._stats

    @property
    def values(self) -> np.ndarray:
        """Materialise the column through the buffer pool."""
        return self._table.column_values(self._name)

    @property
    def memo(self) -> dict:
        """A new, empty dict on every read: a disk column memoises
        nothing (a scan reads fresh arrays through the buffer pool), so
        what a reader stores here is dropped with the dict."""
        return {}

    def memory_bytes(self) -> int:
        """RAM held by the column object itself: none — segment bytes
        are accounted by the buffer pool and the scans that pin them."""
        return 0

    def __len__(self) -> int:
        return self._stats.count

    def __repr__(self) -> str:
        return f"DiskColumn({self._name!r}, {self._dtype.value}, n={len(self)})"

    def renamed(self, name: str) -> Column:
        return Column(name, self.values, self._dtype, self._stats)

    def take(self, indices: np.ndarray) -> Column:
        """Rows at ``indices``; decodes only the segments holding them."""
        return Column(
            self._name, self._table.take_values(self._name, indices), self._dtype
        )

    def slice(self, start: int, stop: int) -> Column:
        """Rows ``[start, stop)``; decodes only the segments covering them."""
        return Column(
            self._name, self._table.column_values(self._name, start, stop), self._dtype
        )

    def equals(self, other) -> bool:
        return (
            self._name == other.name
            and self._dtype == other.dtype
            and bool(np.array_equal(self.values, other.values))
        )


class DiskTable:
    """A disk-resident table directory opened behind the Table protocol.

    Whole-table operations (``sort_by``, ``qualified``, ...) materialise
    through :meth:`to_memory` and return plain in-memory results;
    ``take`` and ``slice`` decode only the segments holding their rows;
    segment-grained access (:meth:`row_group`,
    :meth:`segment_prunable`) is what the out-of-core scan path uses.
    """

    def __init__(self, directory: str, manifest: dict, buffer: BufferManager | None = None) -> None:
        self._directory = os.path.abspath(directory)
        self._manifest = manifest
        self._buffer = buffer
        self._columns: dict[str, dict] = {
            record["name"]: record for record in manifest["columns"]
        }
        self._schema = Schema(
            ColumnSpec(record["name"], DataType(record["dtype"]))
            for record in manifest["columns"]
        )
        self._stats = {
            name: statistics_from_dict(record["statistics"])
            for name, record in self._columns.items()
        }
        self._memo: dict = {}

    # -- identity & shape ---------------------------------------------------

    @property
    def directory(self) -> str:
        """The table directory (absolute)."""
        return self._directory

    @property
    def uid(self) -> str:
        """Buffer-pool key prefix identifying this table's files."""
        return self._directory

    @property
    def buffer(self) -> BufferManager:
        """The pool serving this table (process default unless pinned)."""
        return self._buffer if self._buffer is not None else get_buffer_manager()

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return int(self._manifest["num_rows"])

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def segment_rows(self) -> int:
        """Nominal rows per segment (the last segment may be shorter)."""
        return int(self._manifest["segment_rows"])

    @property
    def num_segments(self) -> int:
        """Aligned segment (row-group) count, identical across columns."""
        if not self._columns:
            return 0
        first = next(iter(self._columns.values()))
        return len(first["segments"])

    @property
    def statistics_version(self) -> int:
        """Bumped by :func:`append_table` / rewrites; surfaces through
        the catalog version so cached plans re-optimise against fresh
        zone maps."""
        return int(self._manifest["statistics_version"])

    @property
    def origin(self) -> "DiskTable":
        """The table whose statistics were measured on this data: itself
        (see :attr:`repro.storage.table.Table.origin`)."""
        return self

    @property
    def memo(self) -> dict:
        """Facts derived from this table's data, memoised per handle (see
        :attr:`repro.storage.table.Table.memo`). An append opens a new
        handle, so the memo never describes rows it was not measured on."""
        return self._memo

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"DiskTable({self._schema!r}, num_rows={self.num_rows}, "
            f"segments={self.num_segments}, dir={self._directory!r})"
        )

    # -- Table protocol -----------------------------------------------------

    def column(self, name: str) -> DiskColumn:
        record = self._column_record(name)
        return DiskColumn(
            self, name, DataType(record["dtype"]), self._stats[name]
        )

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column_values(name)

    def columns(self) -> Iterator[DiskColumn]:
        for name in self._schema.names:
            yield self.column(name)

    def memory_bytes(self) -> int:
        """Buffer-pool bytes currently resident for this table — the
        table's actual RAM footprint, not its on-disk size."""
        return self.buffer.resident_bytes_for(self.uid)

    def bytes_on_disk(self) -> int:
        """Total encoded payload bytes across all segments."""
        return sum(
            int(meta["payload_bytes"])
            for record in self._columns.values()
            for meta in record["segments"]
        )

    def decoded_bytes(self) -> int:
        """Bytes of the table fully decoded (the buffer-residency
        denominator)."""
        return sum(
            self.num_rows * DataType(record["dtype"]).byte_width
            for record in self._columns.values()
        )

    def to_memory(self) -> Table:
        """Materialise the whole table as an in-memory :class:`Table`
        (statistics carried over from the manifest, no re-scan)."""
        return Table(
            Column(
                name,
                self.column_values(name),
                DataType(self._columns[name]["dtype"]),
                self._stats[name],
            )
            for name in self._schema.names
        )

    def project(self, names) -> Table:
        return Table(self.column(name).renamed(name) for name in names)

    def rename(self, mapping) -> Table:
        return self.to_memory().rename(mapping)

    def qualified(self, relation: str) -> Table:
        return self.to_memory().qualified(relation)

    def take(self, indices: np.ndarray) -> Table:
        """:meth:`Table.take`, decoding only the segments holding the
        requested rows."""
        return Table(self.column(name).take(indices) for name in self._schema.names)

    def slice(self, start: int, stop: int) -> Table:
        """:meth:`Table.slice`, decoding only the segments covering
        ``[start, stop)``."""
        start = max(0, min(start, self.num_rows))
        stop = max(start, min(stop, self.num_rows))
        return Table(
            self.column(name).slice(start, stop) for name in self._schema.names
        )

    def head(self, count: int = 10) -> Table:
        return self.slice(0, count)

    def sort_by(self, names) -> Table:
        return self.to_memory().sort_by(names)

    def to_rows(self) -> list[tuple]:
        return self.to_memory().to_rows()

    def pretty(self, limit: int = 20) -> str:
        return self.to_memory().pretty(limit)

    def equals(self, other) -> bool:
        peer = other.to_memory() if isinstance(other, DiskTable) else other
        return self.to_memory().equals(peer)

    def equals_unordered(self, other) -> bool:
        peer = other.to_memory() if isinstance(other, DiskTable) else other
        return self.to_memory().equals_unordered(peer)

    # -- segment access -----------------------------------------------------

    def _column_record(self, name: str) -> dict:
        if name not in self._columns:
            from repro.errors import SchemaError

            raise SchemaError(
                f"no column {name!r}; table has {list(self._schema.names)}"
            )
        return self._columns[name]

    def _segment_loader(self, name: str, index: int):
        record = self._column_record(name)
        meta = record["segments"][index]
        path = os.path.join(self._directory, record["file"])
        dtype = DataType(record["dtype"]).numpy_dtype

        def load() -> tuple[np.ndarray, int]:
            return read_segment(path, meta, dtype), int(meta["payload_bytes"])

        return load

    def segment_values(self, name: str, index: int) -> np.ndarray:
        """One column segment, decoded through the buffer pool (pin
        released before returning — use :meth:`row_group` to hold pins
        across consumption)."""
        pool = self.buffer
        with pool.lease((self.uid, name, index), self._segment_loader(name, index)) as lease:
            return lease.array

    def column_values(
        self, name: str, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Rows ``[start, stop)`` of a column (the whole column by
        default), decoded (read-only). Only the segments covering the
        range go through the buffer pool."""
        record = self._column_record(name)
        stop = self.num_rows if stop is None else min(stop, self.num_rows)
        parts = []
        first = 0  # row number of the segment's first row
        for index, meta in enumerate(record["segments"]):
            if first >= stop or start >= stop:
                break
            rows = int(meta["rows"])
            if first + rows > start:
                values = self.segment_values(name, index)
                parts.append(values[max(start - first, 0) : stop - first])
            first += rows
        if not parts:
            return np.empty(0, dtype=DataType(record["dtype"]).numpy_dtype)
        if len(parts) == 1:
            return parts[0]
        merged = np.concatenate(parts)
        merged.flags.writeable = False
        return merged

    def take_values(self, name: str, indices: np.ndarray) -> np.ndarray:
        """A column's values at row positions ``indices`` (negative ones
        count from the end, as in numpy), decoded through the buffer
        pool: only the segments holding a requested row are read, and
        the rows are gathered from those segments laid end to end.

        :raises IndexError: for a position outside the table.
        """
        record = self._column_record(name)
        positions = np.asarray(indices, dtype=np.int64)
        num_rows = self.num_rows
        if positions.size and (
            int(positions.min()) < -num_rows or int(positions.max()) >= num_rows
        ):
            raise IndexError(f"row index out of range for {num_rows} rows")
        positions = np.where(positions < 0, positions + num_rows, positions)
        starts = np.cumsum([0] + [int(meta["rows"]) for meta in record["segments"]])
        segment_of = np.searchsorted(starts, positions, side="right") - 1
        needed = np.flatnonzero(np.bincount(segment_of, minlength=starts.size - 1))
        parts = [self.segment_values(name, int(index)) for index in needed]
        if not parts:
            return np.empty(0, dtype=DataType(record["dtype"]).numpy_dtype)
        # Where each needed segment starts in the parts laid end to end.
        shift = np.zeros(starts.size - 1, dtype=np.int64)
        shift[needed] = np.cumsum([0] + [part.size for part in parts[:-1]])
        shift -= starts[:-1]
        return np.concatenate(parts)[positions + shift[segment_of]]

    @contextmanager
    def row_group(self, index: int, columns: Sequence[str] | None = None):
        """Pin segment ``index`` across ``columns`` (every column when
        None); yields a :class:`_RowGroup`. Frames stay pinned (and the
        arrays valid) until the context exits. Pool frames are keyed per
        column, so a narrower group neither loads nor evicts for the
        columns it leaves out."""
        pool = self.buffer
        leases = []
        try:
            arrays: dict[str, np.ndarray] = {}
            cold = 0
            nbytes = 0
            rows = 0
            for name in self._schema.names if columns is None else columns:
                lease = pool.acquire(
                    (self.uid, name, index), self._segment_loader(name, index)
                )
                leases.append(lease)
                arrays[name] = lease.array
                cold += lease.bytes_read
                nbytes += int(lease.array.nbytes)
                rows = int(lease.array.size)
            yield _RowGroup(arrays, rows, cold, nbytes)
        finally:
            for lease in leases:
                pool.release(lease)

    # -- zone-map reasoning -------------------------------------------------

    def _triples(self, predicates, alias: str):
        names = set(self._schema.names)
        return [
            triple
            for triple in (
                conjunct_triple(predicate, alias, names) for predicate in predicates
            )
            if triple is not None
        ]

    def segment_prunable(self, index: int, predicates, alias: str = "") -> bool:
        """True when the zone maps prove no row of segment ``index``
        can satisfy the conjunction of ``predicates``."""
        for name, op, value in self._triples(predicates, alias):
            meta = self._columns[name]["segments"][index]
            if _zone_prunes(meta, op, value):
                return True
        return False

    def estimate_scan(self, predicates=(), alias: str = "") -> ScanEstimate:
        """Zone-map estimate of what scanning under ``predicates`` costs:
        segments read after pruning, rows touched, bytes fetched, and the
        estimated matching-row count (uniform-within-zone assumption)."""
        triples = self._triples(predicates, alias)
        total = self.num_segments
        segments_read = 0
        rows_scanned = 0.0
        rows_matching = 0.0
        bytes_scanned = 0
        for index in range(total):
            fraction = 1.0
            pruned = False
            for name, op, value in triples:
                meta = self._columns[name]["segments"][index]
                if _zone_prunes(meta, op, value):
                    pruned = True
                    break
                fraction *= _zone_fraction(meta, op, value)
            if pruned:
                continue
            rows = 0
            for record in self._columns.values():
                meta = record["segments"][index]
                rows = int(meta["rows"])
                bytes_scanned += int(meta["payload_bytes"])
            segments_read += 1
            rows_scanned += rows
            rows_matching += rows * fraction
        return ScanEstimate(
            segments_total=total,
            segments_read=segments_read,
            rows_scanned=rows_scanned,
            rows_matching=rows_matching,
            bytes_scanned=bytes_scanned,
        )

    def estimate_selectivity(self, predicates, alias: str = "") -> float:
        """Zone-map selectivity estimate in ``[0, 1]``."""
        if self.num_rows == 0:
            return 0.0
        estimate = self.estimate_scan(predicates, alias)
        return min(max(estimate.rows_matching / self.num_rows, 0.0), 1.0)

    def exact_selectivity(self, predicates, alias: str = "") -> float:
        """Exact selectivity, evaluated segment-by-segment through the
        buffer pool (bounded memory; pruned segments are not read)."""
        if self.num_rows == 0:
            return 0.0
        matches = 0
        for index in range(self.num_segments):
            if self.segment_prunable(index, predicates, alias):
                continue
            with self.row_group(index) as group:
                data = {
                    (f"{alias}.{name}" if alias else name): values
                    for name, values in group.arrays.items()
                }
                mask = np.ones(group.num_rows, dtype=bool)
                for predicate in predicates:
                    mask &= np.asarray(predicate.evaluate(data), dtype=bool)
                matches += int(np.count_nonzero(mask))
        return matches / self.num_rows

    # -- cost-model inputs --------------------------------------------------

    def encoding_mix(self) -> dict[str, float]:
        """Fraction of on-disk payload bytes per encoding — the weights
        for the cost model's per-encoding decode term."""
        totals: dict[str, int] = {}
        for record in self._columns.values():
            for meta in record["segments"]:
                totals[meta["encoding"]] = totals.get(meta["encoding"], 0) + int(
                    meta["payload_bytes"]
                )
        grand = sum(totals.values())
        if grand == 0:
            return {}
        return {name: nbytes / grand for name, nbytes in totals.items()}

    def buffer_residency(self) -> float:
        """Fraction of this table's decoded bytes resident in the buffer
        pool — the cost model's buffer-hit probability."""
        denominator = self.decoded_bytes()
        if denominator <= 0:
            return 0.0
        return min(self.memory_bytes() / denominator, 1.0)


def is_disk_table(table) -> bool:
    """True for disk-resident tables (the scan-lowering discriminator)."""
    return isinstance(table, DiskTable)


# -- writers -----------------------------------------------------------------


def write_table(
    table: Table,
    directory: str,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    encoding: str = "auto",
    buffer: BufferManager | None = None,
) -> DiskTable:
    """Serialise an in-memory table into ``directory`` and open it.

    Column statistics are computed once and persisted in the manifest,
    so re-opening the directory later plans without reading data.

    :param encoding: per-segment page encoding; ``"auto"`` picks the
        smallest payload segment by segment.
    :raises StorageError: zero-column input or a bad ``segment_rows``.
    """
    if table.num_columns == 0:
        raise StorageError("cannot write a table with no columns")
    if segment_rows <= 0:
        raise StorageError(f"segment_rows must be > 0, got {segment_rows}")
    os.makedirs(directory, exist_ok=True)
    columns = []
    for column in table.columns():
        file_name = f"{column.name}.col"
        metas = []
        with open(os.path.join(directory, file_name), "wb") as handle:
            for start in range(0, table.num_rows, segment_rows):
                stop = min(start + segment_rows, table.num_rows)
                metas.append(
                    write_segment(handle, column.values[start:stop], encoding)
                )
        columns.append(
            {
                "name": column.name,
                "dtype": column.dtype.value,
                "file": file_name,
                "statistics": statistics_to_dict(column.statistics),
                "segments": metas,
            }
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_rows": table.num_rows,
        "segment_rows": int(segment_rows),
        "statistics_version": 1,
        "columns": columns,
    }
    write_manifest(directory, manifest)
    opened = DiskTable(directory, manifest, buffer)
    # A rewrite of an existing directory must not serve stale frames.
    opened.buffer.invalidate(opened.uid)
    return opened


def open_table(directory: str, buffer: BufferManager | None = None) -> DiskTable:
    """Open an existing table directory (manifest-only; no data read)."""
    return DiskTable(directory, read_manifest(directory), buffer)


def append_table(
    directory: str,
    table: Table,
    encoding: str = "auto",
    buffer: BufferManager | None = None,
) -> DiskTable:
    """Append ``table``'s rows to an existing disk table.

    New segments are appended to each column file (existing segments and
    any buffered frames stay valid), and the manifest's
    ``statistics_version`` bumps — which flows into the catalog version
    on re-registration and invalidates zone-map-dependent cached plans.
    Full-column statistics are the persisted ones merged with the
    batch's (:func:`~repro.storage.statistics.merge_statistics`), which
    reads no stored row; only a column whose merge is undecided is
    decoded and measured again.

    :raises StorageError: schema mismatch with the existing table.
    """
    manifest = read_manifest(directory)
    existing = {record["name"]: record for record in manifest["columns"]}
    incoming = {column.name: column for column in table.columns()}
    if list(existing) != list(incoming) or any(
        existing[name]["dtype"] != incoming[name].dtype.value for name in existing
    ):
        raise StorageError(
            f"append schema mismatch: disk has {list(existing)}, "
            f"got {list(incoming)}"
        )
    segment_rows = int(manifest["segment_rows"])
    for name, record in existing.items():
        path = os.path.join(directory, record["file"])
        values = incoming[name].values
        with open(path, "ab") as handle:
            for start in range(0, table.num_rows, segment_rows):
                stop = min(start + segment_rows, table.num_rows)
                record["segments"].append(
                    write_segment(handle, values[start:stop], encoding)
                )
    manifest["num_rows"] = int(manifest["num_rows"]) + table.num_rows
    manifest["statistics_version"] = int(manifest["statistics_version"]) + 1
    for record in manifest["columns"]:
        merged = merge_statistics(
            statistics_from_dict(record["statistics"]),
            incoming[record["name"]].statistics,
        )
        if merged is None:
            # The segment index is current already; only the statistics lag.
            grown = DiskTable(directory, manifest, buffer)
            merged = collect_statistics(grown.column_values(record["name"]))
        record["statistics"] = statistics_to_dict(merged)
    write_manifest(directory, manifest)
    return DiskTable(directory, manifest, buffer)


#: the per-process default spill dir, created lazily (None until used).
_default_spill_dir: str | None = None


def _cleanup_default_spill_dir() -> None:  # pragma: no cover - atexit hook
    if _default_spill_dir is not None:
        shutil.rmtree(_default_spill_dir, ignore_errors=True)


def spill_directory() -> str:
    """The directory spilled tables are written under (created on use).

    The ``spill_dir`` setting (``REPRO_SPILL_DIR``) when set; otherwise a
    per-process temp directory that is removed when the process exits.
    """
    global _default_spill_dir
    configured = get_settings().spill_dir
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    if _default_spill_dir is None:
        _default_spill_dir = os.path.join(
            tempfile.gettempdir(), f"repro-spill-{os.getpid()}"
        )
        atexit.register(_cleanup_default_spill_dir)
    os.makedirs(_default_spill_dir, exist_ok=True)
    return _default_spill_dir


def spill_table(
    table: Table,
    name: str,
    segment_rows: int | None = None,
    buffer: BufferManager | None = None,
) -> DiskTable:
    """Write ``table`` into a fresh directory under
    :func:`spill_directory` and return the disk-resident handle — what
    ``REPRO_STORAGE=disk`` catalog registration calls."""
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name) or "table"
    directory = tempfile.mkdtemp(prefix=f"{safe}-", dir=spill_directory())
    return write_table(
        table,
        directory,
        segment_rows=segment_rows or get_settings().segment_rows,
        buffer=buffer,
    )
