"""Columnar storage substrate: types, columns, schemas, tables,
compression, statistics, and the catalog."""

from repro.storage.catalog import Catalog, ForeignKey
from repro.storage.column import Column
from repro.storage.dictionary import (
    DictionaryEncoded,
    dictionary_encode,
    dictionary_encode_column,
)
from repro.storage.disk import (
    BufferManager,
    DiskColumn,
    DiskTable,
    append_table,
    get_buffer_manager,
    is_disk_table,
    open_table,
    set_buffer_manager,
    spill_table,
    write_table,
)
from repro.storage.dtypes import DataType
from repro.storage.overlay import OverlayCatalog, StatPatch, StatisticsOverlay
from repro.storage.rle import RunLengthEncoded, rle_encode
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.statistics import ColumnStatistics, collect_statistics
from repro.storage.table import Table

__all__ = [
    "BufferManager",
    "Catalog",
    "Column",
    "ColumnSpec",
    "ColumnStatistics",
    "DataType",
    "DictionaryEncoded",
    "DiskColumn",
    "DiskTable",
    "ForeignKey",
    "OverlayCatalog",
    "RunLengthEncoded",
    "Schema",
    "StatPatch",
    "StatisticsOverlay",
    "Table",
    "append_table",
    "collect_statistics",
    "dictionary_encode",
    "dictionary_encode_column",
    "get_buffer_manager",
    "is_disk_table",
    "open_table",
    "rle_encode",
    "set_buffer_manager",
    "spill_table",
    "write_table",
]
