"""Physical operators: the chunked, vectorised execution layer."""

from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    MaterialisedOperator,
    PhysicalOperator,
    chunk_count,
    table_to_chunks,
)
from repro.engine.operators.decode import DecodeColumn
from repro.engine.operators.grouping import GroupBy
from repro.engine.operators.index_scan import IndexRangeScan
from repro.engine.operators.joins import Join
from repro.engine.operators.scan import Filter, Limit, Project, TableScan
from repro.engine.operators.segment_scan import SegmentScan
from repro.engine.operators.sort import PartitionBy, Sort

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Chunk",
    "DecodeColumn",
    "Filter",
    "GroupBy",
    "IndexRangeScan",
    "Join",
    "Limit",
    "MaterialisedOperator",
    "PartitionBy",
    "PhysicalOperator",
    "Project",
    "SegmentScan",
    "Sort",
    "TableScan",
    "chunk_count",
    "table_to_chunks",
]
