"""The SegmentScan operator: streaming, skipping, accounting, governance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Filter, GroupBy, col, count_star, execute
from repro.engine.operators import SegmentScan, TableScan
from repro.errors import DeadlineExceeded
from repro.service.context import QueryContext, activate_context
from repro.storage import Table
from repro.storage.disk import BufferManager, write_table


@pytest.fixture
def disk(tmp_path):
    table = Table.from_arrays(
        {
            "k": np.arange(4_000, dtype=np.int64),
            "v": np.tile(np.arange(8, dtype=np.int64), 500),
        }
    )
    pool = BufferManager(budget_bytes=16 * 1024 * 1024)
    return write_table(
        table, str(tmp_path / "t"), segment_rows=500, buffer=pool
    )


class TestStreaming:
    def test_full_scan_matches_table_scan(self, disk):
        from_disk = SegmentScan(disk).to_table()
        from_memory = TableScan(disk.to_memory()).to_table()
        assert from_disk.equals(from_memory)

    def test_results_identical_across_paths(self, tmp_path):
        """A table four times its pool's budget, so the scan evicts as it
        goes: the aggregate over it is the in-memory path's."""
        rows = 16_384
        rng = np.random.default_rng(3)
        table = Table.from_arrays(
            {
                "k": np.arange(rows, dtype=np.int64),
                "g": rng.integers(0, 64, rows),
                "v": rng.integers(0, 1_000, rows),
            }
        )
        pool = BufferManager(budget_bytes=table.memory_bytes() // 4)
        disk = write_table(table, str(tmp_path / "t"), segment_rows=1_024, buffer=pool)

        def aggregate(scan):
            return execute(GroupBy(scan, "g", [count_star("n")]))

        assert aggregate(SegmentScan(disk)).equals_unordered(
            aggregate(TableScan(table))
        )
        assert pool.stats()["evictions"] > 0

    def test_alias_qualifies_output(self, disk):
        result = SegmentScan(disk, alias="T").to_table()
        assert list(result.schema.names) == ["T.k", "T.v"]

    def test_empty_table_yields_one_empty_chunk(self, tmp_path):
        empty = Table.from_arrays({"x": np.array([], dtype=np.int64)})
        disk = write_table(empty, str(tmp_path / "e"))
        chunks = list(SegmentScan(disk).chunks())
        assert len(chunks) == 1
        assert chunks[0].num_rows == 0
        assert "x" in chunks[0].column_names

    def test_describe(self, disk):
        scan = SegmentScan(disk, predicates=(col("k") < 10,))
        assert "SegmentScan" in scan.describe()
        assert "pushed=1" in scan.describe()


class TestSkipping:
    def test_pruned_segments_never_read(self, disk):
        scan = SegmentScan(disk, predicates=(col("k") < 700,))
        scan.to_table()
        read, skipped, cold = scan.io_counters()
        assert read == 2  # k in [0, 700) spans segments 0 and 1
        assert skipped == 6
        assert cold > 0

    def test_pushed_predicates_skip_but_do_not_filter(self, disk):
        # Pushed conjuncts prove which segments are empty; surviving
        # segments stream whole. The Filter above applies them row-wise,
        # giving results bit-identical to the in-memory path.
        predicate = col("k") < 700
        scan = SegmentScan(disk, predicates=(predicate,))
        unfiltered = scan.to_table()
        assert unfiltered.num_rows == 1_000  # two full segments
        filtered = execute(Filter(SegmentScan(disk, predicates=(predicate,)), predicate))
        np.testing.assert_array_equal(
            filtered["k"], np.arange(700, dtype=np.int64)
        )

    def test_warm_rerun_reads_zero_cold_bytes(self, disk):
        scan = SegmentScan(disk)
        scan.to_table()
        __, __, first_cold = scan.io_counters()
        scan.reset_memory_accounting()
        scan.to_table()
        __, __, second_cold = scan.io_counters()
        assert first_cold > 0
        assert second_cold == 0  # the 16 MiB pool holds all segments

    def test_reset_clears_io_counters(self, disk):
        scan = SegmentScan(disk)
        scan.to_table()
        scan.reset_memory_accounting()
        assert scan.io_counters() == (0, 0, 0)


class TestGovernance:
    def test_memory_accounting_tracks_pinned_group(self, disk):
        scan = SegmentScan(disk)
        scan.to_table()
        # One row group (both columns of one 500-row segment) at a time.
        assert scan.memory_bytes() == 2 * 500 * 8

    def test_deadline_checked_per_segment(self, disk):
        context = QueryContext.start(deadline=0.0)
        with activate_context(context):
            with pytest.raises(DeadlineExceeded):
                SegmentScan(disk).to_table()
