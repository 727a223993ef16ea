"""Disk-resident tables: round trips, zone-map pruning, appends, spill.

These are the subsystem's acceptance tests: a selective scan must read
*strictly fewer* segments than a full scan, statistics must persist so
re-opening plans without reading data, and appends must bump the
statistics version that invalidates zone-map-dependent cached plans.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import col
from repro.errors import SchemaError, StorageError
from repro.storage import Catalog, Table
from repro.storage.disk import (
    BufferManager,
    DiskTable,
    append_table,
    is_disk_table,
    open_table,
    spill_table,
    write_table,
)


@pytest.fixture
def clustered_table():
    """10k rows in 10 segments; ``k`` ascends so zone maps are selective."""
    return Table.from_arrays(
        {
            "k": np.arange(10_000, dtype=np.int64),
            "v": np.tile(np.arange(100, dtype=np.int64), 100),
        }
    )


@pytest.fixture
def disk(clustered_table, tmp_path):
    pool = BufferManager(budget_bytes=64 * 1024 * 1024)
    return write_table(
        clustered_table, str(tmp_path / "t"), segment_rows=1000, buffer=pool
    )


class TestRoundTrip:
    def test_to_memory_equals_original(self, disk, clustered_table):
        assert disk.to_memory().equals(clustered_table)

    def test_shape_and_schema(self, disk):
        assert disk.num_rows == 10_000
        assert disk.num_segments == 10
        assert list(disk.schema.names) == ["k", "v"]
        assert is_disk_table(disk)

    def test_open_reads_no_segments(self, disk, tmp_path):
        pool = BufferManager(budget_bytes=1024 * 1024)
        reopened = open_table(str(tmp_path / "t"), buffer=pool)
        # Planning inputs come from the manifest alone: statistics are
        # available while the pool has served zero loads.
        stats = reopened.column("k").statistics
        assert stats.count == 10_000
        assert stats.minimum == 0
        assert stats.maximum == 9_999
        assert pool.stats()["misses"] == 0

    def test_column_values_roundtrip(self, disk, clustered_table):
        np.testing.assert_array_equal(
            np.asarray(disk.column_values("v")), clustered_table["v"]
        )

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            open_table(str(tmp_path / "nope"))

    def test_write_zero_columns_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no columns"):
            write_table(Table([]), str(tmp_path / "empty"))

    def test_empty_table_roundtrip(self, tmp_path):
        empty = Table.from_arrays({"k": np.array([], dtype=np.int64)})
        disk = write_table(empty, str(tmp_path / "e"), segment_rows=10)
        assert disk.num_rows == 0
        assert disk.to_memory().equals(empty)

    def test_all_null_column_roundtrip(self, tmp_path):
        nulls = Table.from_arrays({"x": np.full(50, np.nan)})
        disk = write_table(nulls, str(tmp_path / "n"), segment_rows=16)
        assert np.isnan(np.asarray(disk.column_values("x"))).all()


#: row positions a gather may ask for: scattered, repeated and negative
#: ones, one segment's, the last row, and none.
TAKE_CASES = {
    "scattered": np.array([9_999, 0, 4_321, 4_321, 1_500, 8_000]),
    "negative": np.array([-1, -10_000, 2, -2]),
    "one_segment": np.arange(3_200, 3_700)[::-1],
    "last_row": np.array([9_999]),
    "none": np.array([], dtype=np.int64),
}


class TestGather:
    @pytest.mark.parametrize("name", list(TAKE_CASES))
    def test_take_equals_the_in_memory_take(self, disk, clustered_table, name):
        """``take`` returns what the in-memory table's returns, and the
        pool loads only the segments holding the rows, once each."""
        indices = TAKE_CASES[name]
        misses = disk.buffer.stats()["misses"]
        result = disk.take(indices)
        assert result.equals(clustered_table.take(indices))
        segments = np.unique((indices % 10_000) // 1_000).size
        assert disk.buffer.stats()["misses"] - misses <= segments * disk.num_columns

    @pytest.mark.parametrize("index", [10_000, -10_001])
    def test_take_outside_the_table_raises(self, disk, index):
        with pytest.raises(IndexError):
            disk.take(np.array([3, index]))

    @pytest.mark.parametrize(
        "start, stop", [(2_500, 2_700), (999, 1_001), (9_000, 20_000), (-5, 3), (7, 2)]
    )
    def test_slice_equals_the_in_memory_slice(self, disk, clustered_table, start, stop):
        misses = disk.buffer.stats()["misses"]
        result = disk.slice(start, stop)
        assert result.equals(clustered_table.slice(start, stop))
        first, last = max(start, 0), min(stop, 10_000)
        segments = len(range(first // 1_000, (last - 1) // 1_000 + 1)) if last > first else 0
        assert disk.buffer.stats()["misses"] - misses <= segments * disk.num_columns


class TestZoneMapPruning:
    def test_selective_scan_reads_strictly_fewer_segments(self, disk):
        full = disk.estimate_scan(())
        selective = disk.estimate_scan((col("k") < 1_500,))
        assert full.segments_read == 10
        assert selective.segments_read == 2
        assert selective.segments_read < full.segments_read
        assert selective.rows_scanned == 2_000
        assert selective.bytes_scanned < full.bytes_scanned

    def test_point_predicate_prunes_to_one_segment(self, disk):
        estimate = disk.estimate_scan((col("k") == 4_242,))
        assert estimate.segments_read == 1
        assert estimate.rows_matching == pytest.approx(1.0)

    def test_alias_qualified_predicates_prune(self, disk):
        estimate = disk.estimate_scan((col("R.k") >= 9_000,), alias="R")
        assert estimate.segments_read == 1

    def test_unprunable_predicate_scans_everything(self, disk):
        estimate = disk.estimate_scan((col("k") + col("v") > 0,))
        assert estimate.segments_read == 10

    def test_segment_prunable(self, disk):
        assert disk.segment_prunable(5, (col("k") < 1_000,))
        assert not disk.segment_prunable(0, (col("k") < 1_000,))

    def test_not_equal_does_not_prune_nullable_segments(self, tmp_path):
        constant = Table.from_arrays({"x": np.full(100, np.nan)})
        disk = write_table(constant, str(tmp_path / "c"), segment_rows=50)
        # All-null segments prune for '=' but never for '<>' (NaN rows
        # satisfy '<>').
        assert disk.segment_prunable(0, (col("x") == 1.0,))
        assert not disk.segment_prunable(0, (col("x") != 1.0,))

    def test_exact_selectivity_matches_numpy(self, disk, clustered_table):
        predicates = (col("k") < 2_500, col("v") >= 50)
        expected = np.count_nonzero(
            (clustered_table["k"] < 2_500) & (clustered_table["v"] >= 50)
        ) / 10_000
        assert disk.exact_selectivity(predicates) == pytest.approx(expected)

    def test_estimate_selectivity_bounded(self, disk):
        assert disk.estimate_selectivity(()) == pytest.approx(1.0)
        assert disk.estimate_selectivity((col("k") < 0,)) == 0.0


class TestRowGroups:
    def test_row_group_pins_aligned_segments(self, disk):
        with disk.row_group(3) as group:
            assert group.num_rows == 1000
            np.testing.assert_array_equal(
                np.asarray(group.arrays["k"]),
                np.arange(3_000, 4_000, dtype=np.int64),
            )
            assert group.nbytes > 0

    def test_cold_then_warm(self, disk):
        with disk.row_group(0) as group:
            assert group.cold_bytes > 0
        with disk.row_group(0) as group:
            assert group.cold_bytes == 0  # both columns buffered now

    def test_residency_tracks_buffered_fraction(self, disk):
        assert disk.buffer_residency() == 0.0
        for index in range(disk.num_segments):
            with disk.row_group(index):
                pass
        assert disk.buffer_residency() == pytest.approx(1.0)
        assert disk.memory_bytes() == disk.decoded_bytes()


class TestEncodingMix:
    def test_fractions_sum_to_one(self, disk):
        mix = disk.encoding_mix()
        assert mix
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_explicit_encoding_is_uniform(self, clustered_table, tmp_path):
        disk = write_table(
            clustered_table, str(tmp_path / "p"), segment_rows=1000,
            encoding="plain",
        )
        assert disk.encoding_mix() == {"plain": pytest.approx(1.0)}


class TestAppend:
    def test_append_bumps_statistics_version(self, disk, tmp_path):
        assert disk.statistics_version == 1
        extra = Table.from_arrays(
            {
                "k": np.arange(10_000, 10_500, dtype=np.int64),
                "v": np.zeros(500, dtype=np.int64),
            }
        )
        appended = append_table(str(tmp_path / "t"), extra)
        assert appended.statistics_version == 2
        assert appended.num_rows == 10_500
        assert appended.column("k").statistics.maximum == 10_499
        tail = np.asarray(appended.column_values("k"))[-500:]
        np.testing.assert_array_equal(tail, extra["k"])

    def test_append_schema_mismatch_raises(self, disk, tmp_path):
        wrong = Table.from_arrays({"z": np.zeros(10, dtype=np.int64)})
        with pytest.raises(StorageError, match="schema mismatch"):
            append_table(str(tmp_path / "t"), wrong)

    def test_new_segments_prune_independently(self, disk, tmp_path):
        extra = Table.from_arrays(
            {
                "k": np.arange(10_000, 11_000, dtype=np.int64),
                "v": np.zeros(1000, dtype=np.int64),
            }
        )
        appended = append_table(str(tmp_path / "t"), extra)
        estimate = appended.estimate_scan((col("k") >= 10_000,))
        assert estimate.segments_read == 1


class TestSpillAndCatalog:
    def test_spill_table_lands_in_spill_dir(
        self, small_table, tmp_path, configured
    ):
        configured(spill_dir=str(tmp_path))
        disk = spill_table(small_table, "my table!")
        assert os.path.dirname(disk.directory) == str(tmp_path)
        assert disk.to_memory().equals(small_table)

    def test_catalog_autospills_under_disk_mode(
        self, small_table, tmp_path, configured
    ):
        configured(storage="disk", spill_dir=str(tmp_path))
        catalog = Catalog()
        catalog.register("t", small_table)
        registered = catalog.table("t")
        assert is_disk_table(registered)
        assert registered.to_memory().equals(small_table)

    def test_catalog_memory_mode_keeps_tables_in_memory(
        self, small_table, memory_storage
    ):
        catalog = Catalog()
        catalog.register("t", small_table)
        assert not is_disk_table(catalog.table("t"))

    def test_register_disk_opens_warm(self, disk, tmp_path):
        catalog = Catalog()
        catalog.register_disk("t", str(tmp_path / "t"))
        assert isinstance(catalog.table("t"), DiskTable)
        assert catalog.cardinality("t") == 10_000
        assert catalog.column_statistics("t", "k").maximum == 9_999

    def test_register_disk_duplicate_raises(self, disk, tmp_path):
        catalog = Catalog()
        catalog.register_disk("t", str(tmp_path / "t"))
        with pytest.raises(SchemaError):
            catalog.register_disk("t", str(tmp_path / "t"))

    def test_reregister_bumps_catalog_version(self, disk, tmp_path):
        catalog = Catalog()
        catalog.register_disk("t", str(tmp_path / "t"))
        before = catalog.fingerprint()
        catalog.register_disk("t", str(tmp_path / "t"), replace=True)
        assert catalog.fingerprint() != before
