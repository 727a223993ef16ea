"""Out-of-core execution end to end.

The acceptance criteria of the disk subsystem live here: results under
``REPRO_STORAGE=disk`` are bit-identical to the in-memory path across
serial, thread, and process backends; a selective scan reads strictly
fewer segments; the optimiser's scan strategy responds to the I/O cost
terms; statistics-version bumps invalidate zone-map-dependent cached
plans; and the storage facts surface in EXPLAIN ANALYZE, the query log,
and the ``top`` dashboard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import (
    DynamicProgrammingOptimizer,
    PlanCache,
    dqo_config,
    optimize_dqo,
    to_operator,
)
from repro.core.cost import AccessPathCostModel
from repro.core.optimizer import extract_query
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import execute, explain_analyze
from repro.engine.operators import SegmentScan
from repro.logical import evaluate_naive
from repro.obs.querylog import QueryLog, set_query_log, summarise
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Catalog, Table
from repro.storage.disk import (
    BufferManager,
    append_table,
    is_disk_table,
    set_buffer_manager,
    write_table,
)

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
SELECTIVE = "SELECT R.A, COUNT(*) FROM R WHERE R.ID < 100 GROUP BY R.A"


def scenario():
    return make_join_scenario(
        n_r=1_000,
        n_s=2_500,
        num_groups=100,
        r_sortedness=Sortedness.SORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=11,
    )


@pytest.fixture
def disk_env(configured, tmp_path):
    """Disk mode with small segments and a fresh 8 MiB pool."""
    configured(storage="disk", spill_dir=str(tmp_path), segment_rows=256)
    pool = BufferManager(budget_bytes=8 * 1024 * 1024)
    set_buffer_manager(pool)
    yield pool
    set_buffer_manager(None)


@pytest.fixture
def disk_catalog(disk_env):
    catalog = scenario().build_catalog()
    assert is_disk_table(catalog.table("R"))
    assert is_disk_table(catalog.table("S"))
    return catalog


def run(sql: str, catalog: Catalog) -> Table:
    logical = plan_query(sql, catalog)
    result = optimize_dqo(logical, catalog)
    return execute(to_operator(result.plan, catalog, validate=True))


class TestBitIdenticalResults:
    def test_disk_matches_memory_path(self, disk_catalog, memory_storage):
        # memory_storage resets the storage *after* disk_catalog spilled, so
        # this catalog stays in memory while disk_catalog is on disk.
        memory_catalog = scenario().build_catalog()
        assert not is_disk_table(memory_catalog.table("R"))
        for sql in (QUERY, SELECTIVE):
            disk_result = run(sql, disk_catalog)
            memory_result = run(sql, memory_catalog)
            assert disk_result.equals_unordered(memory_result)

    def test_disk_matches_naive_truth(self, disk_catalog):
        logical = plan_query(QUERY, disk_catalog)
        truth = evaluate_naive(logical, disk_catalog)
        assert run(QUERY, disk_catalog).equals_unordered(truth)

    @pytest.mark.parametrize(
        "workers,backend", [(1, "thread"), (2, "thread"), (2, "process")]
    )
    def test_backends_bit_identical(self, disk_catalog, workers, backend):
        logical = plan_query(QUERY, disk_catalog)
        plan = optimize_dqo(logical, disk_catalog).plan
        serial = execute(to_operator(plan, disk_catalog))
        with scoped_settings(workers=workers, backend=backend):
            result = execute(to_operator(plan, disk_catalog))
        assert result.equals_unordered(serial)


class TestSegmentSkipping:
    def test_selective_scan_reads_strictly_fewer_segments(self, disk_catalog):
        logical = plan_query(SELECTIVE, disk_catalog)
        plan = optimize_dqo(logical, disk_catalog).plan
        full_logical = plan_query(
            "SELECT R.A, COUNT(*) FROM R GROUP BY R.A", disk_catalog
        )
        full_plan = optimize_dqo(full_logical, disk_catalog).plan

        selective = explain_analyze(to_operator(plan, disk_catalog))
        full = explain_analyze(to_operator(full_plan, disk_catalog))
        sel_read, sel_skipped, __ = selective.io_totals
        full_read, __, __ = full.io_totals
        assert sel_skipped > 0
        assert sel_read < full_read
        # R is sorted on ID: 1000 rows in 256-row segments, ID < 100
        # touches exactly the first segment.
        assert sel_read == full_read - sel_skipped

    def test_explain_marks_disk_scans(self, disk_catalog):
        logical = plan_query(SELECTIVE, disk_catalog)
        plan = optimize_dqo(logical, disk_catalog).plan
        scan = next(node for node in plan.walk() if node.op == "scan")
        assert scan.decision.storage == "disk"
        assert len(scan.decision.pushed) == 1
        assert "[disk]" in plan.explain()
        assert "pushed=1" in plan.explain()

    def test_lowering_produces_segment_scan(self, disk_catalog):
        logical = plan_query(QUERY, disk_catalog)
        plan = optimize_dqo(logical, disk_catalog).plan
        root = to_operator(plan, disk_catalog)
        scans = [
            op
            for op in _walk(root)
            if isinstance(op, SegmentScan)
        ]
        assert len(scans) == 2  # R and S

    def test_explain_analyze_reports_storage_io(self, disk_catalog):
        logical = plan_query(SELECTIVE, disk_catalog)
        plan = optimize_dqo(logical, disk_catalog).plan
        analyzed = explain_analyze(to_operator(plan, disk_catalog))
        rendered = analyzed.render()
        assert "Storage I/O:" in rendered
        assert "skipped via zone maps" in rendered
        assert "[io segments=" in rendered


class TestCostModelResponse:
    """The optimiser's access-path choice responds to the I/O terms."""

    def make_setting(self, tmp_path):
        # 20k unsorted rows => zone maps prune nothing; k < 10_000 is a
        # 50% filter. A 64 KiB pool keeps residency (and so the buffer
        # hit fraction) near zero against the 320 KB table.
        rng = np.random.default_rng(7)
        table = Table.from_arrays(
            {
                "k": rng.permutation(20_000),
                "v": rng.integers(0, 100, 20_000),
            }
        )
        pool = BufferManager(budget_bytes=64 * 1024)
        disk = write_table(
            table, str(tmp_path / "T"), segment_rows=4096, buffer=pool
        )
        catalog = Catalog()
        catalog.register("T", disk)
        registry = AVRegistry(
            [materialize_view(catalog, ViewKind.BTREE, "T", "k")]
        )
        return catalog, registry

    def scan_node(self, catalog, registry, cost_model):
        logical = plan_query("SELECT k, v FROM T WHERE k < 10000", catalog)
        optimizer = DynamicProgrammingOptimizer(
            catalog, cost_model, dqo_config(views=registry)
        )
        plan = optimizer.optimize(logical).plan
        return next(node for node in plan.walk() if node.op == "scan")

    def test_io_terms_flip_scan_strategy(self, tmp_path):
        catalog, registry = self.make_setting(tmp_path)

        class FreeIOModel(AccessPathCostModel):
            """Disk reads cost nothing: like RAM, the scan should win."""

            def io_read_weight(self) -> float:
                return 0.0

        # Cold reads at the default 4x: the 50% filter makes the
        # unclustered B-tree (4 per match = 2n) cheaper than the cold
        # segment scan (~5n), so the index path wins ...
        costly = self.scan_node(catalog, registry, AccessPathCostModel())
        assert costly.decision.view == ("btree", "k")
        # ... but with the cold-read term zeroed the same query flips
        # back to the segment scan (n < 2n).
        free = self.scan_node(catalog, registry, FreeIOModel())
        assert "btree" not in free.decision.view
        assert free.decision.storage == "disk"


class TestPlanCacheInvalidation:
    def test_append_invalidates_cached_plans(self, disk_env, tmp_path):
        table = Table.from_arrays(
            {
                "k": np.arange(2_000, dtype=np.int64),
                "v": np.tile(np.arange(20, dtype=np.int64), 100),
            }
        )
        directory = str(tmp_path / "grow")
        write_table(table, directory, segment_rows=256)
        catalog = Catalog()
        catalog.register_disk("T", directory)
        cache = PlanCache()
        optimizer = DynamicProgrammingOptimizer(catalog, plan_cache=cache)
        logical = plan_query(
            "SELECT v, COUNT(*) FROM T WHERE k >= 1500 GROUP BY v", catalog
        )
        spec = extract_query(logical)
        first = optimizer.optimize_spec(spec)
        assert not first.cached
        assert optimizer.optimize_spec(spec).cached

        # Appending rewrites the zone maps and bumps the statistics
        # version; re-registering carries that into the catalog
        # fingerprint, so the cached plan must not be served again.
        extra = Table.from_arrays(
            {
                "k": np.arange(2_000, 3_000, dtype=np.int64),
                "v": np.zeros(1_000, dtype=np.int64),
            }
        )
        appended = append_table(directory, extra)
        assert appended.statistics_version == 2
        catalog.register_disk("T", directory, replace=True)
        refreshed = optimizer.optimize_spec(spec)
        assert not refreshed.cached
        result = execute(to_operator(refreshed.plan, catalog, validate=True))
        assert int(result.num_rows) > 0


class TestObservabilitySurface:
    def test_querylog_summary_has_storage_line(self, disk_catalog, tmp_path):
        path = tmp_path / "qlog.jsonl"
        set_query_log(path)
        try:
            run(SELECTIVE, disk_catalog)
        finally:
            set_query_log(None)
        entries = QueryLog(path).entries()
        assert any(e.get("segments_read") for e in entries)
        report = summarise(entries)
        assert "storage:" in report
        assert "skipped via zone maps" in report

    def test_memory_mode_entries_carry_no_io_keys(
        self, memory_storage, tmp_path
    ):
        catalog = scenario().build_catalog()
        path = tmp_path / "qlog.jsonl"
        set_query_log(path)
        try:
            run(QUERY, catalog)
        finally:
            set_query_log(None)
        for entry in QueryLog(path).entries():
            assert "segments_read" not in entry
        assert "storage:" not in summarise(QueryLog(path).entries())

    def test_buffer_pool_metrics_reported(self, disk_catalog):
        from repro.obs import capture_observability

        with capture_observability() as (metrics, __):
            run(QUERY, disk_catalog)
            snapshot = metrics.snapshot()
        assert snapshot.get("storage.buffer.misses", 0) > 0
        assert "storage.buffer.resident_bytes" in snapshot

    def test_top_dashboard_renders_buffer_section(self):
        from tests.obs.test_top import sample

        from repro.obs.top import render_dashboard

        polled = sample(
            10.0,
            {"completed": 3},
            extra_metrics={
                "storage.buffer.hits": 30,
                "storage.buffer.misses": 10,
                "storage.buffer.evictions": 2,
                "storage.buffer.resident_bytes": 4096,
            },
        )
        board = render_dashboard(polled, rates(None, polled))
        assert "buffer pool" in board
        assert "hit rate  75.0%" in board
        assert "evictions 2" in board


def rates(previous, current):
    from repro.obs.top import rates as _rates

    return _rates(previous, current)


def _walk(operator):
    yield operator
    for child in operator.children:
        yield from _walk(child)
