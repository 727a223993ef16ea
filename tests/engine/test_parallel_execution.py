"""Real parallel execution: the morsel scheduler and worker-count
determinism.

The route dimension (backend x piece count == serial) is covered by
test_parallel_routes.py; this file covers the *workers* dimension —
scheduling morsels on the shared thread pool must change wall-clock
behaviour only, never results. Every (algorithm x workers) combination
is asserted identical to the serial kernel, up to key order (the merge
sorts).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.datagen import Density, Sortedness, make_grouping_dataset
from repro.engine import (
    col,
    count_star,
    execute,
    sum_of,
)
from repro.engine.executor import explain_analyze
from repro.engine.kernels.grouping import GroupingAlgorithm, group_by
from repro.engine.kernels.parallel import merge_partials, parallel_group_by
from repro.engine.operators import Filter, GroupBy, TableScan
from repro.engine.parallel import (
    morsel_boundaries,
    on_worker_thread,
    run_morsels,
)
from repro.errors import ExecutionError
from repro.obs import capture_observability
from repro.settings import Settings, scoped_settings

WORKER_COUNTS = [1, 2, 4]


class TestExecutorConfig:
    """The executor's two knobs, read from the process environment."""

    def test_from_env_reads_repro_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert Settings.from_env().workers == 4

    def test_from_env_reads_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert Settings.from_env().backend == "process"


@pytest.fixture
def sorted_dense_dataset():
    """Sorted + dense satisfies every grouping algorithm's precondition."""
    return make_grouping_dataset(
        20_000, 64, Sortedness.SORTED, Density.DENSE, seed=11
    )


class TestMorselBoundaries:
    @pytest.mark.parametrize("num_rows", [0, 1, 7, 100, 65_537])
    @pytest.mark.parametrize("morsels", [1, 2, 3, 8, 64])
    def test_contiguous_cover(self, num_rows, morsels):
        bounds = morsel_boundaries(num_rows, morsels)
        position = 0
        for start, stop in bounds:
            assert start == position
            assert stop > start
            position = stop
        assert position == num_rows

    def test_near_equal_sizes(self):
        sizes = [stop - start for start, stop in morsel_boundaries(100, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_morsel_count(self):
        with pytest.raises(ExecutionError):
            morsel_boundaries(10, 0)


class TestRunMorsels:
    def test_results_in_submission_order(self):
        tasks = [(lambda i=i: i * i) for i in range(32)]
        report = run_morsels(tasks, workers=4)
        assert report.results == [i * i for i in range(32)]

    def test_single_task_runs_inline(self):
        report = run_morsels([lambda: threading.current_thread().name])
        assert report.workers_used == 1
        assert not report.results[0].startswith("repro-worker")

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("morsel failure")

        with pytest.raises(ValueError, match="morsel failure"):
            run_morsels([lambda: 1, boom, lambda: 3], workers=2)

    def test_nested_scheduling_runs_inline(self):
        # A task that itself calls run_morsels must not deadlock the
        # bounded pool: the inner batch runs inline on the worker.
        def outer():
            assert on_worker_thread()
            inner = run_morsels([lambda: 1, lambda: 2], workers=4)
            return inner.workers_used

        report = run_morsels([outer, outer], workers=2)
        assert report.results == [1, 1]

    def test_workers_bound_a_batch_on_a_grown_pool(self):
        run_morsels([lambda: None] * 8, workers=8)  # the pool only grows
        running, peak = [0], [0]
        lock = threading.Lock()

        def task():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_morsels([task] * 32, workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert peak[0] <= 2

    def test_a_failed_batch_starts_no_morsel_held_at_the_gate(self):
        run_morsels([lambda: None] * 8, workers=8)  # the pool only grows
        ran = []

        def boom():
            time.sleep(0.01)
            raise ValueError("morsel failure")

        def work():
            ran.append(1)
            time.sleep(0.01)

        with pytest.raises(ValueError, match="morsel failure"):
            run_morsels([boom] + [work] * 31, workers=2)
        # Six more pool threads hold a morsel each at the gate when the
        # batch fails; none of those starts.
        assert len(ran) < 7

    def test_morsel_metrics_are_exact(self):
        with capture_observability() as (metrics, tracer):
            run_morsels([(lambda i=i: i) for i in range(12)], workers=4)
            assert metrics.get("parallel.morsels").value == 12
            assert metrics.get("worker.busy_seconds").value >= 0.0

    def test_morsel_spans_are_traced(self):
        with capture_observability() as (metrics, tracer):
            run_morsels([(lambda i=i: i) for i in range(8)], workers=4)
            spans = [
                span
                for span in tracer.finished_spans
                if span.name == "parallel.morsel"
            ]
            assert len(spans) == 8


GROUPING_CASES = [
    GroupingAlgorithm.HG,
    GroupingAlgorithm.SPHG,
    GroupingAlgorithm.OG,
    GroupingAlgorithm.SOG,
    GroupingAlgorithm.BSG,
]


class TestGroupingWorkersDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("algorithm", GROUPING_CASES)
    def test_every_algorithm_matches_serial(
        self, sorted_dense_dataset, algorithm, workers
    ):
        dataset = sorted_dense_dataset
        serial = group_by(
            dataset.keys, dataset.payload, algorithm, num_distinct_hint=64
        ).sorted_by_key()
        parallel = parallel_group_by(
            dataset.keys,
            dataset.payload,
            algorithm,
            shards=8,
            num_distinct_hint=64,
            workers=workers,
        ).sorted_by_key()
        assert np.array_equal(parallel.keys, serial.keys)
        assert np.array_equal(parallel.counts, serial.counts)
        assert np.array_equal(parallel.sums, serial.sums)

    def test_repeated_runs_are_identical(self, sorted_dense_dataset):
        dataset = sorted_dense_dataset
        first = parallel_group_by(
            dataset.keys, dataset.payload, GroupingAlgorithm.HG,
            shards=8, workers=4,
        )
        second = parallel_group_by(
            dataset.keys, dataset.payload, GroupingAlgorithm.HG,
            shards=8, workers=4,
        )
        assert np.array_equal(first.keys, second.keys)
        assert np.array_equal(first.counts, second.counts)
        assert np.array_equal(first.sums, second.sums)


class TestMergePrecision:
    """Satellite regression: merging partial aggregates must stay exact
    past 2**53, where float64 loses integer resolution."""

    AGGREGATES = [count_star("counts"), sum_of("v", "sums")]

    def partial(self, key, count, total):
        return (
            np.array([key], dtype=np.int64),
            {"counts": np.array([count], dtype=np.int64), "sums": np.array([total])},
        )

    def test_integer_counts_and_sums_exact_beyond_float53(self):
        big = 2**53
        keys, merged = merge_partials(
            [self.partial(7, big, big), self.partial(7, 3, 1)], self.AGGREGATES
        )
        # float64 would round 2**53 + 1 back down to 2**53.
        assert keys.tolist() == [7]
        assert merged["sums"].dtype == np.int64
        assert int(merged["counts"][0]) == big + 3
        assert int(merged["sums"][0]) == big + 1

    def test_float_sums_stay_float_until_the_caller_casts(self):
        keys, merged = merge_partials(
            [self.partial(2, 1, 1.5), self.partial(1, 1, 0.5), self.partial(2, 1, 1.5)],
            self.AGGREGATES,
        )
        assert keys.tolist() == [1, 2]  # the merge sorts
        assert merged["sums"].tolist() == [0.5, 3.0]


class TestOperatorParallelism:
    """Operator-level equivalence: a plan pinned parallel=True under a
    multi-worker config produces the same table as the serial plan."""

    def _grouped(self, table, parallel, workers):
        with scoped_settings(workers=workers):
            return execute(
                GroupBy(
                    TableScan(table),
                    "key",
                    [count_star(), sum_of("value")],
                    algorithm=GroupingAlgorithm.HG,
                    parallel=parallel,
                )
            ).sort_by(["key"])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_group_by_operator(self, sorted_dense_dataset, workers):
        table = sorted_dense_dataset.to_table()
        serial = self._grouped(table, False, 1)
        parallel = self._grouped(table, True, workers)
        for name in serial.schema.names:
            assert np.array_equal(
                parallel[name], serial[name]
            ), name

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_filter_preserves_chunk_order(self, workers):
        """No plan prices a parallel filter, so none runs: at any worker
        count a Filter schedules no morsel and streams the serial
        result."""
        table = (
            make_grouping_dataset(
                120_000, 200, Sortedness.UNSORTED, Density.DENSE, seed=19
            ).to_table()
        )
        plan = lambda: Filter(TableScan(table), col("key") < 100)
        serial = execute(plan())
        with scoped_settings(workers=workers):
            analyzed = explain_analyze(plan())
        assert analyzed.root.parallel_degree == 0
        assert analyzed.root.worker_busy_seconds == 0.0
        assert analyzed.table.equals(serial)
