"""Cancellation/deadline propagation: optimiser, morsel scheduler, pool.

Includes the PR's acceptance test: a governed query with a 50ms deadline
against a >= 1M-row join must abort within 0.25s of wall time, release
its admission slot, and leave metrics and the query log consistent.
"""

import threading
import time

import pytest

from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.engine.parallel import (
    WORKER_THREAD_PREFIX,
    _MorselPool,
    run_morsels,
)
from repro.errors import DeadlineExceeded, QueryCancelled
from repro.obs import capture_observability, set_query_log
from repro.obs.querylog import QueryLog
from repro.service.context import QueryContext, activate_context
from repro.service.session import QueryService
from repro.sql import plan_query

PAPER_SQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
#: a query over the 1.2M-row join that stays long when warm: its SUM over
#: an S column makes the join emit and gather every pair.
GOVERNED_SQL = "SELECT R.A, SUM(S.B) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


class TestOptimizerPropagation:
    def test_expired_deadline_stops_dp_enumeration(self, join_catalog):
        logical = plan_query(PAPER_SQL, join_catalog)
        optimizer = DynamicProgrammingOptimizer(
            join_catalog, plan_cache=PlanCache(4)
        )
        with activate_context(QueryContext.start(deadline=0.0)):
            with pytest.raises(DeadlineExceeded):
                optimizer.optimize(logical)

    def test_cancelled_token_stops_dp_enumeration(self, join_catalog):
        logical = plan_query(PAPER_SQL, join_catalog)
        optimizer = DynamicProgrammingOptimizer(
            join_catalog, plan_cache=PlanCache(4)
        )
        context = QueryContext.start()
        context.token.cancel("abandon optimisation")
        with activate_context(context):
            with pytest.raises(QueryCancelled, match="abandon"):
                optimizer.optimize(logical)

    def test_ungoverned_optimisation_is_unaffected(self, join_catalog):
        logical = plan_query(PAPER_SQL, join_catalog)
        optimizer = DynamicProgrammingOptimizer(
            join_catalog, plan_cache=PlanCache(4)
        )
        assert optimizer.optimize(logical).cost > 0


class TestMorselSchedulerPropagation:
    def test_inline_path_polls_between_morsels(self):
        context = QueryContext.start()
        executed = []

        def first():
            executed.append("first")
            context.token.cancel("stop after the first morsel")

        def later(index):
            executed.append(index)

        tasks = [first] + [lambda i=i: later(i) for i in range(10)]
        with activate_context(context):
            with pytest.raises(QueryCancelled):
                run_morsels(tasks, workers=1)
        assert executed == ["first"]  # nothing ran past the cancel

    def test_pool_path_cancels_pending_morsels(self):
        context = QueryContext.start()
        executed = threading.Semaphore(0)
        ran = [0]
        lock = threading.Lock()

        def poison():
            context.token.cancel("mid-batch cancel")

        def work():
            with lock:
                ran[0] += 1
            time.sleep(0.001)

        tasks = [poison] + [work for __ in range(64)]
        with activate_context(context):
            with pytest.raises(QueryCancelled):
                run_morsels(tasks, workers=2)
        # The poison lands early; the governed workers then refuse every
        # remaining morsel, so almost none of the 64 ran.
        assert ran[0] < 64

    def test_deadline_fires_inside_the_batch(self):
        context = QueryContext.start(deadline=0.02)
        with activate_context(context):
            with pytest.raises(DeadlineExceeded):
                run_morsels(
                    [lambda: time.sleep(0.02) for __ in range(8)], workers=2
                )


class TestMorselPoolTeardown:
    def test_workers_are_daemon_threads(self):
        pool = _MorselPool(2)
        try:
            for thread in pool._threads:
                assert thread.daemon
                assert thread.name.startswith(WORKER_THREAD_PREFIX)
        finally:
            pool.shutdown()

    def test_cancelled_pending_future_never_runs(self):
        pool = _MorselPool(1)
        try:
            release = threading.Event()
            ran = []
            blocker = pool.submit(release.wait, 5.0)
            pending = pool.submit(lambda: ran.append("pending ran"))
            assert pending.cancel()  # still queued: cancellable
            release.set()
            assert blocker.result(timeout=5.0)
            # Queue is drained in order; the cancelled task was skipped.
            tail = pool.submit(lambda: "tail")
            assert tail.result(timeout=5.0) == "tail"
            assert ran == []
            assert pending.cancelled()
        finally:
            pool.shutdown()

    def test_running_future_is_not_cancellable(self):
        pool = _MorselPool(1)
        try:
            started = threading.Event()
            release = threading.Event()

            def task():
                started.set()
                release.wait(5.0)
                return "done"

            future = pool.submit(task)
            assert started.wait(5.0)
            assert not future.cancel()
            release.set()
            assert future.result(timeout=5.0) == "done"
        finally:
            pool.shutdown()

    def test_shutdown_joins_workers(self):
        pool = _MorselPool(2)
        threads = list(pool._threads)
        pool.shutdown(wait=True)
        assert all(not thread.is_alive() for thread in threads)


class TestDeadlineAcceptance:
    """ISSUE acceptance: a deadline the 1.2M-row join cannot meet."""

    #: the warm query takes ~25 ms since joins materialise late (was
    #: ~120 ms, and this deadline 0.05 s): 5 ms expires inside the join.
    #: It is a SUM: a warm COUNT looks nothing up and takes ~3 ms.
    DEADLINE = 0.005

    def test_governed_abort_within_budget(self, big_catalog, tmp_path):
        service = QueryService(big_catalog)
        try:
            # Warm-up: the first optimisation against a fresh catalog
            # computes 1.2M-row column statistics (~0.3s, un-governable
            # numpy work). The governed run then measures governance,
            # not statistics collection.
            warm = service.execute(GOVERNED_SQL)
            assert warm.table.num_rows == 100
            log_path = tmp_path / "log.jsonl"
            set_query_log(log_path)
            try:
                with capture_observability() as (metrics, __):
                    started = time.monotonic()
                    with pytest.raises(DeadlineExceeded):
                        service.execute(GOVERNED_SQL, deadline=self.DEADLINE)
                    wall = time.monotonic() - started
                    snapshot = metrics.snapshot()
            finally:
                set_query_log(None)
            assert wall <= 0.25, f"governed abort took {wall:.3f}s"
            # The slot and the active-query registry are both clean.
            assert service.admission.running == 0
            assert service.admission.queue_depth == 0
            assert service.active_queries() == []
            # Metrics and the query log agree on what happened.
            assert snapshot["service.admitted"] == 1
            assert snapshot["service.failed"] == 1
            assert "service.completed" not in snapshot
            entries = [
                e
                for e in QueryLog(log_path).entries()
                if e["kind"] == "service"
            ]
            assert len(entries) == 1
            assert entries[0]["status"] == "DeadlineExceeded"
            assert entries[0]["wall_seconds"] <= 0.25
        finally:
            service.shutdown()

    def test_mid_flight_cancel_by_query_id(self, big_catalog):
        service = QueryService(big_catalog)
        try:
            service.execute(GOVERNED_SQL)  # warm statistics + plan cache
            failures: list = []

            def run():
                try:
                    service.execute(GOVERNED_SQL, query_id="cancel-me")
                except QueryCancelled as error:
                    failures.append(error)

            thread = threading.Thread(target=run)
            thread.start()
            deadline = time.monotonic() + 5.0
            while (
                "cancel-me" not in service.active_queries()
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            assert service.cancel("cancel-me", reason="operator kill")
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert len(failures) == 1
            assert "operator kill" in str(failures[0])
            assert service.admission.running == 0
            assert service.active_queries() == []
        finally:
            service.shutdown()
