"""QueryService + Session: end-to-end SQL under governance."""

import json
import threading
import time

import pytest

from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    MemoryBudgetExceeded,
    PlanError,
    QueryCancelled,
    ServiceError,
)
from repro.obs import capture_observability, set_query_log
from repro.obs.querylog import QueryLog, main as querylog_main, query_facts
from repro.service.admission import AdmissionConfig, Priority
from repro.service.context import CancellationToken
from repro.service.session import QueryService, ServiceConfig


class TestExecute:
    def test_runs_the_paper_query(self, service, paper_query):
        outcome = service.execute(paper_query)
        table = outcome.table
        assert table.num_rows == 100  # one row per group
        counts = table[table.schema.names[-1]]
        assert int(counts.sum()) == 2_500  # dense: every S row matches
        assert outcome.cost > 0
        assert outcome.wall_seconds >= outcome.execute_seconds
        assert "GroupBy" in outcome.plan

    def test_second_run_hits_the_plan_cache(self, service, paper_query):
        first = service.execute(paper_query)
        second = service.execute(paper_query)
        assert not first.cached
        assert second.cached
        info = service.plan_cache.info()
        assert info["hits"] >= 1 and info["misses"] >= 1

    def test_plan_errors_stay_typed_and_service_survives(
        self, service, paper_query
    ):
        with pytest.raises(PlanError, match="unknown column"):
            service.execute("SELECT R.NOPE FROM R GROUP BY R.NOPE")
        assert service.admission.running == 0
        assert service.execute(paper_query).table.num_rows == 100

    def test_expired_deadline_aborts_and_releases_slot(
        self, service, paper_query
    ):
        with pytest.raises(DeadlineExceeded):
            service.execute(paper_query, deadline=0.0)
        assert service.admission.running == 0
        assert service.active_queries() == []

    def test_pre_cancelled_token_aborts(self, service, paper_query):
        token = CancellationToken()
        token.cancel("never mind")
        with pytest.raises(QueryCancelled, match="never mind"):
            service.execute(paper_query, token=token)
        assert service.admission.running == 0

    def test_memory_budget_enforced(self, service, paper_query):
        with pytest.raises(MemoryBudgetExceeded):
            service.execute(paper_query, memory_budget_bytes=64)
        assert service.admission.running == 0

    def test_cancel_by_id_only_hits_active_queries(self, service):
        assert service.cancel("no-such-query") is False

    def test_shutdown_refuses_new_queries(self, join_catalog, paper_query):
        service = QueryService(join_catalog)
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.execute(paper_query)

    def test_degraded_admission_runs_serial_shallow(
        self, join_catalog, paper_query
    ):
        service = QueryService(
            join_catalog,
            ServiceConfig(
                admission=AdmissionConfig(
                    max_concurrency=1, degrade_queue_depth=0
                )
            ),
        )
        try:
            # degrade_queue_depth=0 degrades every admission.
            outcome = service.execute(paper_query)
            assert outcome.degraded
            assert outcome.table.num_rows == 100
        finally:
            service.shutdown()

    def test_queue_full_sheds_typed_and_loses_nothing(
        self, join_catalog, paper_query
    ):
        """A burst of eight behind one held slot and a queue of two: the
        two queued queries complete, the six others are rejected typed
        with a usable ``retry_after``, and none hangs or vanishes."""
        service = QueryService(
            join_catalog,
            ServiceConfig(
                admission=AdmissionConfig(
                    max_concurrency=1, max_queue_depth=2, degrade_queue_depth=None
                )
            ),
        )
        results = [None] * 8

        def submit(index):
            try:
                results[index] = ("ok", service.execute(paper_query).table.num_rows)
            except AdmissionRejected as error:
                results[index] = ("rejected", error.retry_after)

        try:
            service.execute(paper_query)  # warm
            # Soak the only slot so the burst must queue (and overflow).
            blocker = service.admission.admit()
            threads = [
                threading.Thread(target=submit, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while (
                sum(1 for r in results if r and r[0] == "rejected") < 6
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            blocker.release()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            service.shutdown()
        assert not any(thread.is_alive() for thread in threads), "a client hung"
        assert all(result is not None for result in results), "a query vanished"
        completed = [r for r in results if r[0] == "ok"]
        rejected = [r for r in results if r[0] == "rejected"]
        assert completed == [("ok", 100)] * 2, "exactly the queued queries completed"
        assert len(rejected) == 6, "the overflow was shed"
        assert all(retry > 0 for __, retry in rejected)


class TestObservability:
    def test_metrics_and_query_log_are_consistent(
        self, service, paper_query, tmp_path
    ):
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            with capture_observability() as (metrics, __):
                service.execute(paper_query)
                with pytest.raises(PlanError):
                    service.execute("SELECT R.NOPE FROM R GROUP BY R.NOPE")
                snapshot = metrics.snapshot()
        finally:
            set_query_log(None)
        assert snapshot["service.admitted"] == 2
        assert snapshot["service.completed"] == 1
        assert snapshot["service.failed"] == 1
        assert snapshot["service.query_seconds"]["count"] == 1
        entries = [
            e for e in QueryLog(log_path).entries() if e["kind"] == "service"
        ]
        assert len(entries) == 2
        by_status = {e["status"]: e for e in entries}
        assert by_status["ok"]["rows_out"] == 100
        assert by_status["ok"]["priority"] == int(Priority.NORMAL)
        assert "PlanError" in by_status

    def test_each_query_writes_one_row_whatever_its_status(
        self, join_catalog, paper_query, tmp_path
    ):
        """A served query appends exactly one line, its ``service`` row,
        whether it ran, failed, was cancelled or was shed; the
        optimiser's and the executor's facts nest in it."""
        service = QueryService(
            join_catalog,
            ServiceConfig(
                admission=AdmissionConfig(max_concurrency=1, max_queue_depth=0)
            ),
        )
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            service.execute(paper_query)
            with pytest.raises(PlanError):
                service.execute("SELECT R.NOPE FROM R GROUP BY R.NOPE")
            token = CancellationToken()
            token.cancel("before admission")
            with pytest.raises(QueryCancelled):
                service.execute(paper_query, token=token)
            slot = service.admission.admit()  # soak the only slot
            try:
                with pytest.raises(AdmissionRejected):
                    service.execute(paper_query)
            finally:
                slot.release()
        finally:
            set_query_log(None)
            service.shutdown()
        lines = log_path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["kind"] for row in rows] == ["service"] * 4
        assert [row["status"] for row in rows] == [
            "ok", "PlanError", "QueryCancelled", "AdmissionRejected",
        ]
        assert len({row["trace_id"] for row in rows}) == 4
        assert set(query_facts(rows[0])) == {"optimize", "execute"}
        assert rows[0]["execute"]["rows_out"] == rows[0]["rows_out"] == 100
        assert not query_facts(rows[3])  # shed before it optimised

    def test_untyped_crash_is_recorded_as_a_failure(
        self, service, paper_query, tmp_path, monkeypatch
    ):
        """A non-ReproError from below the service is a failure too:
        status = its class name, the ``failed`` counters, an SLO error —
        and the caller gets the very same exception."""

        def crash(*args, **kwargs):
            raise RuntimeError("injected below the service")

        monkeypatch.setattr(service, "_optimize", crash)
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            with capture_observability() as (metrics, __):
                with pytest.raises(RuntimeError, match="injected below"):
                    service.execute(paper_query)
                snapshot = metrics.snapshot()
        finally:
            set_query_log(None)
        assert service.counts()["failed"] == 1
        assert snapshot["service.failed"] == 1
        normal = service.slo.snapshot()["classes"]["NORMAL"]
        assert (normal["count"], normal["errors"]) == (1, 1)
        (entry,) = [
            e for e in QueryLog(log_path).entries() if e["kind"] == "service"
        ]
        assert entry["status"] == "RuntimeError"

    def test_querylog_summary_reports_plan_cache(
        self, service, paper_query, tmp_path, capsys
    ):
        """Satellite: ``querylog summary`` shows hit/miss/eviction counts
        and the hit rate for the service's shared plan cache."""
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            for __ in range(4):
                service.execute(paper_query)
        finally:
            set_query_log(None)
        assert querylog_main(["--log", str(log_path), "summary"]) == 0
        out = capsys.readouterr().out
        assert "plan cache:" in out
        assert "lookups=4" in out
        assert "hits=3" in out
        assert "misses=1" in out
        assert "evictions=0" in out
        assert "hit rate=75.0%" in out

    def test_service_log_entries_are_plain_json(
        self, service, paper_query, tmp_path
    ):
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            service.execute(paper_query)
        finally:
            set_query_log(None)
        for line in log_path.read_text().splitlines():
            json.loads(line)


class TestSession:
    def test_settings_are_scoped_per_session(self, service):
        one = service.session(workers=2)
        two = service.session()
        assert one.get("workers") == 2
        assert two.get("workers") is None
        two.set("deadline", 5)
        assert one.get("deadline") is None
        assert two.settings() == {"deadline": 5.0}
        assert one.session_id != two.session_id

    def test_settings_are_coerced(self, service):
        session = service.session()
        session.set("priority", 2)
        assert session.get("priority") is Priority.HIGH
        session.set("deadline", "1.5")
        assert session.get("deadline") == 1.5

    def test_unknown_setting_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown session setting"):
            service.session().set("nope", 1)

    def test_set_none_clears(self, service):
        session = service.session(workers=2)
        session.set("workers", None)
        assert session.settings() == {}

    def test_per_call_override_wins(self, service, paper_query):
        session = service.session(deadline=30.0)
        # Session deadline of 30s would pass; the call's 0.0 must win.
        with pytest.raises(DeadlineExceeded):
            session.execute(paper_query, deadline=0.0)

    def test_stats_track_outcomes(self, service, paper_query):
        session = service.session()
        session.execute(paper_query)
        with pytest.raises(PlanError):
            session.execute("SELECT R.NOPE FROM R GROUP BY R.NOPE")
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.execute(paper_query, token=token)
        stats = session.stats()
        assert stats["queries"] == 3
        assert stats["rows_out"] == 100
        assert stats["errors"] == 1
        assert stats["cancelled"] == 1
        assert stats["wall_seconds"] > 0
