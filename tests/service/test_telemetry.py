"""End-to-end service telemetry: one trace id across every sink.

The acceptance test of the telemetry work: a single ``trace_id`` minted
by :meth:`ServiceClient.query` must be recoverable from all four sinks —
tracer spans, metric exemplars, the persistent query log, and the query
profile — plus the ``metrics`` / ``health`` protocol ops, error
correlation, and the ``querylog trace`` CLI over a live server.
"""

import threading
import time

import pytest

from repro.errors import ParseError, ReproError, ServiceError
from repro.obs import capture_observability, parse_prometheus, render_prometheus
from repro.obs.querylog import (
    QueryLog,
    main as querylog_main,
    query_facts,
    set_query_log,
)
from repro.service.admission import AdmissionConfig, Priority
from repro.service.server import (
    QueryServer,
    ServiceClient,
    _wire_error_class,
)
from repro.service.session import STAGES, QueryService, ServiceConfig

PAPER_SQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


@pytest.fixture
def query_log(tmp_path):
    log = QueryLog(tmp_path / "telemetry.jsonl")
    set_query_log(log)
    yield log
    set_query_log(None)


@pytest.fixture
def server(join_catalog):
    srv = QueryServer(QueryService(join_catalog)).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestFourSinks:
    def test_one_trace_id_reaches_every_sink(self, join_catalog, query_log):
        with capture_observability() as (metrics, tracer):
            server = QueryServer(QueryService(join_catalog)).start()
            try:
                with ServiceClient("127.0.0.1", server.port) as client:
                    response = client.query(PAPER_SQL, profile=True)
            finally:
                server.shutdown()
            trace_id = response["trace_id"]
            assert trace_id

            # Sink 1: tracer spans — the full lifecycle is stitched,
            # down to the optimiser's and the executor's own spans.
            tagged = {
                span.name
                for span in tracer.finished_spans
                if span.tags.get("trace_id") == trace_id
            }
            for expected in (
                "service.query",
                "service.parse",
                "service.optimize",
                "service.execute",
                "optimizer.optimize",
                "engine.execute",
            ):
                assert expected in tagged

            # Sink 2: metric exemplars — on the query histogram and in
            # the Prometheus exposition.
            snapshot = metrics.snapshot()
            exemplar = snapshot["service.query_seconds"]["exemplar"]
            assert exemplar["trace_id"] == trace_id
            text = render_prometheus(snapshot, kinds=metrics.kinds())
            parse_prometheus(text)  # well-formed
            assert trace_id in text

            # Sink 3: the persistent query log's one row for the query,
            # carrying the optimiser's and the executor's facts.
            (row,) = query_log.entries()
            assert row["kind"] == "service"
            assert row["trace_id"] == trace_id
            assert set(row["stages"]) <= set(STAGES)
            assert set(query_facts(row)) == {"optimize", "profile"}

            # Sink 4: the query profile, over the wire and in the log:
            # one record, with the SQL and the search stamp.
            assert response["profile"]["trace_id"] == trace_id
            assert response["profile"]["query"] == PAPER_SQL
            assert row["profile"] == response["profile"]

    def test_client_supplied_trace_id_is_honoured(self, client):
        response = client.query(PAPER_SQL, trace_id="feedc0ffee000001")
        assert response["trace_id"] == "feedc0ffee000001"

    def test_stage_breakdown_covers_the_lifecycle(self, client):
        first = client.query(PAPER_SQL)["stages"]
        assert set(first) <= set(STAGES)
        for stage in ("queue", "parse", "execute", "serialize"):
            assert stage in first
        assert "optimize" in first and "plan_cache" not in first
        second = client.query(PAPER_SQL)["stages"]
        assert "plan_cache" in second and "optimize" not in second


class TestErrorCorrelation:
    def test_raised_error_carries_the_trace_id(self, client):
        with pytest.raises(ParseError) as info:
            client.query("SELEC wat", trace_id="deadbeef00000001")
        assert info.value.trace_id == "deadbeef00000001"

    def test_minted_trace_id_rides_on_errors_too(self, client):
        with pytest.raises(ParseError) as info:
            client.query("SELEC wat")
        assert len(info.value.trace_id) == 16

    def test_unknown_wire_error_class_is_preserved(self):
        with pytest.raises(ReproError) as info:
            ServiceClient._raise_on_error(
                {
                    "ok": False,
                    "error": "TotallyNovelError",
                    "message": "boom",
                    "trace_id": "t1",
                }
            )
        assert type(info.value).__name__ == "TotallyNovelError"
        assert isinstance(info.value, ServiceError)
        assert info.value.trace_id == "t1"
        # The synthesised class is stable across raises.
        assert _wire_error_class("TotallyNovelError") is type(info.value)

    def test_failed_queries_land_in_the_log_with_trace(
        self, server, query_log
    ):
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ParseError) as info:
                client.query("SELEC nope")
        rows = [
            e
            for e in query_log.entries()
            if e.get("kind") == "service" and e.get("status") == "ParseError"
        ]
        assert [e["trace_id"] for e in rows] == [info.value.trace_id]


class TestServedLogRow:
    def test_the_row_carries_the_wire_serialize_stage(self, client, query_log):
        response = client.query(PAPER_SQL)
        (row,) = query_log.entries()
        assert row["trace_id"] == response["trace_id"]
        assert "serialize" in row["stages"]
        assert row["stages"] == response["stages"]

    def test_one_row_per_query_failed_ones_included(self, client, query_log):
        queries = [
            (PAPER_SQL, {}, "ok"),
            ("SELEC nope", {}, "ParseError"),
            (PAPER_SQL, {"workers": "many"}, "ServiceError"),
            (PAPER_SQL, {"max_rows": -1}, "ServiceError"),
            (PAPER_SQL, {"deadline": 1e-9}, "DeadlineExceeded"),
        ]
        for i, (sql, options, status) in enumerate(queries):
            if status == "ok":
                client.query(sql, trace_id=f"t{i}", **options)
                continue
            with pytest.raises(ReproError) as info:
                client.query(sql, trace_id=f"t{i}", **options)
            assert type(info.value).__name__ == status
        rows = query_log.entries()
        assert [(r["kind"], r["trace_id"], r["status"]) for r in rows] == [
            ("service", f"t{i}", status) for i, (*_, status) in enumerate(queries)
        ]
        assert "serialize" in rows[0]["stages"]


class TestMetricsAndHealthOps:
    def test_metrics_round_trip_renders_valid_exposition(self, join_catalog):
        with capture_observability():
            server = QueryServer(QueryService(join_catalog)).start()
            try:
                with ServiceClient("127.0.0.1", server.port) as client:
                    client.query(PAPER_SQL)
                    scraped = client.metrics()
            finally:
                server.shutdown()
        assert scraped["enabled"]
        text = render_prometheus(
            scraped["metrics"], kinds=scraped["kinds"]
        )
        parsed = parse_prometheus(text)
        assert "repro_service_completed_total" in parsed

    def test_health_reports_the_serving_posture(self, client):
        client.query(PAPER_SQL)
        health = client.health()
        assert health["state"] == "accepting"
        assert health["uptime_seconds"] > 0
        assert health["inflight"] == 0
        assert health["counts"]["completed"] == 1
        assert 0.0 <= health["plan_cache"]["hit_rate"] <= 1.0
        slo = health["slo"]
        assert slo["total_count"] == 1
        assert slo["classes"]["NORMAL"]["count"] == 1

    def test_health_tracks_degraded_and_shedding(self, join_catalog):
        service = QueryService(
            join_catalog,
            ServiceConfig(
                admission=AdmissionConfig(
                    max_concurrency=1,
                    max_queue_depth=2,
                    degrade_queue_depth=1,
                )
            ),
        )
        admission = service.admission
        assert service.health()["state"] == "accepting"
        slot = admission.admit()  # soak the only slot
        waiters = [
            threading.Thread(target=lambda: admission.admit().release())
            for __ in range(2)
        ]
        try:
            waiters[0].start()
            _wait_for(lambda: admission.queue_depth == 1)
            assert service.health()["state"] == "degraded"
            waiters[1].start()
            _wait_for(lambda: admission.queue_depth == 2)
            assert service.health()["state"] == "shedding"
        finally:
            slot.release()
            for waiter in waiters:
                waiter.join(timeout=5.0)
        _wait_for(lambda: admission.queue_depth == 0)
        assert service.health()["state"] == "accepting"
        service.shutdown()
        assert service.health()["state"] == "stopped"

    def test_top_queries_ranked_by_execute_time(self, client, server):
        client.query(PAPER_SQL)
        client.query(PAPER_SQL)
        top = server.service.top_queries()
        assert top[0]["sql"] == PAPER_SQL
        assert top[0]["executions"] == 2


class TestTraceCli:
    def test_trace_subcommand_reconstructs_the_timeline(
        self, server, query_log, capsys
    ):
        with ServiceClient("127.0.0.1", server.port) as client:
            trace_id = client.query(PAPER_SQL)["trace_id"]
        rc = querylog_main(
            ["--log", str(query_log.path), "trace", trace_id[:8]]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "JOIN" in out
        assert "stage queue" in out
        assert "stage execute" in out
        assert "stage serialize" in out

    def test_unknown_trace_id_fails_cleanly(self, query_log, capsys):
        rc = querylog_main(
            ["--log", str(query_log.path), "trace", "absent"]
        )
        assert rc == 1
        assert "no entries carry" in capsys.readouterr().err


def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")
