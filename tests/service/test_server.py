"""The TCP server: round-trips, the wire format (JSON lines, a query
result's column buffers after its header), typed errors,
cancellation."""

import gc
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejected,
    ParseError,
    PlanError,
    QueryCancelled,
    ServiceError,
)
from repro.obs import set_query_log
from repro.obs.querylog import QueryLog
from repro.service.admission import AdmissionConfig
from repro.service.server import QueryServer, ServiceClient
from repro.service.session import QueryService, ServiceConfig
from repro.storage import Catalog, Table

PAPER_SQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
#: a query over ``big_catalog`` that stays long when warm: its SUM over
#: an S column makes the join emit and gather every pair.
GOVERNED_SQL = "SELECT R.A, SUM(S.B) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
PING = b'{"op": "ping"}\n'


@pytest.fixture
def server(join_catalog):
    srv = QueryServer(QueryService(join_catalog)).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


def raw_frames(port: int, *lines: bytes) -> list[tuple[dict, bytes]]:
    """Write ``lines`` and a ``close`` in one go on a plain socket and
    read to EOF: the server's responses, asserted to be exactly one
    frame per request, each a header line and the ``sum(nbytes)`` bytes
    it announces."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(b"".join(lines) + b'{"op": "close"}\n')
        stream = b""
        while chunk := sock.recv(1 << 16):
            stream += chunk
    frames = []
    while stream:
        line, newline, stream = stream.partition(b"\n")
        assert newline
        header = json.loads(line)
        size = sum(header.get("nbytes", []))
        assert len(stream) >= size
        frames.append((header, stream[:size]))
        stream = stream[size:]
    assert len(frames) == len(lines) + 1
    assert frames[-1] == ({"ok": True, "bye": True}, b"")
    return frames[:-1]


def raw_exchange(port: int, *lines: bytes) -> list[dict]:
    """:func:`raw_frames`' headers."""
    return [header for header, _body in raw_frames(port, *lines)]


class TestRoundTrip:
    def test_ping(self, client):
        assert client.ping()

    def test_query_returns_rows(self, client):
        response = client.query(PAPER_SQL)
        assert response["ok"]
        assert response["row_count"] == 100
        assert len(response["rows"]) == 100
        assert len(response["columns"]) == 2
        assert not response["truncated"]
        assert sum(row[-1] for row in response["rows"]) == 2_500
        assert response["wall_seconds"] > 0

    def test_max_rows_truncates_payload_not_count(self, client):
        response = client.query(PAPER_SQL, max_rows=5)
        assert response["row_count"] == 100
        assert len(response["rows"]) == 5
        assert response["truncated"]

    def test_second_query_is_a_plan_cache_hit(self, client):
        assert not client.query(PAPER_SQL)["cached"]
        assert client.query(PAPER_SQL)["cached"]

    def test_malformed_json_is_a_typed_error(self, server):
        response, pong = raw_exchange(server.port, b"this is not json\n", PING)
        assert not response["ok"]
        assert response["error"] == "ServiceError"
        assert "malformed request JSON" in response["message"]
        assert pong == {"ok": True, "pong": True}  # connection survives

    def test_undecodable_bytes_are_a_typed_error(self, server):
        response, pong = raw_exchange(server.port, b'{"op": "\xff"}\n', PING)
        assert response["error"] == "ServiceError"
        assert "malformed request JSON" in response["message"]
        assert pong == {"ok": True, "pong": True}


#: rows of the every-dtype table: a full response is a >= 10 k-row one.
TYPED_ROWS = 12_000
ALL_COLUMNS = "SELECT T.K, T.I, T.U, T.F, T.B FROM T"
#: (sql, max_rows) whose wire ``rows`` must equal the in-process table.
WIRE_CASES = {
    "every-dtype-full": (ALL_COLUMNS, 100_000),
    "aggregate": ("SELECT T.B, AVG(T.F), COUNT(*) FROM T GROUP BY T.B", None),
    "zero-rows": ("SELECT T.K, T.F FROM T WHERE T.U < 0", None),
    "default-cap": (ALL_COLUMNS, None),
    "truncated": (ALL_COLUMNS, 7),
    "max-rows-zero": (ALL_COLUMNS, 0),
}


@pytest.fixture(scope="module")
def typed_server():
    """A server over one table holding a column of every storage dtype
    (the engine has no string type), extremes included."""
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(TYPED_ROWS) * 1e6
    floats[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    ints = rng.integers(-(2**62), 2**62, TYPED_ROWS)
    ints[:2] = [np.iinfo(np.int64).max, np.iinfo(np.int64).min]
    catalog = Catalog()
    catalog.register("T", Table.from_arrays({
        "K": ints,
        "I": rng.integers(-(2**31), 2**31, TYPED_ROWS).astype(np.int32),
        "U": rng.integers(0, 2**32, TYPED_ROWS).astype(np.uint32),
        "F": floats,
        "B": rng.random(TYPED_ROWS) < 0.5,
    }))
    srv = QueryServer(QueryService(catalog)).start()
    yield srv
    srv.shutdown()


def _bits(rows: list) -> list:
    """Rows with each float as its int64 view: ``==`` sees neither a NaN
    nor the sign of a zero, the bits do."""
    return [
        [np.float64(v).view(np.int64).item() if type(v) is float else v for v in row]
        for row in rows
    ]


class TestWire:
    def test_nodelay_on_both_ends(self, server, client):
        assert client.ping()
        [served] = server._connections.values()
        for sock in (client._socket, served):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_one_frame_per_request_header_then_column_buffers(
        self, typed_server
    ):
        cases = [WIRE_CASES[c] for c in ("truncated", "zero-rows", "max-rows-zero")]
        queries = [
            json.dumps(
                {"op": "query", "sql": sql}
                | ({} if cap is None else {"max_rows": cap})
            ).encode() + b"\n"
            for sql, cap in cases
        ]
        *answers, (pong, after) = raw_frames(typed_server.port, *queries, PING)
        assert pong == {"ok": True, "pong": True} and after == b""
        truncated, zero_rows, max_rows_zero = answers
        for header, body in answers:
            assert "data" not in header and "rows" not in header
            assert (
                len(header["dtypes"]) == len(header["nbytes"])
                == len(header["columns"])
            )
            assert len(body) == sum(header["nbytes"])
        header, body = truncated
        table = typed_server.service.execute(ALL_COLUMNS).table
        assert header["row_count"] == TYPED_ROWS and header["truncated"]
        offset = 0
        for name, dtype, size in zip(
            header["columns"], header["dtypes"], header["nbytes"]
        ):
            assert dtype == table[name].dtype.str
            assert body[offset:offset + size] == table[name][:7].tobytes()
            offset += size
        for header, _body in (zero_rows, max_rows_zero):
            assert header["nbytes"] == [0] * len(header["columns"])
        assert zero_rows[0]["row_count"] == 0
        assert max_rows_zero[0]["row_count"] == TYPED_ROWS

    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_rows_equal_the_in_process_table(self, typed_server, case):
        sql, max_rows = WIRE_CASES[case]
        table = typed_server.service.execute(sql).table
        cap = min(table.num_rows, 1000 if max_rows is None else max_rows)
        names = list(table.schema.names)
        expected = [[table[name][i].item() for name in names] for i in range(cap)]
        with ServiceClient("127.0.0.1", typed_server.port) as client:
            response = client.query(sql, max_rows=max_rows)
        rows = response["rows"]
        assert type(rows) is list and all(type(row) is list for row in rows)
        assert [[type(v) for v in row] for row in rows] == [
            [type(v) for v in row] for row in expected
        ]
        assert _bits(rows) == _bits(expected)
        assert response["columns"] == names
        assert response["row_count"] == table.num_rows
        assert response["truncated"] == (cap < table.num_rows)
        assert "data" not in response


def one_shot_server(response: bytes) -> int:
    """A fake server's port: it accepts one connection, reads one
    request line, answers ``response`` and hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer() -> None:
        with listener:
            conn, _addr = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                conn.sendall(response)

    threading.Thread(target=answer, daemon=True).start()
    return listener.getsockname()[1]


def result_frame(dtypes: list[str], nbytes: list[int], body: bytes) -> bytes:
    header = {"ok": True, "columns": [f"c{i}" for i in range(len(dtypes))],
              "dtypes": dtypes, "nbytes": nbytes}
    return json.dumps(header).encode() + b"\n" + body


#: frames :class:`ServiceClient` refuses, and the refusal it gives.
BAD_FRAMES = {
    "short": (result_frame(["<i8"], [16], bytes(8)), "8 bytes into a 16-byte"),
    "string-dtype": (result_frame(["<U1"], [4], bytes(4)), "cannot cross"),
    "object-dtype": (result_frame(["|O"], [8], bytes(8)), "cannot cross"),
    "part-items": (result_frame(["<i8"], [12], bytes(12)), "not whole"),
    "unequal-rows": (
        result_frame(["<i8", "<i4"], [16, 4], bytes(20)), "unequal length"
    ),
}


class TestBadFrames:
    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_client_refuses_a_bad_result_frame(self, case):
        frame, message = BAD_FRAMES[case]
        with ServiceClient("127.0.0.1", one_shot_server(frame)) as client:
            with pytest.raises(ServiceError, match=message):
                client.query("SELECT 1")

    def test_a_well_formed_frame_is_read_whole(self):
        frame = result_frame(
            ["<i8", ">f8"], [16, 16],
            np.array([1, 2], "<i8").tobytes() + np.array([0.5, -0.0], ">f8").tobytes(),
        )
        with ServiceClient("127.0.0.1", one_shot_server(frame)) as client:
            rows = client.query("SELECT 1")["rows"]
        assert rows == [[1, 0.5], [2, -0.0]]
        assert str(rows[1][1]) == "-0.0"

    @pytest.mark.parametrize("collecting", [True, False])
    def test_building_rows_leaves_the_collector_as_it_was(self, collecting):
        frame = result_frame(["<i8", "<i8"], [8, 8], bytes(16))
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with ServiceClient("127.0.0.1", one_shot_server(frame)) as client:
                assert client.query("SELECT 1")["rows"] == [[0, 0]]
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()


class TestTypedErrors:
    def test_parse_error_crosses_the_wire(self, client):
        with pytest.raises(ParseError, match="expected SELECT"):
            client.query("SELEC wat")

    def test_plan_error_crosses_the_wire(self, client):
        with pytest.raises(PlanError, match="unknown column"):
            client.query("SELECT R.NOPE FROM R GROUP BY R.NOPE")

    def test_unknown_op_is_a_service_error(self, client):
        response = client.request({"op": "frobnicate"})
        assert not response["ok"]
        assert response["error"] == "ServiceError"

    def test_empty_sql_rejected(self, client):
        with pytest.raises(ServiceError, match="non-empty 'sql'"):
            client.query("   ")

    def test_connection_survives_errors(self, client):
        for __ in range(3):
            with pytest.raises(ParseError):
                client.query("SELEC")
        assert client.query(PAPER_SQL)["row_count"] == 100


class TestAdmissionOverTheWire:
    def test_queue_full_carries_retry_after(self, join_catalog):
        service = QueryService(
            join_catalog,
            ServiceConfig(
                admission=AdmissionConfig(max_concurrency=1, max_queue_depth=0)
            ),
        )
        server = QueryServer(service).start()
        try:
            slot = service.admission.admit()  # soak the only slot
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(AdmissionRejected) as info:
                    client.query(PAPER_SQL)
                assert info.value.retry_after > 0
                slot.release()
                assert client.query(PAPER_SQL)["row_count"] == 100
        finally:
            server.shutdown()


class TestSessionScoping:
    def test_settings_are_per_connection(self, server):
        with ServiceClient("127.0.0.1", server.port) as one:
            with ServiceClient("127.0.0.1", server.port) as two:
                one.set("workers", 2)
                one.set("deadline", 5)
                assert two.stats()["settings"] == {}
                assert one.stats()["settings"] == {
                    "workers": 2,
                    "deadline": 5.0,
                }

    def test_stats_expose_session_and_service_views(self, client):
        client.query(PAPER_SQL)
        stats = client.stats()
        assert stats["session"]["queries"] == 1
        assert stats["session"]["rows_out"] == 100
        service = stats["service"]
        assert service["running"] == 0
        assert service["queue_depth"] == 0
        assert service["active_queries"] == []
        assert service["plan_cache"]["misses"] >= 1

    def test_unknown_setting_is_typed(self, client):
        with pytest.raises(ServiceError, match="unknown session setting"):
            client.set("nope", 1)


#: settings a client may send that are refused: (request, message part).
#: Worker counts pass the one Settings rule.
BAD_SETTING_REQUESTS = {
    "set-string": ({"op": "set", "name": "workers", "value": "x"}, "workers must be"),
    "query-string": ({"op": "query", "sql": PAPER_SQL, "workers": "2"}, "workers must be"),
    "set-zero": ({"op": "set", "name": "workers", "value": 0}, "workers must be"),
    "query-huge": ({"op": "query", "sql": PAPER_SQL, "workers": 100_000}, "workers must be"),
    "why-zero": ({"op": "why", "sql": PAPER_SQL, "workers": 0}, "workers must be"),
    "set-priority": ({"op": "set", "name": "priority", "value": "x"}, "cannot take"),
    "query-max-rows-string": ({"op": "query", "sql": PAPER_SQL, "max_rows": "x"}, "max_rows must be"),
    "query-max-rows-null": ({"op": "query", "sql": PAPER_SQL, "max_rows": None}, "max_rows must be"),
    "query-max-rows-negative": ({"op": "query", "sql": PAPER_SQL, "max_rows": -1}, "max_rows must be"),
    "query-deadline": ({"op": "query", "sql": PAPER_SQL, "deadline": "soon"}, "cannot take"),
    "query-priority-name": ({"op": "query", "sql": PAPER_SQL, "priority": "high"}, "cannot take"),
    "query-priority-range": ({"op": "query", "sql": PAPER_SQL, "priority": 7}, "cannot take"),
    "query-memory": ({"op": "query", "sql": PAPER_SQL, "memory_budget_bytes": "lots"}, "cannot take"),
}


class TestBadSettingsAtTheEdge:
    @pytest.mark.parametrize("name", sorted(BAD_SETTING_REQUESTS))
    def test_bad_value_is_a_typed_error(self, client, name):
        request, message = BAD_SETTING_REQUESTS[name]
        assert client.ping()  # the connection thread is up before counting
        threads = threading.active_count()
        response = client.request(request)
        assert response["ok"] is False
        assert response["error"] == "ServiceError"
        assert message in response["message"]
        assert client.ping()  # the connection stays usable
        stats = client.stats()
        assert stats["settings"] == {}
        assert stats["session"]["queries"] == 0  # refused before it ran
        assert threading.active_count() <= threads


class TestRefusedBeforeItRuns:
    @pytest.mark.parametrize(
        "options",
        [{"max_rows": -1}, {"workers": "many"}],
        ids=["max_rows", "workers"],
    )
    def test_error_and_log_row_carry_the_trace_id(self, server, options, tmp_path):
        """A query refused before it runs raises with the request's
        ``trace_id``, and its one query-log row carries the same id."""
        log_path = tmp_path / "log.jsonl"
        set_query_log(log_path)
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as raised:
                    client.query(PAPER_SQL, trace_id="abc123", **options)
        finally:
            set_query_log(None)
        assert raised.value.trace_id == "abc123"
        (row,) = QueryLog(log_path).entries()
        assert row["kind"] == "service" and row["trace_id"] == "abc123"
        assert row["status"] == "ServiceError"


class TestUntypedFailures:
    def test_a_crash_is_answered_and_the_connection_survives(
        self, server, client, monkeypatch, caplog
    ):
        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(server.service, "health", crash)
        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            response = client.request({"op": "health"})
        assert response == {"ok": False, "error": "RuntimeError", "message": "boom"}
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError]
        with pytest.raises(ServiceError, match="boom") as info:
            client.health()
        assert type(info.value).__name__ == "RuntimeError"
        assert client.ping()


class TestCancelOverTheWire:
    def test_cancel_from_a_second_connection(self, big_catalog):
        service = QueryService(big_catalog)
        server = QueryServer(service).start()
        try:
            with ServiceClient("127.0.0.1", server.port) as runner:
                runner.query(GOVERNED_SQL)  # warm statistics + plan cache
                outcome: dict = {}

                def run():
                    try:
                        runner.query(GOVERNED_SQL, id="wire-cancel")
                    except QueryCancelled as error:
                        outcome["error"] = error

                thread = threading.Thread(target=run)
                thread.start()
                with ServiceClient("127.0.0.1", server.port) as killer:
                    deadline = time.monotonic() + 5.0
                    cancelled = False
                    while time.monotonic() < deadline and not cancelled:
                        cancelled = killer.cancel("wire-cancel")
                        if not cancelled:
                            time.sleep(0.002)
                assert cancelled
                thread.join(timeout=10.0)
                assert not thread.is_alive()
                assert isinstance(outcome.get("error"), QueryCancelled)
                assert service.admission.running == 0
        finally:
            server.shutdown()

    def test_cancel_unknown_id_reports_false(self, client):
        assert client.cancel("never-started") is False


class TestShutdown:
    def test_graceful_shutdown_is_bounded(self, join_catalog):
        server = QueryServer(QueryService(join_catalog)).start()
        client = ServiceClient("127.0.0.1", server.port)
        client.query(PAPER_SQL)
        started = time.monotonic()
        server.shutdown(timeout=5.0)
        assert time.monotonic() - started < 5.0
        with pytest.raises(ServiceError):
            client.query(PAPER_SQL)
        client.close()

    def test_shutdown_wakes_the_accept_thread(self, join_catalog):
        """Closing a listening socket does not wake accept() on Linux:
        the accept thread used to outlive every served server, and its
        timed-out join cost each shutdown a full second."""
        before = set(threading.enumerate())
        for _ in range(2):
            server = QueryServer(QueryService(join_catalog)).start()
            with ServiceClient("127.0.0.1", server.port) as client:
                client.query(PAPER_SQL)
            started = time.monotonic()
            server.shutdown()
            assert time.monotonic() - started < 0.2
            # Worker-pool threads a parallel leg starts are not the
            # server's; everything the server started must be gone.
            leaked = set(threading.enumerate()) - before
            assert [t.name for t in leaked if "server" in t.name] == []

    def test_port_requires_started_server(self, join_catalog):
        server = QueryServer(QueryService(join_catalog))
        with pytest.raises(ServiceError, match="not started"):
            server.port
