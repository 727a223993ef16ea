"""A threaded TCP front-end for the query service.

Protocol: requests are JSON lines, one UTF-8 object per line. Each
connection is one :class:`~repro.service.session.Session` (scoped
settings live and die with the connection). Both ends set
``TCP_NODELAY`` and write each frame with one ``sendall``. A response
frame is one JSON object plus its ``"\\n"``; a query result's frame
goes on with the result's raw column buffers. Requests carry an ``op``:

``{"op": "query", "sql": ..., "id"?, "trace_id"?, "deadline"?,
"priority"?, "workers"?, "memory_budget_bytes"?, "max_rows"?,
"profile"?}``
    Run SQL; responds with the header line ``{"ok": true, "id",
    "trace_id", "columns", "dtypes", "nbytes", "row_count",
    "truncated", "wall_seconds", "stages", "cached", "degraded",
    "plan_hash"}`` followed by each column's bytes, in the order of
    ``columns``: ``dtypes`` holds each column's numpy ``dtype.str``
    (which names the byte order, e.g. ``"<i8"``) and ``nbytes`` its
    byte length. Each column is capped at ``max_rows`` (a non-negative
    integer, default 1000); ``row_count`` is always the full count.
    :class:`ServiceClient` reads the ``sum(nbytes)`` bytes after the
    header and returns them as ``rows``, a list of row lists. The
    per-query options get :meth:`Session.set
    <repro.service.session.Session.set>`'s coercions before the query
    runs. ``trace_id`` is minted at the server edge when the client
    supplies none; ``stages`` maps the
    :data:`~repro.service.session.STAGES` taxonomy to wall seconds,
    including ``serialize`` (stamped here: copying the capped columns
    into the frame's buffers), which the query's log row carries too;
    ``profile: true`` attaches a full per-operator ``profile`` record.

``{"op": "cancel", "id": ...}``
    Cancel a query started on *any* connection (use a second connection:
    the first is blocked inside its query). Responds ``{"ok": true,
    "cancelled": bool}``.

``{"op": "metrics"}`` / ``{"op": "health"}``
    Telemetry: the process metrics snapshot + instrument kinds (feed
    :func:`repro.obs.exposition.render_prometheus`), and the service's
    :meth:`~repro.service.session.QueryService.health` report
    (admission state, inflight, plan-cache hit rate, SLO posture,
    uptime).

``{"op": "why", "sql"?, "fingerprint"?, "deep"?, "workers"?}``
    ``EXPLAIN WHY``: the server re-optimises the query (named by SQL or
    by a spec fingerprint it has served) with a decision trace attached
    and responds ``{"ok": true, "why": <structured report>, "rendered":
    <text>}`` — see :func:`repro.obs.search.explain.explain_why`.

``{"op": "set", "name": ..., "value": ...}`` / ``{"op": "stats"}`` /
``{"op": "ping"}`` / ``{"op": "close"}``
    Session settings, session + service statistics, liveness, goodbye.

Failures respond ``{"ok": false, "error": "<type name>", "message":
..., "trace_id"?}`` — the typed :mod:`repro.errors` hierarchy crosses
the wire by name (plus ``retry_after`` for admission rejections, plus
the failed request's ``trace_id`` when one was assigned); an exception
outside that hierarchy answers the same way under its own class name.
The connection survives every failure; only ``close`` or EOF ends it.

Shutdown is graceful: stop accepting, cancel in-flight queries through
their tokens, then join connection threads (bounded wait).
"""

from __future__ import annotations

import gc
import json
import logging
import socket
import threading
import time

import numpy as np

from repro.errors import AdmissionRejected, ReproError, ServiceError
from repro.obs.querylog import query_row
from repro.obs.runtime import get_metrics
from repro.service.context import CancellationToken, new_trace_id
from repro.service.session import QueryService, Session, observe_stage

#: rows a query response carries unless the request raises/lowers it.
DEFAULT_MAX_ROWS = 1000

_log = logging.getLogger(__name__)


#: dtype kinds a query result's column buffers may carry: the storage
#: layer's bool, signed, unsigned and float columns.
WIRE_KINDS = frozenset("biuf")


def _frame(message: dict, buffers: list[bytes] = ()) -> bytes:
    """``message`` as one newline-terminated UTF-8 line, then
    ``buffers`` as they are."""
    return b"".join([json.dumps(message).encode(), b"\n", *buffers])


def _row_cap(value) -> int:
    """A request's ``max_rows``: a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(
            f"max_rows must be a non-negative integer, not {value!r}"
        )
    return value


class QueryServer:
    """Serves a :class:`QueryService` over TCP (see the module docstring).

    >>> server = QueryServer(service)          # doctest: +SKIP
    >>> server.start()                         # doctest: +SKIP
    >>> client = ServiceClient("127.0.0.1", server.port)  # doctest: +SKIP
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._requested_port = port
        self._socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: dict[int, socket.socket] = {}
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._tokens: dict[str, CancellationToken] = {}
        self._stopping = threading.Event()
        self._conn_ids = iter(range(1, 1_000_000_000))

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` — pick a free one)."""
        if self._socket is None:
            raise ServiceError("server is not started")
        return self._socket.getsockname()[1]

    @property
    def service(self) -> QueryService:
        return self._service

    def start(self) -> "QueryServer":
        """Bind, listen, and serve on background threads."""
        if self._socket is not None:
            raise ServiceError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(64)
        self._socket = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        assert self._socket is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._socket.accept()
            except OSError:
                return  # listener closed during shutdown
            conn_id = next(self._conn_ids)
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._connections[conn_id] = conn
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn, conn_id),
                    name=f"repro-server-conn-{conn_id}",
                    daemon=True,
                )
                self._threads.append(thread)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("service.connections", exist_ok=True).inc()
            thread.start()

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        session = self._service.session()
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with conn.makefile("rb") as reader:
                for line in reader:
                    if not line.strip():
                        continue
                    try:
                        request = json.loads(line)
                    except ValueError as error:  # bad JSON or bad UTF-8
                        frame = _frame(self._error_response(
                            ServiceError(f"malformed request JSON: {error}")
                        ))
                    else:
                        if not isinstance(request, dict):
                            request = {"op": None}
                        if request.get("op") == "close":
                            conn.sendall(_frame({"ok": True, "bye": True}))
                            return
                        frame = self._handle(session, request)
                    conn.sendall(frame)
        except (OSError, ValueError):
            pass  # connection torn down mid-request
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._connections.pop(conn_id, None)

    def _handle(self, session: Session, request: dict) -> bytes:
        """The response frame for one request; every failure is answered,
        so the connection outlives it."""
        try:
            if request.get("op") == "query":
                return _frame(*self._handle_query(session, request))
            return _frame(self._handle_op(session, request))
        except Exception as error:
            if not isinstance(error, ReproError):
                _log.exception("%r request failed", request.get("op"))
            # A query refused before it runs (a bad ``max_rows``, a setting
            # the session rejects) answers with the request's id too.
            return _frame(
                self._error_response(error, str(request.get("trace_id") or ""))
            )

    def _handle_op(self, session: Session, request: dict) -> dict:
        op = request.get("op")
        if op == "cancel":
            query_id = str(request.get("id", ""))
            with self._lock:
                token = self._tokens.get(query_id)
            if token is not None:
                token.cancel("cancelled over the wire")
                cancelled = True
            else:
                cancelled = self._service.cancel(query_id)
            return {"ok": True, "cancelled": cancelled}
        if op == "set":
            session.set(request.get("name", ""), request.get("value"))
            return {"ok": True, "settings": _plain(session.settings())}
        if op == "stats":
            return {
                "ok": True,
                "session": session.stats(),
                "settings": _plain(session.settings()),
                "service": {
                    "running": self._service.admission.running,
                    "queue_depth": self._service.admission.queue_depth,
                    "active_queries": self._service.active_queries(),
                    "plan_cache": self._service.plan_cache.info(),
                    "plan_cache_entries": (
                        self._service.plan_cache.entry_stats(limit=10)
                    ),
                    "top_queries": self._service.top_queries(),
                },
            }
        if op == "metrics":
            registry = get_metrics()
            return {
                "ok": True,
                "enabled": registry.enabled,
                "metrics": registry.snapshot(),
                "kinds": registry.kinds(),
            }
        if op == "health":
            return {"ok": True, "health": self._service.health()}
        if op == "why":
            report = self._service.why(
                sql=request.get("sql"),
                fingerprint=request.get("fingerprint"),
                deep=request.get("deep"),
                workers=request.get("workers"),
            )
            return {
                "ok": True,
                "why": report.to_dict(),
                "rendered": report.render(),
            }
        if op == "ping":
            return {"ok": True, "pong": True}
        raise ServiceError(f"unknown op {op!r}")

    def _handle_query(
        self, session: Session, request: dict
    ) -> tuple[dict, list[bytes]]:
        """The response header to a query and its column buffers."""
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ServiceError("query op requires a non-empty 'sql' string")
        query_id = str(request["id"]) if request.get("id") else None
        # Mint the correlation id at the server edge when the client did
        # not — every span/metric/log row of this request carries it.
        trace_id = request["trace_id"] = (
            str(request.get("trace_id") or "") or new_trace_id()
        )
        # The service's log row for this query joins this one, which is
        # appended after ``serialize`` is stamped on it.
        with query_row(trace_id=trace_id, sql=sql) as row:
            max_rows = _row_cap(request.get("max_rows", DEFAULT_MAX_ROWS))
            token = CancellationToken()
            if query_id is not None:
                with self._lock:
                    self._tokens[query_id] = token
            try:
                outcome = session.execute(
                    sql,
                    deadline=request.get("deadline"),
                    priority=request.get("priority"),
                    workers=request.get("workers"),
                    memory_budget_bytes=request.get("memory_budget_bytes"),
                    token=token,
                    query_id=query_id,
                    trace_id=trace_id,
                    profile=request.get("profile"),
                )
            finally:
                if query_id is not None:
                    with self._lock:
                        self._tokens.pop(query_id, None)
            table = outcome.table
            names = list(table.schema.names)
            count = min(table.num_rows, max_rows)
            serialize_started = time.monotonic()
            columns = [table[name][:count] for name in names]
            buffers = [np.ascontiguousarray(column).tobytes() for column in columns]
            serialize_seconds = time.monotonic() - serialize_started
            if row is not None:
                row["stages"]["serialize"] = serialize_seconds
        stages = dict(outcome.stage_seconds)
        stages["serialize"] = serialize_seconds
        observe_stage(
            get_metrics(), "serialize", serialize_seconds, outcome.trace_id
        )
        response = {
            "ok": True,
            "id": outcome.query_id,
            "trace_id": outcome.trace_id,
            "columns": names,
            "dtypes": [column.dtype.str for column in columns],
            "nbytes": [len(buffer) for buffer in buffers],
            "row_count": table.num_rows,
            "truncated": count < table.num_rows,
            "wall_seconds": outcome.wall_seconds,
            "queued_seconds": outcome.queued_seconds,
            "stages": stages,
            "cached": outcome.cached,
            "degraded": outcome.degraded,
            "cost": outcome.cost,
            "plan_hash": outcome.plan_hash,
        }
        if outcome.profile is not None:
            response["profile"] = outcome.profile.to_dict()
        return response, buffers

    @staticmethod
    def _error_response(error: Exception, trace_id: str = "") -> dict:
        response = {
            "ok": False,
            "error": type(error).__name__,
            "message": str(error),
        }
        if isinstance(error, AdmissionRejected):
            response["retry_after"] = error.retry_after
        trace_id = getattr(error, "trace_id", "") or trace_id
        if trace_id:
            response["trace_id"] = trace_id
        return response

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: no new connections, cancel in-flight queries,
        join connection threads (bounded by ``timeout``)."""
        self._stopping.set()
        if self._socket is not None:
            # Closing a listening socket does not wake a thread blocked in
            # accept() on Linux; shutting it down does.
            try:
                self._socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._socket.close()
            except OSError:
                pass
        self._service.shutdown(cancel_active=True)
        with self._lock:
            connections = list(self._connections.values())
            threads = list(self._threads)
        deadline = time.monotonic() + max(timeout, 0.1)
        # Short grace so in-flight responses (including the cancellation
        # errors we just triggered) flush before sockets are forced shut.
        grace_deadline = time.monotonic() + min(1.0, max(timeout, 0.1) / 2)
        for thread in threads:
            remaining = grace_deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        # Force-close: unblocks connection threads parked in a read.
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.05))
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "QueryServer":
        return self.start() if self._socket is None else self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _plain(settings: dict) -> dict:
    """Session settings with enum values flattened for JSON."""
    return {
        name: int(value) if hasattr(value, "value") else value
        for name, value in settings.items()
    }


#: per-process cache of synthesised error classes for wire error names
#: the local :mod:`repro.errors` doesn't define (one class per name, so
#: repeated failures raise the *same* type and ``except`` works).
_WIRE_ERROR_CLASSES: dict[str, type] = {}
_WIRE_ERROR_LOCK = threading.Lock()


def _wire_error_class(name: str) -> type:
    """A :class:`ServiceError` subclass named after an unknown wire
    error class, preserving the server's typing across the protocol."""
    safe = name if name.isidentifier() else "WireError"
    with _WIRE_ERROR_LOCK:
        error_class = _WIRE_ERROR_CLASSES.get(safe)
        if error_class is None:
            error_class = type(safe, (ServiceError,), {"wire_error": name})
            _WIRE_ERROR_CLASSES[safe] = error_class
    return error_class


def _rows(body: bytes, dtypes, nbytes: list[int]) -> list[list]:
    """A result's column buffers as a list of row lists, each value the
    Python scalar ``.item()`` would give.

    :raises ServiceError: a dtype outside :data:`WIRE_KINDS`, a buffer
        that is not whole items, or columns of unequal length.
    """
    if not isinstance(dtypes, list) or len(dtypes) != len(nbytes):
        raise ServiceError(f"{dtypes!r} does not name {len(nbytes)} column dtypes")
    columns = []
    offset = 0
    for name, size in zip(dtypes, nbytes):
        try:
            dtype = np.dtype(name) if isinstance(name, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in WIRE_KINDS:
            raise ServiceError(f"column dtype {name!r} cannot cross the wire")
        if size % dtype.itemsize:
            raise ServiceError(f"{size} bytes are not whole {name!r} items")
        columns.append(
            np.frombuffer(body, dtype, size // dtype.itemsize, offset)
        )
        offset += size
    if len({len(column) for column in columns}) > 1:
        raise ServiceError(
            f"columns of unequal length {[len(c) for c in columns]}"
        )
    if not columns:
        return []
    # Row lists hold only scalars, so they form no cycle for the
    # collector to find. Built with it running, 19 000 of them set off
    # dozens of young collections and now and then a full one over the
    # whole heap, a stall of ~15 ms. So it pauses (process-wide) while
    # they are built; a collector that was already off stays off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if len(set(dtypes)) == 1:
            return np.stack(columns, axis=1).tolist()
        return list(map(list, zip(*(column.tolist() for column in columns))))
    finally:
        if enabled:
            gc.enable()


class ServiceClient:
    """A small blocking client for :class:`QueryServer`'s protocol.

    Thread-safe for sequential use (one in-flight request at a time); to
    cancel a running query, open a *second* client and send ``cancel``
    with the query's ``id``.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._frames = self._socket.makefile("rb")
        self._lock = threading.Lock()

    def request(self, payload: dict) -> dict:
        """Send one request object, return the response object — a query
        result's column buffers rebuilt as ``rows``, a list of row lists.

        :raises ServiceError: the connection closed, or a result frame
            is malformed (short, or a buffer no column can be).
        """
        frame = _frame(payload)
        with self._lock:
            self._socket.sendall(frame)
            line = self._frames.readline()
            if not line:
                raise ServiceError("server closed the connection")
            response = json.loads(line)
            nbytes = response.get("nbytes")
            if nbytes is None:
                return response
            if not (
                isinstance(nbytes, list)
                and all(type(n) is int and n >= 0 for n in nbytes)
            ):
                raise ServiceError(f"malformed column byte lengths {nbytes!r}")
            body = self._frames.read(sum(nbytes))
        if len(body) < sum(nbytes):
            raise ServiceError(
                f"server closed the connection {len(body)} bytes into a "
                f"{sum(nbytes)}-byte result"
            )
        response["rows"] = _rows(body, response.get("dtypes"), nbytes)
        return response

    def query(self, sql: str, **options) -> dict:
        """Run SQL; raises the typed error named by a failure response.

        A ``trace_id`` is minted client-side unless one is passed, so
        the caller can correlate this request across the server's
        spans, metric exemplars, query-log rows, and profiles — on
        failure the raised error carries it as ``error.trace_id``.
        """
        payload = {"op": "query", "sql": sql}
        payload.update({k: v for k, v in options.items() if v is not None})
        payload.setdefault("trace_id", new_trace_id())
        return self._raise_on_error(self.request(payload))

    def set(self, name: str, value) -> dict:
        return self._raise_on_error(
            self.request({"op": "set", "name": name, "value": value})
        )

    def stats(self) -> dict:
        return self._raise_on_error(self.request({"op": "stats"}))

    def metrics(self) -> dict:
        """The server's metrics snapshot + instrument kinds — the scrape
        behind ``python -m repro.obs.exposition --port ...``."""
        return self._raise_on_error(self.request({"op": "metrics"}))

    def health(self) -> dict:
        """The service's health report (admission state, inflight count,
        plan-cache hit rate, SLO posture, uptime)."""
        return self._raise_on_error(
            self.request({"op": "health"})
        ).get("health", {})

    def why(
        self,
        sql: str | None = None,
        fingerprint: str | None = None,
        **options,
    ) -> dict:
        """``EXPLAIN WHY`` over the wire: the server re-optimises the
        query with a decision trace attached and returns the structured
        report (``why``) plus its text form (``rendered``). Name the
        query by SQL or by a spec ``fingerprint`` the service has seen
        (e.g. from a sentinel alert)."""
        payload: dict = {"op": "why"}
        if sql is not None:
            payload["sql"] = sql
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        payload.update({k: v for k, v in options.items() if v is not None})
        return self._raise_on_error(self.request(payload))

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def cancel(self, query_id: str) -> bool:
        response = self._raise_on_error(
            self.request({"op": "cancel", "id": query_id})
        )
        return bool(response.get("cancelled"))

    @staticmethod
    def _raise_on_error(response: dict) -> dict:
        if response.get("ok"):
            return response
        import repro.errors as errors_module

        name = str(response.get("error") or "ServiceError")
        error_class = getattr(errors_module, name, None)
        if not (
            isinstance(error_class, type)
            and issubclass(error_class, ReproError)
        ):
            # Keep the server's class name even when this client's
            # errors module doesn't know it, instead of flattening
            # everything to ServiceError.
            error_class = _wire_error_class(name)
        if issubclass(error_class, errors_module.AdmissionRejected):
            error = error_class(
                response.get("message", "rejected"),
                retry_after=float(response.get("retry_after", 0.0)),
            )
        else:
            error = error_class(response.get("message", "request failed"))
        error.trace_id = str(response.get("trace_id") or "")
        raise error

    def close(self) -> None:
        """Say goodbye and close the socket (idempotent)."""
        try:
            with self._lock:
                self._socket.sendall(_frame({"op": "close"}))
                self._frames.readline()
        except (OSError, ValueError):
            pass
        finally:
            self._frames.close()
            try:
                self._socket.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
