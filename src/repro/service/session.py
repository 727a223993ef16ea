"""The query service and its sessions: SQL end-to-end under governance.

:class:`QueryService` is the in-process serving core: it takes SQL text
through ``repro.sql`` (parse + plan), the unified optimiser with a
shared :class:`~repro.core.optimizer.plancache.PlanCache`, and
morsel-parallel execution — every stage governed by one
:class:`~repro.service.context.QueryContext` (deadline, cancellation,
memory budget) and gated by the :class:`~repro.service.admission.
AdmissionController`.

Under pressure the service degrades gracefully instead of falling over:
a query admitted degraded (deep queue) runs **serial** (workers=1) with
a **shallow** SQO-depth search — each query is slower, but the system
keeps its throughput and its tail latency bounded.

:class:`Session` is the client-facing handle: scoped settings (deadline,
priority, workers, memory budget) that apply to that session's queries
only, plus per-session statistics. Sessions are cheap; make one per
logical client. The TCP front-end (:mod:`repro.service.server`) maps
each connection to one session.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.core.optimizer.base import (
    OptimizationResult,
    dqo_config,
    sqo_config,
)
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.core.plan import to_operator
from repro.engine.executor import execute, explain_analyze
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    QueryCancelled,
    ReproError,
    ServiceError,
)
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.profile import QueryProfile
from repro.obs.querylog import QueryLog, get_query_log, query_row
from repro.obs.sentinel import (
    CRITICAL_TTL_SECONDS,
    BaselineStore,
    Sentinel,
    SentinelAlert,
    SentinelConfig,
    SentinelThread,
)
from repro.obs.runtime import get_metrics, get_tracer
from repro.obs.slo import SLOTracker
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    Priority,
)
from repro.service.context import (
    CancellationToken,
    QueryContext,
    activate_context,
)
from repro.settings import ambient, check
from repro.sql import plan_query
from repro.storage.catalog import Catalog
from repro.storage.table import Table

_SESSION_IDS = itertools.count(1)

#: the per-request stage taxonomy, in lifecycle order. ``queue`` is the
#: admission wait, ``parse`` covers SQL → logical plan, ``plan_cache``
#: is the optimiser call when it resolved from the cache, ``optimize``
#: when it enumerated, ``execute`` the physical run, and ``serialize``
#: (stamped by the TCP server) the wire encoding of the result.
STAGES = ("queue", "parse", "plan_cache", "optimize", "execute", "serialize")

#: distinct query texts whose cumulative execute time the service tracks
#: for the ``obs.top`` dashboard's "top queries" panel.
TOP_QUERIES_CAPACITY = 64

#: spec-fingerprint -> SQL entries the service remembers so ``why`` can
#: resolve a fingerprint seen in an alert or log row back to query text.
FINGERPRINT_INDEX_CAPACITY = 256


def observe_stage(
    metrics, stage: str, seconds: float, trace_id: str = ""
) -> None:
    """Record one stage duration into its tagged histogram
    (``service.stage_seconds.<stage>``), exemplared with ``trace_id``."""
    if metrics.enabled:
        metrics.histogram(
            f"service.stage_seconds.{stage}", DEFAULT_BUCKETS, exist_ok=True
        ).observe(seconds, trace_id=trace_id)


def _client_workers(value) -> int:
    """A client's worker count, held to the one settings rule; what it
    refuses is a :class:`ServiceError` (a request error, not a crash)."""
    try:
        return check("workers", value)
    except ConfigurationError as error:
        raise ServiceError(str(error)) from None


@dataclass(frozen=True)
class ServiceConfig:
    """The service's policy dials (admission policy rides along)."""

    #: admission policy (concurrency, queue bound, degradation point).
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: morsel workers per query; None resolves :func:`repro.settings.
    #: ambient` (``REPRO_WORKERS``) at query time.
    workers: int | None = None
    #: execution backend the optimiser plans for ("thread" / "process");
    #: None resolves :func:`repro.settings.ambient` (``REPRO_BACKEND``)
    #: at query time.
    backend: str | None = None
    #: optimise deep (DQO) by default; False = shallow (SQO).
    deep: bool = True
    #: plan-regression sentinel dials; None takes the defaults. The
    #: sentinel thread only starts when a query log is active (it has
    #: nothing to tail otherwise) — see :meth:`QueryService.
    #: attach_sentinel`.
    sentinel: SentinelConfig | None = None
    #: persist sentinel baselines here (None = in-memory only).
    sentinel_baseline_path: str | None = None
    #: advise the admission controller into degraded posture while a
    #: critical sentinel alert is fresh (containment; default off).
    sentinel_degrade_on_critical: bool = False


@dataclass
class QueryOutcome:
    """Everything the service knows about one completed query."""

    #: the context's query id (appears in logs, metrics, the protocol).
    query_id: str
    #: the request's correlation id (spans, exemplars, log rows, profile).
    trace_id: str
    #: the result rows.
    table: Table
    #: end-to-end wall seconds (admission wait included).
    wall_seconds: float
    #: seconds spent waiting in the admission queue.
    queued_seconds: float
    #: seconds spent in the optimiser (0.0 on a plan-cache hit path too).
    optimize_seconds: float
    #: seconds spent executing the physical plan.
    execute_seconds: float
    #: the optimiser's cost for the chosen plan.
    cost: float
    #: True when the plan came from the plan cache without enumeration.
    cached: bool
    #: True when the query ran degraded (serial + shallow search).
    degraded: bool
    #: the chosen physical plan, rendered.
    plan: str
    #: shape hash of the chosen plan (:func:`repro.core.plan.
    #: plan_fingerprint`) — "same query, different plan" observable.
    plan_hash: str = ""
    #: normalised query fingerprint the plan cache and the sentinel key
    #: baselines on.
    spec_fingerprint: str = ""
    #: catalog statistics version the plan was optimised against.
    catalog_version: int = 0
    #: per-stage wall seconds (see :data:`STAGES`; ``serialize`` is
    #: stamped later by the TCP server, absent for in-process callers).
    stage_seconds: dict = field(default_factory=dict)
    #: full per-operator profile when the query ran with ``profile=True``.
    profile: QueryProfile | None = None


class QueryService:
    """The in-process serving core; thread-safe, one per catalog.

    Each query gets a *fresh* optimiser instance — the DP rebinds
    per-call state and is not safe to share across threads — but all of
    them share one thread-safe :class:`PlanCache`, so concurrent
    sessions still reuse each other's plans.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: ServiceConfig | None = None,
        cost_model=None,
    ) -> None:
        self._catalog = catalog
        self._config = config or ServiceConfig()
        self._cost_model = cost_model
        self._admission = AdmissionController(self._config.admission)
        self._plan_cache = PlanCache()
        self._slo = SLOTracker()
        self._active: dict[str, QueryContext] = {}
        self._active_lock = threading.Lock()
        self._closed = False
        # Claim the process-backend pool/store for this service's
        # lifetime: with several services in one process, segments are
        # only unlinked when the last of them shuts down.
        from repro.engine.procpool import register_pool_user

        register_pool_user()
        self._pool_released = False
        self._started_at = time.monotonic()
        self._counts_lock = threading.Lock()
        self._counts = {
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
        }
        # sql -> [executions, cumulative execute seconds]; bounded.
        self._top_queries: dict[str, list] = {}
        # spec fingerprint -> sql text; bounded FIFO, feeds `why`.
        self._sql_by_fingerprint: dict[str, str] = {}
        self._sentinel = Sentinel(
            store=BaselineStore(
                self._config.sentinel_baseline_path,
                reservoir=(self._config.sentinel or SentinelConfig()).reservoir,
            ),
            config=self._config.sentinel or SentinelConfig(),
        )
        self._sentinel_thread: SentinelThread | None = None
        if self._sentinel.config.enabled:
            log = get_query_log()
            if log is not None:
                self.attach_sentinel(log)

    @property
    def admission(self) -> AdmissionController:
        """The service's admission controller (inspect or tune)."""
        return self._admission

    @property
    def plan_cache(self) -> PlanCache:
        """The shared plan cache."""
        return self._plan_cache

    @property
    def slo(self) -> SLOTracker:
        """The service's sliding-window SLO tracker."""
        return self._slo

    @property
    def sentinel(self) -> Sentinel:
        """The service's plan-regression sentinel."""
        return self._sentinel

    @property
    def sentinel_thread(self) -> "SentinelThread | None":
        """The live log tail feeding the sentinel, when attached."""
        return self._sentinel_thread

    def attach_sentinel(self, log: QueryLog) -> SentinelThread:
        """Start (or return) the sentinel thread tailing ``log``.

        Called automatically at construction when a query log is active;
        call it explicitly after installing a log later. Idempotent.
        """
        if self._sentinel_thread is not None:
            return self._sentinel_thread
        self._sentinel_thread = SentinelThread(
            log, self._sentinel, on_alerts=self._on_sentinel_alerts
        )
        self._sentinel_thread.start()
        return self._sentinel_thread

    def _on_sentinel_alerts(self, alerts: "list[SentinelAlert]") -> None:
        if not self._config.sentinel_degrade_on_critical:
            return
        if any(alert.severity == "critical" for alert in alerts):
            self._admission.advise_degraded(CRITICAL_TTL_SECONDS)

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    def uptime_seconds(self) -> float:
        """Seconds since the service was constructed."""
        return time.monotonic() - self._started_at

    def counts(self) -> dict:
        """Lifetime outcome counters (completed/failed/cancelled/rejected)."""
        with self._counts_lock:
            return dict(self._counts)

    def top_queries(self, limit: int = 10) -> list[dict]:
        """The heaviest query texts by cumulative execute seconds."""
        with self._counts_lock:
            ranked = sorted(
                self._top_queries.items(),
                key=lambda item: item[1][1],
                reverse=True,
            )[: max(int(limit), 0)]
        return [
            {
                "sql": sql,
                "executions": int(count),
                "total_execute_seconds": float(seconds),
            }
            for sql, (count, seconds) in ranked
        ]

    def _count(self, outcome: str) -> None:
        with self._counts_lock:
            self._counts[outcome] += 1

    def _note_fingerprint(self, fingerprint: str, sql: str) -> None:
        if not fingerprint:
            return
        with self._counts_lock:
            if (
                fingerprint not in self._sql_by_fingerprint
                and len(self._sql_by_fingerprint) >= FINGERPRINT_INDEX_CAPACITY
            ):
                oldest = next(iter(self._sql_by_fingerprint))
                del self._sql_by_fingerprint[oldest]
            self._sql_by_fingerprint[fingerprint] = sql

    def resolve_fingerprint(self, fingerprint: str) -> str | None:
        """The SQL text last seen for a spec fingerprint, if remembered."""
        with self._counts_lock:
            return self._sql_by_fingerprint.get(fingerprint)

    def _note_query(self, sql: str, execute_seconds: float) -> None:
        with self._counts_lock:
            entry = self._top_queries.get(sql)
            if entry is None:
                if len(self._top_queries) >= TOP_QUERIES_CAPACITY:
                    coldest = min(
                        self._top_queries, key=lambda s: self._top_queries[s][1]
                    )
                    del self._top_queries[coldest]
                entry = self._top_queries[sql] = [0, 0.0]
            entry[0] += 1
            entry[1] += float(execute_seconds)

    def health(self) -> dict:
        """A liveness/pressure report: admission state, inflight work,
        plan-cache effectiveness, SLO posture, uptime.

        ``state`` is ``accepting`` (normal), ``degraded`` (queue deep
        enough that new admissions run serial + shallow), ``shedding``
        (queue full, new queries are rejected), or ``stopped``.
        """
        cache_info = self._plan_cache.info()
        lookups = cache_info.get("hits", 0) + cache_info.get("misses", 0)
        return {
            "state": (
                "stopped" if self._closed else self._admission.state()
            ),
            "uptime_seconds": self.uptime_seconds(),
            "inflight": self._admission.running,
            "queue_depth": self._admission.queue_depth,
            "active_queries": self.active_queries(),
            "counts": self.counts(),
            "plan_cache": {
                **cache_info,
                "hit_rate": (
                    cache_info.get("hits", 0) / lookups if lookups else 0.0
                ),
            },
            "slo": self._slo.snapshot(),
            "sentinel": {
                **self._sentinel.snapshot(),
                "tailing": (
                    self._sentinel_thread is not None
                    and self._sentinel_thread.running
                ),
            },
        }

    def session(self, **settings) -> "Session":
        """A new client session; ``settings`` seed its scoped settings."""
        return Session(self, **settings)

    def cancel(self, query_id: str, reason: str = "client cancel") -> bool:
        """Cancel a running (or queued) query by id.

        :returns: True when the id named an active query.
        """
        with self._active_lock:
            context = self._active.get(query_id)
        if context is None:
            return False
        context.token.cancel(reason)
        return True

    def active_queries(self) -> list[str]:
        """Ids of queries currently queued or executing."""
        with self._active_lock:
            return sorted(self._active)

    def execute(
        self,
        sql: str,
        deadline: float | None = None,
        priority: Priority = Priority.NORMAL,
        token: CancellationToken | None = None,
        memory_budget_bytes: int | None = None,
        workers: int | None = None,
        queue_timeout: float | None = None,
        query_id: str | None = None,
        trace_id: str | None = None,
        profile: bool = False,
    ) -> QueryOutcome:
        """Run ``sql`` end-to-end under admission + context governance.

        :param deadline: relative seconds (None = none). Governs queue
            wait, optimisation, and execution together.
        :param priority: admission queue class.
        :param token: external cancellation latch (e.g. held by a server
            connection); a fresh one is created when None.
        :param memory_budget_bytes: cap on any single operator's working
            set (None = none).
        :param workers: morsel workers for this query; defaults to the
            service's setting, then :func:`repro.settings.ambient`.
            Forced to 1 when the query is admitted degraded.
        :param queue_timeout: max seconds to wait for admission (None =
            wait for the deadline, or forever).
        :param trace_id: client-minted correlation id; minted at this
            edge when None. Threads through every span, stage histogram
            exemplar, query-log row, and profile of this request — and
            rides on any raised error as ``error.trace_id``.
        :param profile: run instrumented (``explain_analyze``) and
            attach the resulting :class:`~repro.obs.profile.
            QueryProfile` to the outcome (slower; see the obs-overhead
            bench for the budget).
        :raises repro.errors.AdmissionRejected: shed at admission.
        :raises repro.errors.DeadlineExceeded: deadline passed (queued,
            optimising, or executing).
        :raises repro.errors.QueryCancelled: token triggered.
        :raises repro.errors.MemoryBudgetExceeded: budget exceeded.
        :raises repro.errors.ReproError: parse/plan/optimise/execution
            errors, each with its usual typed class. Any exception, typed
            or not, is recorded as a failure and re-raised unchanged.
        """
        if self._closed:
            raise ServiceError("query service is shut down")
        if workers is not None:
            workers = _client_workers(workers)
        context = QueryContext.start(
            deadline=deadline,
            token=token,
            memory_budget_bytes=memory_budget_bytes,
            query_id=query_id,
            trace_id=trace_id,
        )
        metrics = get_metrics()
        tracer = get_tracer()
        with self._active_lock:
            self._active[context.query_id] = context
        started = time.monotonic()
        status = "ok"
        outcome: QueryOutcome | None = None
        with activate_context(context), query_row(
            query_id=context.query_id,
            trace_id=context.trace_id,
            sql=sql,
            priority=int(priority),
        ) as row:
            try:
                with tracer.span("service.query", sql=sql):
                    slot = self._admission.admit(
                        priority=priority, timeout=queue_timeout, context=context
                    )
                    with slot:
                        outcome = self._run_admitted(
                            sql, context, slot, workers, tracer, profile
                        )
                outcome.wall_seconds = time.monotonic() - started
                self._count("completed")
                self._note_query(sql, outcome.execute_seconds)
                self._note_fingerprint(outcome.spec_fingerprint, sql)
                if metrics.enabled:
                    metrics.counter("service.completed", exist_ok=True).inc()
                    metrics.histogram(
                        "service.query_seconds", DEFAULT_BUCKETS, exist_ok=True
                    ).observe(outcome.wall_seconds, trace_id=context.trace_id)
                    for stage, seconds in outcome.stage_seconds.items():
                        observe_stage(metrics, stage, seconds, context.trace_id)
                return outcome
            except Exception as error:
                status = type(error).__name__
                if isinstance(error, ReproError):
                    error.trace_id = context.trace_id  # correlate failures too
                if isinstance(error, QueryCancelled):
                    self._count("cancelled")
                elif isinstance(error, AdmissionRejected):
                    self._count("rejected")
                else:
                    self._count("failed")
                if metrics.enabled:
                    if isinstance(error, QueryCancelled):
                        metrics.counter("service.cancelled", exist_ok=True).inc()
                    else:
                        metrics.counter("service.failed", exist_ok=True).inc()
                raise
            finally:
                wall_seconds = time.monotonic() - started
                self._slo.record(
                    priority, wall_seconds, ok=(status == "ok")
                )
                with self._active_lock:
                    self._active.pop(context.query_id, None)
                if row is not None:
                    row.update(status=status, wall_seconds=wall_seconds)
                    if outcome is not None:
                        row.update(
                            queued_seconds=outcome.queued_seconds,
                            optimize_seconds=outcome.optimize_seconds,
                            execute_seconds=outcome.execute_seconds,
                            stages=dict(outcome.stage_seconds),
                            rows_out=outcome.table.num_rows,
                            degraded=outcome.degraded,
                        )

    def _run_admitted(
        self,
        sql: str,
        context,
        slot,
        workers: int | None,
        tracer,
        profile: bool = False,
    ) -> QueryOutcome:
        degraded = slot.degraded
        if workers is None:
            workers = self._config.workers
        if degraded:
            workers = 1
        stage_seconds: dict = {"queue": slot.queued_seconds}
        query_profile: QueryProfile | None = None
        parse_started = time.monotonic()
        with tracer.span("service.parse"):
            logical = plan_query(sql, self._catalog)
        stage_seconds["parse"] = time.monotonic() - parse_started
        optimize_started = time.monotonic()
        with tracer.span("service.optimize"):
            result = self._optimize(logical, workers, degraded)
        optimize_seconds = time.monotonic() - optimize_started
        # A cache hit never enumerated: its cost is the lookup, a
        # distinct stage from a real optimisation.
        stage_seconds[
            "plan_cache" if result.cached else "optimize"
        ] = optimize_seconds
        operator = to_operator(result.plan, self._catalog, validate=False)
        execute_started = time.monotonic()
        with tracer.span("service.execute"):
            if profile:
                analyzed = explain_analyze(operator, workers=workers)
                table = analyzed.table
                # The query log's open row holds this same record and
                # serialises it when the query ends.
                query_profile = analyzed.profile
                query_profile.query = sql
                if result.search_trace:
                    query_profile.search = dict(result.search_trace)
            else:
                table = execute(operator, workers=workers)
        execute_seconds = time.monotonic() - execute_started
        stage_seconds["execute"] = execute_seconds
        return QueryOutcome(
            query_id=context.query_id,
            trace_id=context.trace_id,
            table=table,
            wall_seconds=0.0,  # stamped by the caller
            queued_seconds=slot.queued_seconds,
            optimize_seconds=optimize_seconds,
            execute_seconds=execute_seconds,
            cost=result.cost,
            cached=result.cached,
            degraded=degraded,
            plan=result.plan.explain(),
            plan_hash=result.plan_fingerprint,
            spec_fingerprint=result.spec_fingerprint,
            catalog_version=self._catalog.version,
            stage_seconds=stage_seconds,
            profile=query_profile,
        )

    def _optimize(
        self, logical, workers: int | None, degraded: bool
    ) -> OptimizationResult:
        deep = self._config.deep and not degraded
        backend = ambient(backend=self._config.backend).backend
        config = (
            dqo_config(workers=workers, backend=backend)
            if deep
            else sqo_config(workers=workers, backend=backend)
        )
        optimizer = DynamicProgrammingOptimizer(
            self._catalog,
            cost_model=self._cost_model,
            config=config,
            plan_cache=self._plan_cache,
        )
        return optimizer.optimize(logical)

    def why(
        self,
        sql: str | None = None,
        fingerprint: str | None = None,
        deep: bool | None = None,
        workers: int | None = None,
    ):
        """``EXPLAIN WHY`` for a query this service can optimise.

        Either ``sql`` or a ``fingerprint`` previously seen by this
        service (e.g. from a sentinel alert or query-log row) names the
        query. The search runs against a private trace and a private
        plan cache — the service's shared cache is not consulted, so the
        report always reflects a fresh enumeration.

        :param deep: explain under the deep (DQO) or shallow (SQO)
            search; defaults to the service's configured depth.
        :returns: a :class:`repro.obs.search.explain.WhyReport`.
        :raises ServiceError: neither argument given, or the fingerprint
            is not in the service's (bounded) index.
        """
        if sql is None:
            if not fingerprint:
                raise ServiceError("why needs sql or a spec fingerprint")
            sql = self.resolve_fingerprint(fingerprint)
            if sql is None:
                raise ServiceError(
                    f"fingerprint {fingerprint!r} not seen by this "
                    "service (index keeps the last "
                    f"{FINGERPRINT_INDEX_CAPACITY} fingerprints)"
                )
        # Imported here: the explain layer pulls in the optimiser's
        # explain/trace machinery, which plain query serving never needs.
        from repro.obs.search.explain import explain_why

        workers = self._config.workers if workers is None else _client_workers(workers)
        use_deep = self._config.deep if deep is None else bool(deep)
        backend = ambient(backend=self._config.backend).backend
        config = (
            dqo_config(workers=workers, backend=backend)
            if use_deep
            else sqo_config(workers=workers, backend=backend)
        )
        return explain_why(
            sql,
            self._catalog,
            config=config,
            cost_model=self._cost_model,
        )

    def shutdown(self, cancel_active: bool = True) -> None:
        """Stop taking queries; optionally cancel in-flight ones. The
        sentinel thread drains once more and its baselines persist."""
        self._closed = True
        if cancel_active:
            with self._active_lock:
                contexts = list(self._active.values())
            for context in contexts:
                context.token.cancel("service shutting down")
        self._admission.shutdown()
        if self._sentinel_thread is not None:
            self._sentinel_thread.stop()
            self._sentinel_thread = None
        try:
            self._sentinel.store.save()
        except OSError:  # persistence is best-effort at shutdown
            pass
        # Release this service's claim on the process-backend worker
        # pool; the pool and its shared-memory segments are reaped when
        # the last service using them stops (atexit sweeps regardless).
        from repro.engine.procpool import release_pool_user

        if not self._pool_released:
            self._pool_released = True
            release_pool_user()


class Session:
    """One client's handle on a :class:`QueryService`.

    Settings set here (``deadline``, ``priority``, ``workers``,
    ``memory_budget_bytes``, ``queue_timeout``) scope to this session
    only — two sessions on one service never observe each other's
    settings, including when their queries run concurrently (worker
    overrides are thread-scoped in the executor).
    """

    #: settings :meth:`set` accepts, with their coercions.
    _SETTINGS = {
        "deadline": float,
        "priority": lambda v: Priority(int(v)),
        "workers": _client_workers,
        "memory_budget_bytes": int,
        "queue_timeout": float,
        "profile": bool,
    }

    def __init__(self, service: QueryService, **settings) -> None:
        self._service = service
        self.session_id = f"s{next(_SESSION_IDS)}"
        self._settings: dict = {}
        self._lock = threading.Lock()
        self._stats = {
            "queries": 0,
            "rows_out": 0,
            "errors": 0,
            "cancelled": 0,
            "rejected": 0,
            "wall_seconds": 0.0,
        }
        for name, value in settings.items():
            self.set(name, value)

    @classmethod
    def coerce(cls, name: str, value):
        """``value`` as setting ``name`` takes it (None stays None).

        :raises ServiceError: for an unknown name or a value the
            setting cannot take.
        """
        if name not in cls._SETTINGS:
            raise ServiceError(
                f"unknown session setting {name!r}; "
                f"have {sorted(cls._SETTINGS)}"
            )
        try:
            return None if value is None else cls._SETTINGS[name](value)
        except (TypeError, ValueError):
            raise ServiceError(f"setting {name!r} cannot take {value!r}") from None

    def set(self, name: str, value) -> None:
        """Set a session-scoped setting (None clears it).

        :raises ServiceError: for an unknown name or a value the
            setting cannot take.
        """
        value = self.coerce(name, value)
        with self._lock:
            if value is None:
                self._settings.pop(name, None)
            else:
                self._settings[name] = value

    def get(self, name: str):
        """The session's value for a setting, or None."""
        with self._lock:
            return self._settings.get(name)

    def settings(self) -> dict:
        """A snapshot of the session's scoped settings."""
        with self._lock:
            return dict(self._settings)

    def stats(self) -> dict:
        """A snapshot of the session's counters."""
        with self._lock:
            return dict(self._stats)

    def execute(self, sql: str, **overrides) -> QueryOutcome:
        """Run ``sql`` with the session's settings (plus overrides).

        Overrides of a setting get :meth:`set`'s coercion first, so a
        value it refuses is a :class:`ServiceError` before the query runs.
        """
        options = self.settings()
        options.update(
            {
                k: self.coerce(k, v) if k in self._SETTINGS else v
                for k, v in overrides.items()
                if v is not None
            }
        )
        try:
            outcome = self._service.execute(sql, **options)
        except QueryCancelled:
            with self._lock:
                self._stats["queries"] += 1
                self._stats["cancelled"] += 1
            raise
        except AdmissionRejected:
            with self._lock:
                self._stats["queries"] += 1
                self._stats["rejected"] += 1
            raise
        except Exception:
            with self._lock:
                self._stats["queries"] += 1
                self._stats["errors"] += 1
            raise
        with self._lock:
            self._stats["queries"] += 1
            self._stats["rows_out"] += outcome.table.num_rows
            self._stats["wall_seconds"] += outcome.wall_seconds
        return outcome
