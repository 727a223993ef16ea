"""Plan execution entry points.

Besides running plans, this module is the engine's observability
surface: :func:`execute` reports into the process-wide metrics/tracer
handles (no-ops unless :func:`repro.obs.enable_observability` was
called), and :func:`explain_analyze` runs a plan under per-operator
instrumentation and renders the tree annotated with actuals — the
runtime counterpart of :func:`explain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._util.timer import Timer
from repro.engine.operators.base import PhysicalOperator
from repro.obs.feedback import FeedbackStore
from repro.obs.instrument import OperatorStats, format_bytes, instrumented
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.profile import QueryProfile
from repro.obs.querylog import get_query_log, log_facts
from repro.obs.runtime import get_metrics, get_tracer
from repro.service.context import (
    QueryContext,
    activate_context,
    get_active_context,
)
from repro.settings import get_settings, scoped_settings
from repro.storage.table import Table

#: q-error histogram bucket upper bounds — 1.0 is a perfect estimate,
#: each bucket roughly doubles the misestimation factor.
QERROR_BUCKETS = (1.1, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)

#: memory histogram bucket upper bounds, in bytes (4KiB .. 4GiB).
MEMORY_BUCKETS = (
    4096.0,
    65536.0,
    1048576.0,
    16777216.0,
    268435456.0,
    4294967296.0,
)


def execute(
    root: PhysicalOperator,
    workers: int | None = None,
    context: QueryContext | None = None,
) -> Table:
    """Run a physical operator tree to completion and return the result.

    :param workers: run the plan under a thread-scoped worker count —
        the morsel-parallel pipeline driver. ``None`` keeps the
        :func:`repro.settings.get_settings` value (``REPRO_WORKERS``);
        ``1`` forces serial execution.
    :param context: run the plan governed by a
        :class:`~repro.service.context.QueryContext` — operators and the
        morsel scheduler poll its deadline/cancellation token at
        chunk/morsel granularity and charge working sets against its
        memory budget. ``None`` (the default) keeps whatever context is
        already active on the calling thread, if any.
    :raises repro.errors.DeadlineExceeded: governed deadline passed.
    :raises repro.errors.QueryCancelled: governed token triggered.
    :raises repro.errors.MemoryBudgetExceeded: governed budget exceeded.
    """
    if context is not None:
        with activate_context(context):
            return execute(root, workers=workers)
    if workers is not None:
        with scoped_settings(workers=workers):
            return execute(root)
    metrics = get_metrics()
    tracer = get_tracer()
    query_log = get_query_log()
    if not (metrics.enabled or tracer.enabled or query_log is not None):
        return root.to_table()
    io_before = _tree_io_counters(root)
    with tracer.span("engine.execute", root=root.name):
        with Timer() as timer:
            result = root.to_table()
    if metrics.enabled:
        metrics.counter("engine.executions", exist_ok=True).inc()
        metrics.counter("engine.rows_out", exist_ok=True).inc(result.num_rows)
        metrics.histogram(
            "engine.execute_seconds", DEFAULT_BUCKETS, exist_ok=True
        ).observe(timer.elapsed)
    if query_log is not None:
        settings = get_settings()
        entry = {
            "root": root.name,
            "plan": root.explain(),
            "rows_out": result.num_rows,
            "wall_seconds": timer.elapsed,
            "backend": settings.backend,
            "workers": settings.workers,
        }
        if root.estimated_rows is not None:
            entry["estimated_rows"] = root.estimated_rows
            entry["estimated_cost"] = root.estimated_cost
        if root.plan_fingerprint:
            entry["plan_hash"] = root.plan_fingerprint
        # Out-of-core facts, as a delta over this run (operator I/O
        # counters accumulate until the next instrumented reset).
        read, skipped, cold = (
            after - before
            for after, before in zip(_tree_io_counters(root), io_before)
        )
        if read or skipped:
            entry["segments_read"] = read
            entry["segments_skipped"] = skipped
            entry["bytes_read"] = cold
        log_facts("execute", entry)
    return result


def _tree_io_counters(root: PhysicalOperator) -> tuple[int, int, int]:
    """Summed (segments_read, segments_skipped, bytes_read) over the
    tree, each shared node counted once."""
    seen: set[int] = set()
    read = skipped = cold = 0
    for operator in _walk_operators(root):
        if id(operator) in seen:
            continue
        seen.add(id(operator))
        r, s, b = operator.io_counters()
        read += r
        skipped += s
        cold += b
    return (read, skipped, cold)


def _walk_operators(root: PhysicalOperator):
    yield root
    for child in root.children:
        yield from _walk_operators(child)


def execute_timed(
    root: PhysicalOperator, workers: int | None = None
) -> tuple[Table, float]:
    """Run a plan and also return its wall-clock execution time in seconds."""
    with Timer() as timer:
        result = execute(root, workers=workers)
    return result, timer.elapsed


def explain(root: PhysicalOperator) -> str:
    """Render a plan tree as indented text."""
    return root.explain()


@dataclass
class AnalyzedPlan:
    """Result of :func:`explain_analyze`: the output table plus the
    measured per-operator stats tree."""

    #: the query result (the plan really ran).
    table: Table
    #: per-operator actuals, mirroring the plan tree.
    root: OperatorStats
    #: end-to-end wall seconds, including the driver loop.
    wall_seconds: float
    #: this run as the record the query log stores and a served query
    #: returns (set by :func:`explain_analyze`).
    profile: QueryProfile | None = None

    def render(self) -> str:
        """The plan tree annotated with measured actuals (and, for
        optimised plans, estimates + per-operator q-error)."""
        lines = [
            self.root.render(),
            f"Execution time: {self.wall_seconds * 1e3:.3f}ms "
            f"({self.table.num_rows:,} row(s) out)",
            "Peak operator memory: "
            f"{format_bytes(self.peak_memory_bytes)} "
            "(sum of per-node peaks)",
        ]
        worst = self.max_qerror
        if worst is not None:
            lines.append(f"Worst cardinality q-error: {worst:.2f}")
        read, skipped, cold = self.io_totals
        if read or skipped:
            lines.append(
                f"Storage I/O: {read} segment(s) read, "
                f"{skipped} skipped via zone maps, "
                f"{format_bytes(cold)} cold from disk"
            )
        return "\n".join(lines)

    @property
    def io_totals(self) -> tuple[int, int, int]:
        """Summed ``(segments_read, segments_skipped, bytes_read)`` over
        every operator (all zero for fully in-memory plans)."""
        seen: set[int] = set()
        read = skipped = cold = 0
        for node in self.root.walk():
            if id(node) in seen:
                continue
            seen.add(id(node))
            read += node.segments_read
            skipped += node.segments_skipped
            cold += node.bytes_read
        return (read, skipped, cold)

    @property
    def peak_memory_bytes(self) -> int:
        """Sum of every operator's peak working-set bytes (each node
        counted once even when shared across a diamond plan)."""
        seen: set[int] = set()
        total = 0
        for node in self.root.walk():
            if id(node) in seen:
                continue
            seen.add(id(node))
            total += node.peak_memory_bytes
        return total

    @property
    def max_qerror(self) -> float | None:
        """The worst per-operator cardinality q-error, or None when no
        operator carries an estimate."""
        errors = [
            node.qerror
            for node in self.root.walk()
            if node.qerror is not None
        ]
        return max(errors) if errors else None

    def qerrors(self) -> list[tuple[str, float]]:
        """(operator kind, q-error) for every estimate-carrying node,
        in plan pre-order."""
        return [
            (node.operator_kind, node.qerror)
            for node in self.root.walk()
            if node.qerror is not None
        ]

    def __str__(self) -> str:
        return self.render()


def explain_analyze(
    root: PhysicalOperator,
    feedback: FeedbackStore | None = None,
    workers: int | None = None,
    context: QueryContext | None = None,
) -> AnalyzedPlan:
    """EXPLAIN ANALYZE: run ``root`` instrumented and report actuals.

    Every operator's rows in/out, chunks produced, and self vs.
    cumulative wall time are measured while the plan executes for
    real; the instrumentation hooks are removed afterwards, so the
    plan can be re-run at full speed.

    For plans lowered from an optimised plan tree
    (:func:`repro.core.plan.to_operator`), each operator's estimated
    cardinality is joined against the measured actuals: the rendering
    gains ``est ... rows · act ... · q=...`` annotations, per-operator
    q-errors feed the process-wide ``optimizer.qerror`` histogram when
    metrics are enabled, and — when a :class:`~repro.obs.feedback.
    FeedbackStore` is passed — (estimate, actual, seconds) samples are
    accumulated for cost-model refitting.

    With a multi-worker configuration (ambient ``REPRO_WORKERS`` or the
    ``workers`` override) the rendering annotates each morsel-parallel
    node with its parallelism degree and summed worker busy time.

    Like :func:`execute`, an optional ``context`` governs the run with a
    deadline / cancellation token / memory budget.
    """
    if context is not None:
        with activate_context(context):
            return explain_analyze(root, feedback=feedback, workers=workers)
    if workers is not None:
        with scoped_settings(workers=workers):
            return explain_analyze(root, feedback=feedback)
    with get_tracer().span("engine.execute", root=root.name):
        with instrumented(root) as stats, Timer() as timer:
            table = root.to_table()
    analyzed = AnalyzedPlan(table=table, root=stats, wall_seconds=timer.elapsed)
    metrics = get_metrics()
    if metrics.enabled:
        histogram = metrics.histogram(
            "optimizer.qerror", QERROR_BUCKETS, exist_ok=True
        )
        for __, error in analyzed.qerrors():
            if math.isfinite(error):
                histogram.observe(error)
            else:
                metrics.counter(
                    "optimizer.qerror_unbounded", exist_ok=True
                ).inc()
        per_operator = metrics.histogram(
            "operator.bytes", MEMORY_BUCKETS, exist_ok=True
        )
        seen: set[int] = set()
        for node in stats.walk():
            if id(node) in seen:
                continue
            seen.add(id(node))
            per_operator.observe(node.peak_memory_bytes)
        metrics.histogram(
            "query.peak_bytes", MEMORY_BUCKETS, exist_ok=True
        ).observe(analyzed.peak_memory_bytes)
    if feedback is not None:
        feedback.record_plan(stats)
    active = get_active_context()
    analyzed.profile = QueryProfile.from_analyzed(
        analyzed,
        trace_id=active.trace_id if active is not None else "",
        plan_hash=root.plan_fingerprint,
    )
    log_facts("profile", analyzed.profile)
    return analyzed
