"""Observability: metrics, span tracing, and operator instrumentation.

Three independent layers, each zero-cost unless switched on:

- :class:`MetricsRegistry` — thread-safe counters / gauges / fixed-bucket
  histograms with snapshot, reset, and text/JSON rendering.
- :class:`Tracer` — nested spans exported as JSON or Chrome trace events.
- :func:`instrumented` — per-operator rows/chunks/time actuals, the
  machinery behind :func:`repro.engine.executor.explain_analyze`.

The engine and optimiser report into the process-wide handles from
:mod:`repro.obs.runtime`; call :func:`enable_observability` to start
collecting.

Service telemetry rides on top: :class:`SLOTracker` tracks sliding-
window latency objectives, :func:`render_prometheus` /
:func:`parse_prometheus` expose and validate metrics snapshots in the
Prometheus text format (``python -m repro.obs.exposition``), and
``python -m repro.obs.top`` is a live dashboard over a running
:class:`~repro.service.server.QueryServer`.
"""

from repro.obs.exposition import (
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.feedback import FeedbackSample, FeedbackStore
from repro.obs.instrument import OperatorStats, format_bytes, instrumented
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    QueryProfile,
    capture_profile,
)
from repro.obs.querylog import (
    QueryLog,
    get_query_log,
    set_query_log,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.sentinel import (
    BASELINE_SCHEMA_VERSION,
    BaselineStore,
    Sentinel,
    SentinelAlert,
    SentinelConfig,
    SentinelThread,
)
from repro.obs.search import (
    SearchTrace,
    get_search_trace,
    load_trace,
    replay,
    set_search_trace,
    trace_search,
)
from repro.obs.slo import DEFAULT_OBJECTIVES, SLObjective, SLOTracker
from repro.obs.runtime import (
    capture_observability,
    disable_observability,
    enable_observability,
    get_metrics,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_OBJECTIVES",
    "FeedbackSample",
    "FeedbackStore",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorStats",
    "BASELINE_SCHEMA_VERSION",
    "BaselineStore",
    "PROFILE_SCHEMA_VERSION",
    "QueryLog",
    "QueryProfile",
    "SLObjective",
    "SLOTracker",
    "SearchTrace",
    "Sentinel",
    "SentinelAlert",
    "SentinelConfig",
    "SentinelThread",
    "Span",
    "Tracer",
    "capture_observability",
    "capture_profile",
    "disable_observability",
    "enable_observability",
    "explain_why",
    "format_bytes",
    "get_metrics",
    "get_query_log",
    "get_search_trace",
    "get_tracer",
    "instrumented",
    "load_trace",
    "merge_snapshots",
    "parse_prometheus",
    "render_prometheus",
    "replay",
    "sanitize_metric_name",
    "sensitivity_frontier",
    "set_metrics",
    "set_query_log",
    "set_search_trace",
    "set_tracer",
    "trace_search",
    "whatif",
]


def __getattr__(name: str):
    # The explain / what-if layers import the optimiser; resolve them
    # lazily so `import repro.obs` stays light (and cycle-free from
    # inside the optimiser itself).
    if name in ("explain_why", "whatif", "sensitivity_frontier"):
        import repro.obs.search as search

        value = getattr(search, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
