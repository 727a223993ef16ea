"""The plan-regression sentinel: baselines and drift alerts mined from
the query log.

Deep query optimisation buys its plan quality from statistics; when the
statistics move, the plans move — sometimes for the worse, and usually
silently. This module closes that loop. It watches the append-only
query log (:mod:`repro.obs.querylog`), maintains robust per-query
baselines keyed by the plan cache's ``spec_fingerprint``, and raises
structured :class:`SentinelAlert`\\ s when behaviour departs from them:

* **plan flips** — the optimiser chose a different plan shape
  (:func:`repro.core.plan.plan_fingerprint`) for a query it had
  already committed to, attributed to the catalog-statistics version
  that moved and scored by the estimated-cost delta;
* **latency drift** — a window of recent latencies for one query sits
  beyond ``median + k·MAD`` of its baseline (robust statistics, so a
  single outlier neither fires nor poisons the baseline);
* **q-error drift** — an operator kind's cardinality misestimation for
  one query grew well past its historical envelope, the early-warning
  sign that statistics are stale even before latency moves.

Baselines persist in a schema-versioned JSON store
(:class:`BaselineStore`) written atomically, so an offline replay
(``python -m repro.obs.querylog regress``) and a live
:class:`SentinelThread` inside the query service share one notion of
"normal". Detection runs *before* absorption each batch, and windows
that alerted are not absorbed — a regression cannot launder itself
into its own baseline.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.querylog import query_facts, walk_operator_nodes
from repro.obs.runtime import get_metrics

#: schema version stamped into (and required of) the baseline store.
BASELINE_SCHEMA_VERSION = 1

#: alert kinds, in rough order of diagnostic precedence.
ALERT_KINDS = ("plan_flip", "latency_drift", "qerror_drift")

#: alert severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

#: drift threshold: window median beyond baseline ``median + k·MAD``.
MAD_K = 4.0
#: ...and at least this ratio over the baseline median (guards the
#: near-zero-MAD case where any jitter clears ``k·MAD``).
MIN_LATENCY_RATIO = 1.5
#: latency ratio at which a drift alert escalates to ``critical``.
CRITICAL_LATENCY_RATIO = 3.0
#: q-error drift: window median at least this multiple of baseline.
MIN_QERROR_RATIO = 2.0
#: ...and at least this absolute q-error (2× of 1.1 is still fine).
QERROR_FLOOR = 4.0
#: plan flips escalate to ``critical`` when the new plan's estimated
#: cost exceeds the old by this ratio.
COST_REGRESSION_RATIO = 1.1
#: EWMA smoothing for the per-fingerprint latency trend.
EWMA_ALPHA = 0.2
#: retained alerts (ring buffer).
MAX_ALERTS = 256
#: TTL for :meth:`Sentinel.has_fresh_critical`.
CRITICAL_TTL_SECONDS = 60.0


@dataclass
class SentinelConfig:
    """Dials for the sentinel's detectors and bookkeeping."""

    #: master switch — a disabled sentinel observes nothing.
    enabled: bool = True
    #: recent-latency window per fingerprint compared against baseline.
    window: int = 64
    #: minimum window samples before a drift verdict is attempted.
    min_samples: int = 8
    #: baseline latency/q-error reservoir size per fingerprint.
    reservoir: int = 128


@dataclass
class SentinelAlert:
    """One structured regression verdict."""

    #: one of :data:`ALERT_KINDS`.
    kind: str
    #: one of :data:`SEVERITIES`.
    severity: str
    #: the query the alert is about (plan-cache spec fingerprint).
    spec_fingerprint: str
    #: human-oriented one-liner.
    message: str
    #: baseline plan shape (plan flips; empty otherwise).
    old_plan_hash: str = ""
    #: newly observed plan shape (plan flips; latest seen otherwise).
    new_plan_hash: str = ""
    #: operator kind (q-error drift; empty otherwise).
    operator_kind: str = ""
    #: observed value — window median latency/q-error, or new plan cost.
    observed: float = 0.0
    #: baseline value the observation is judged against.
    baseline: float = 0.0
    #: observed / baseline (inf when the baseline is zero).
    ratio: float = 0.0
    #: catalog statistics version the baseline plan was optimised under.
    old_catalog_version: int = 0
    #: catalog statistics version of the offending observation.
    new_catalog_version: int = 0
    #: estimated cost of the baseline plan (plan flips).
    old_cost: float = 0.0
    #: estimated cost of the new plan (plan flips).
    new_cost: float = 0.0
    #: up to three trace ids exemplifying the regression.
    trace_ids: list[str] = field(default_factory=list)
    #: structured "why it flipped" plan diff (plan flips, when both the
    #: committed and observed rows carried decision lists): the output of
    #: :func:`repro.core.plan.plan_diff` — ``{"identical": bool,
    #: "changed": [...], "added": [...], "removed": [...]}``. Empty
    #: otherwise.
    why: dict = field(default_factory=dict)
    #: unix seconds when the alert was raised.
    ts: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        """JSON-friendly rendering (stable keys, no Nones)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "spec_fingerprint": self.spec_fingerprint,
            "message": self.message,
            "old_plan_hash": self.old_plan_hash,
            "new_plan_hash": self.new_plan_hash,
            "operator_kind": self.operator_kind,
            "observed": self.observed,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "old_catalog_version": self.old_catalog_version,
            "new_catalog_version": self.new_catalog_version,
            "old_cost": self.old_cost,
            "new_cost": self.new_cost,
            "trace_ids": list(self.trace_ids),
            "why": dict(self.why),
            "ts": self.ts,
        }

    def render(self) -> str:
        """One display line: ``[severity] kind fp: message``."""
        return (
            f"[{self.severity}] {self.kind} "
            f"{self.spec_fingerprint[:12]}: {self.message}"
        )


# -- robust statistics -------------------------------------------------------


def robust_median(values: list[float]) -> float:
    """The median of a non-empty list (mean of the middle pair)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_mad(values: list[float], center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: the
    median) — the robust spread the drift detectors threshold on."""
    if not values:
        return 0.0
    if center is None:
        center = robust_median(values)
    return robust_median([abs(v - center) for v in values])


def _ratio(observed: float, baseline: float) -> float:
    if baseline <= 0.0:
        return math.inf if observed > 0.0 else 1.0
    return observed / baseline


# -- baseline store ----------------------------------------------------------


def _fresh_fingerprint_record() -> dict:
    return {
        "plans": {},
        "latency": {"samples": [], "ewma": None, "count": 0},
        "qerror": {},
    }


class BaselineStore:
    """Per-fingerprint baselines, optionally persisted as JSON.

    The store is a plain dict keyed by ``spec_fingerprint``; each record
    holds the committed plan per execution *mode* (deep/shallow ×
    worker count — a degraded serial plan is not a flip of the governed
    parallel one), a bounded latency reservoir (median + MAD + EWMA),
    and per-operator-kind q-error reservoirs. A ``plan_index`` maps
    plan hashes back to fingerprints so bare ``execute``/``profile``
    rows can be attributed.

    Persistence is crash- and concurrency-safe in the append-log
    spirit: :meth:`save` writes a temp file and ``os.replace``\\ s it
    into place, so readers never observe a torn store (concurrent
    writers are last-writer-wins, never corruption). A missing,
    malformed, or schema-mismatched file loads as empty.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        reservoir: int = SentinelConfig.reservoir,
    ) -> None:
        self._path = Path(path) if path is not None else None
        self._reservoir = max(int(reservoir), 4)
        self._lock = threading.Lock()
        self._fingerprints: dict[str, dict] = {}
        self._plan_index: dict[str, str] = {}
        if self._path is not None:
            self._load()

    @property
    def path(self) -> Path | None:
        """Where the store persists, or None for in-memory only."""
        return self._path

    def __len__(self) -> int:
        with self._lock:
            return len(self._fingerprints)

    def _load(self) -> None:
        assert self._path is not None
        try:
            raw = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return
        if (
            not isinstance(raw, dict)
            or raw.get("schema_version") != BASELINE_SCHEMA_VERSION
        ):
            return
        fingerprints = raw.get("fingerprints")
        plan_index = raw.get("plan_index")
        if isinstance(fingerprints, dict):
            self._fingerprints = fingerprints
        if isinstance(plan_index, dict):
            self._plan_index = plan_index

    def save(self) -> None:
        """Persist atomically (no-op for an in-memory store)."""
        if self._path is None:
            return
        with self._lock:
            payload = {
                "schema_version": BASELINE_SCHEMA_VERSION,
                "saved_ts": time.time(),
                "fingerprints": self._fingerprints,
                "plan_index": self._plan_index,
            }
            text = json.dumps(payload, sort_keys=True)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=str(self._path.parent), prefix=self._path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                tmp.write(text)
            os.replace(tmp_name, self._path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- record access (callers hold no lock; methods are atomic) ----------

    def record(self, spec_fp: str) -> dict:
        """The (created-on-demand) record for one fingerprint."""
        with self._lock:
            return self._fingerprints.setdefault(
                spec_fp, _fresh_fingerprint_record()
            )

    def peek(self, spec_fp: str) -> dict | None:
        """The record for one fingerprint, or None."""
        with self._lock:
            return self._fingerprints.get(spec_fp)

    def fingerprints(self) -> list[str]:
        """Every tracked fingerprint."""
        with self._lock:
            return list(self._fingerprints)

    def spec_for_plan(self, plan_hash: str) -> str | None:
        """The fingerprint a plan hash belongs to, if ever indexed."""
        with self._lock:
            return self._plan_index.get(plan_hash)

    def index_plan(self, plan_hash: str, spec_fp: str) -> None:
        """Remember that ``plan_hash`` realises ``spec_fp``."""
        if not plan_hash or not spec_fp:
            return
        with self._lock:
            self._plan_index[plan_hash] = spec_fp

    # -- baseline updates ---------------------------------------------------

    def commit_plan(self, spec_fp: str, mode: str, plan: dict) -> None:
        """Commit (or replace) the baseline plan for one mode."""
        record = self.record(spec_fp)
        with self._lock:
            record["plans"][mode] = dict(plan)

    def absorb_latency(self, spec_fp: str, samples: Iterable[float]) -> None:
        """Fold latency samples into the fingerprint's reservoir and its
        EWMA (weight :data:`EWMA_ALPHA` on each new sample)."""
        record = self.record(spec_fp)
        with self._lock:
            latency = record["latency"]
            for value in samples:
                latency["samples"].append(float(value))
                latency["count"] = int(latency.get("count", 0)) + 1
                previous = latency.get("ewma")
                latency["ewma"] = (
                    float(value)
                    if previous is None
                    else EWMA_ALPHA * float(value)
                    + (1.0 - EWMA_ALPHA) * float(previous)
                )
            del latency["samples"][: -self._reservoir]

    def absorb_qerrors(
        self, spec_fp: str, kind: str, samples: Iterable[float]
    ) -> None:
        """Fold operator q-error samples into their reservoir."""
        record = self.record(spec_fp)
        with self._lock:
            slot = record["qerror"].setdefault(
                kind, {"samples": [], "count": 0}
            )
            for value in samples:
                slot["samples"].append(float(value))
                slot["count"] = int(slot.get("count", 0)) + 1
            del slot["samples"][: -self._reservoir]

    def latency_baseline(self, spec_fp: str) -> tuple[float, float, int]:
        """(median, MAD, count) of the fingerprint's latency history."""
        with self._lock:
            record = self._fingerprints.get(spec_fp)
            if record is None:
                return 0.0, 0.0, 0
            samples = list(record["latency"]["samples"])
            count = int(record["latency"].get("count", 0))
        if not samples:
            return 0.0, 0.0, count
        median = robust_median(samples)
        return median, robust_mad(samples, median), count

    def qerror_baseline(
        self, spec_fp: str, kind: str
    ) -> tuple[float, int]:
        """(median q-error, count) for one operator kind."""
        with self._lock:
            record = self._fingerprints.get(spec_fp)
            if record is None:
                return 0.0, 0
            slot = record["qerror"].get(kind)
            if slot is None:
                return 0.0, 0
            samples = list(slot["samples"])
            count = int(slot.get("count", 0))
        if not samples:
            return 0.0, count
        return robust_median(samples), count

    def info(self) -> dict:
        """A JSON-friendly summary of the store's extent."""
        with self._lock:
            plans = sum(
                len(record["plans"])
                for record in self._fingerprints.values()
            )
            return {
                "schema_version": BASELINE_SCHEMA_VERSION,
                "path": str(self._path) if self._path else None,
                "fingerprints": len(self._fingerprints),
                "plans": plans,
                "indexed_plan_hashes": len(self._plan_index),
            }


# -- observation extraction --------------------------------------------------


def _plan_mode(entry: dict) -> str:
    """The execution mode a plan choice is committed under. Degraded
    (shallow/serial) plans get their own lane, so admission-control
    degradation never reads as a plan flip of the governed plan."""
    deep = bool(entry.get("deep", True))
    workers = int(entry.get("workers", 1) or 1)
    return f"{'deep' if deep else 'shallow'}/w{workers}"


@dataclass
class _Observations:
    """One batch of log rows, decomposed into detector inputs."""

    #: spec_fp → list of (mode, plan row) in arrival order.
    plans: dict[str, list[tuple[str, dict]]] = field(default_factory=dict)
    #: spec_fp → latency seconds samples.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: spec_fp → trace-id exemplars (latency rows).
    traces: dict[str, list[str]] = field(default_factory=dict)
    #: spec_fp → operator kind → q-error samples.
    qerrors: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: spec_fp → last seen plan hash (for alert context).
    last_plan: dict[str, str] = field(default_factory=dict)
    #: rows considered at all (for the evaluations metric).
    considered: int = 0


def _extract(entries: list[dict], store: BaselineStore) -> _Observations:
    """Decompose a batch of query-log rows into detector inputs.

    A row's ``optimize`` facts (:func:`~repro.obs.querylog.query_facts`)
    carry the full identity (plan hash + spec fingerprint + catalog
    version) and feed the plan-flip detector. A served query's
    ``service`` row is one latency sample (its ``execute_seconds``), a
    standalone ``execute`` row is one too, and ``profile`` facts give
    q-errors; a row without ``optimize`` facts is attributed through the
    store's plan index.
    """
    obs = _Observations()
    for entry in entries:
        facts = query_facts(entry)
        optimize = facts.get("optimize", {})
        plan_hash = str(entry.get("plan_hash") or optimize.get("plan_hash") or "")
        spec_fp = str(
            entry.get("spec_fingerprint")
            or optimize.get("spec_fingerprint")
            or store.spec_for_plan(plan_hash)
            or ""
        )
        if not spec_fp:
            continue
        obs.considered += 1
        trace_id = str(entry.get("trace_id", "") or "")
        if plan_hash:
            store.index_plan(plan_hash, spec_fp)
            obs.last_plan[spec_fp] = plan_hash
        if optimize.get("plan_hash"):
            sighting = dict(optimize, ts=entry.get("ts", 0.0), trace_id=trace_id)
            obs.plans.setdefault(spec_fp, []).append(
                (_plan_mode(optimize), sighting)
            )
        if entry.get("status") not in (None, "ok"):
            continue
        if entry.get("kind") == "service":
            seconds = entry.get("execute_seconds")
        else:
            seconds = facts.get("execute", {}).get("wall_seconds")
        if seconds is not None:
            obs.latencies.setdefault(spec_fp, []).append(float(seconds))
            exemplars = obs.traces.setdefault(spec_fp, [])
            if trace_id and trace_id not in exemplars:
                exemplars.append(trace_id)
        operators = facts.get("profile", {}).get("operators")
        if not isinstance(operators, dict):
            continue
        for node in walk_operator_nodes(operators):
            estimated = node.get("estimated_rows")
            if estimated is None:
                continue
            actual = max(int(node.get("rows_out", 0)), 1)
            est = max(float(estimated), 1.0)
            qerror = max(est / actual, actual / est)
            if not math.isfinite(qerror):
                continue
            op_kind = str(
                node.get("operator_kind") or node.get("plan_op") or "?"
            )
            obs.qerrors.setdefault(spec_fp, {}).setdefault(
                op_kind, []
            ).append(qerror)
    return obs


# -- the sentinel ------------------------------------------------------------


class Sentinel:
    """Detects plan flips and drift across batches of query-log rows.

    Feed it rows via :meth:`observe` (a live tail) or
    :meth:`evaluate_log` (offline replay); both return the alerts the
    batch raised. Detection happens against the *pre-batch* baselines,
    then the batch is absorbed — except that a fingerprint whose window
    alerted keeps its old baseline, so a regression must be acknowledged
    (or age out via new deployments of the store) rather than silently
    becoming the new normal.
    """

    def __init__(
        self,
        store: BaselineStore | None = None,
        config: SentinelConfig | None = None,
    ) -> None:
        self._store = store if store is not None else BaselineStore()
        self._config = config if config is not None else SentinelConfig()
        self._lock = threading.Lock()
        self._alerts: deque[SentinelAlert] = deque(maxlen=MAX_ALERTS)
        self._windows: dict[str, deque[float]] = {}
        self._counts: dict[str, int] = {kind: 0 for kind in ALERT_KINDS}
        self._evaluated = 0
        self._last_critical_ts = 0.0

    @property
    def store(self) -> BaselineStore:
        """The baseline store backing detection."""
        return self._store

    @property
    def config(self) -> SentinelConfig:
        """The active configuration."""
        return self._config

    # -- alert surface -------------------------------------------------------

    def alerts(self, limit: int | None = None) -> list[SentinelAlert]:
        """Recent alerts, newest last (bounded ring)."""
        with self._lock:
            items = list(self._alerts)
        return items if limit is None else items[-max(int(limit), 0) :]

    def counts(self) -> dict:
        """Cumulative alert counts by kind, plus rows evaluated."""
        with self._lock:
            payload = dict(self._counts)
            payload["total"] = sum(self._counts.values())
            payload["evaluated"] = self._evaluated
        return payload

    def has_fresh_critical(self, now: float | None = None) -> bool:
        """True while a ``critical`` alert is younger than the TTL."""
        with self._lock:
            last = self._last_critical_ts
        if not last:
            return False
        now = time.time() if now is None else now
        return (now - last) <= CRITICAL_TTL_SECONDS

    def snapshot(self) -> dict:
        """JSON-friendly state for ``health()``/dashboards."""
        payload = self.counts()
        payload["enabled"] = self._config.enabled
        payload["fingerprints"] = len(self._store)
        payload["fresh_critical"] = self.has_fresh_critical()
        payload["recent"] = [
            alert.to_dict() for alert in self.alerts(limit=8)
        ]
        return payload

    # -- detection -----------------------------------------------------------

    def observe(self, entries: list[dict]) -> list[SentinelAlert]:
        """Ingest a batch of query-log rows; returns new alerts."""
        if not self._config.enabled or not entries:
            return []
        config = self._config
        obs = _extract(entries, self._store)
        alerts: list[SentinelAlert] = []
        drifted_latency: set[str] = set()
        drifted_qerror: set[tuple[str, str]] = set()

        # 1. plan flips — judged against the committed plan per mode.
        for spec_fp, sightings in obs.plans.items():
            for mode, row in sightings:
                plan_hash = str(row["plan_hash"])
                record = self._store.peek(spec_fp)
                committed = (
                    record["plans"].get(mode) if record is not None else None
                )
                if committed is None or committed.get("plan_hash") == plan_hash:
                    self._commit_plan_row(spec_fp, mode, row)
                    continue
                alerts.append(
                    self._plan_flip_alert(spec_fp, committed, row, obs)
                )
                # The new plan becomes the committed one: a flip alerts
                # once, not once per repetition.
                self._commit_plan_row(spec_fp, mode, row)

        # 2. latency drift — sliding window vs. robust baseline.
        for spec_fp, samples in obs.latencies.items():
            window = self._windows.setdefault(
                spec_fp, deque(maxlen=max(int(config.window), 2))
            )
            window.extend(samples)
            baseline_median, baseline_mad, count = (
                self._store.latency_baseline(spec_fp)
            )
            if (
                len(window) < config.min_samples
                or count < config.min_samples
            ):
                continue
            observed = robust_median(list(window))
            threshold = baseline_median + MAD_K * baseline_mad
            ratio = _ratio(observed, baseline_median)
            if observed > threshold and ratio >= MIN_LATENCY_RATIO:
                drifted_latency.add(spec_fp)
                severity = (
                    "critical"
                    if ratio >= CRITICAL_LATENCY_RATIO
                    else "warning"
                )
                alerts.append(
                    SentinelAlert(
                        kind="latency_drift",
                        severity=severity,
                        spec_fingerprint=spec_fp,
                        new_plan_hash=obs.last_plan.get(spec_fp, ""),
                        observed=observed,
                        baseline=baseline_median,
                        ratio=ratio,
                        trace_ids=obs.traces.get(spec_fp, [])[:3],
                        message=(
                            f"latency p50 {observed * 1e3:.3f}ms vs "
                            f"baseline {baseline_median * 1e3:.3f}ms "
                            f"(x{ratio:.2f}, k·MAD "
                            f"{MAD_K:.1f}·{baseline_mad * 1e3:.3f}ms)"
                        ),
                    )
                )

        # 3. q-error drift per operator kind.
        for spec_fp, per_kind in obs.qerrors.items():
            for op_kind, samples in per_kind.items():
                if len(samples) < 1:
                    continue
                baseline, count = self._store.qerror_baseline(
                    spec_fp, op_kind
                )
                if count < config.min_samples:
                    continue
                observed = robust_median(samples)
                ratio = _ratio(observed, baseline)
                if (
                    observed >= QERROR_FLOOR
                    and ratio >= MIN_QERROR_RATIO
                ):
                    drifted_qerror.add((spec_fp, op_kind))
                    alerts.append(
                        SentinelAlert(
                            kind="qerror_drift",
                            severity="warning",
                            spec_fingerprint=spec_fp,
                            operator_kind=op_kind,
                            new_plan_hash=obs.last_plan.get(spec_fp, ""),
                            observed=observed,
                            baseline=baseline,
                            ratio=ratio,
                            trace_ids=obs.traces.get(spec_fp, [])[:3],
                            message=(
                                f"{op_kind} q-error p50 {observed:.2f} vs "
                                f"baseline {baseline:.2f} (x{ratio:.2f})"
                            ),
                        )
                    )

        # 4. absorb — but never a window that just alerted.
        for spec_fp, samples in obs.latencies.items():
            if spec_fp in drifted_latency:
                continue
            self._store.absorb_latency(spec_fp, samples)
        for spec_fp, per_kind in obs.qerrors.items():
            for op_kind, samples in per_kind.items():
                if (spec_fp, op_kind) in drifted_qerror:
                    continue
                self._store.absorb_qerrors(spec_fp, op_kind, samples)

        self._retain(alerts, evaluated=obs.considered)
        self._report_metrics(alerts)
        return alerts

    def evaluate_log(
        self, entries: list[dict], chunk: int = 32
    ) -> list[SentinelAlert]:
        """Offline replay: feed history through :meth:`observe` in
        arrival-ordered chunks (so baselines build *then* get judged,
        exactly as a live tail would) and return every alert raised."""
        alerts: list[SentinelAlert] = []
        chunk = max(int(chunk), 1)
        for start in range(0, len(entries), chunk):
            alerts.extend(self.observe(entries[start : start + chunk]))
        return alerts

    # -- internals -----------------------------------------------------------

    def _commit_plan_row(self, spec_fp: str, mode: str, row: dict) -> None:
        self._store.commit_plan(
            spec_fp,
            mode,
            {
                "plan_hash": str(row.get("plan_hash", "")),
                "catalog_version": int(row.get("catalog_version", 0) or 0),
                "cost": float(row.get("cost", 0.0) or 0.0),
                "ts": float(row.get("ts", 0.0) or 0.0),
                "decisions": list(row.get("decisions", []) or []),
            },
        )

    def _plan_flip_alert(
        self,
        spec_fp: str,
        committed: dict,
        row: dict,
        obs: _Observations,
    ) -> SentinelAlert:
        old_cost = float(committed.get("cost", 0.0) or 0.0)
        new_cost = float(row.get("cost", 0.0) or 0.0)
        cost_ratio = _ratio(new_cost, old_cost)
        if cost_ratio >= COST_REGRESSION_RATIO:
            severity = "critical"
        elif cost_ratio >= 1.0:
            severity = "warning"
        else:
            severity = "info"
        old_version = int(committed.get("catalog_version", 0) or 0)
        new_version = int(row.get("catalog_version", 0) or 0)
        trace_id = str(row.get("trace_id", "") or "")
        # Why it flipped: diff the committed decision list against the
        # observed one (both stamped onto optimize rows by the DP
        # optimiser). Rows predating decision journaling yield no diff.
        why: dict = {}
        why_suffix = ""
        old_decisions = list(committed.get("decisions", []) or [])
        new_decisions = list(row.get("decisions", []) or [])
        if old_decisions and new_decisions:
            from repro.core.plan import plan_diff, render_plan_diff

            why = plan_diff(old_decisions, new_decisions)
            why_suffix = f"; why: {render_plan_diff(why)}"
        return SentinelAlert(
            kind="plan_flip",
            severity=severity,
            spec_fingerprint=spec_fp,
            old_plan_hash=str(committed.get("plan_hash", "")),
            new_plan_hash=str(row.get("plan_hash", "")),
            observed=new_cost,
            baseline=old_cost,
            ratio=cost_ratio,
            old_catalog_version=old_version,
            new_catalog_version=new_version,
            old_cost=old_cost,
            new_cost=new_cost,
            trace_ids=[trace_id] if trace_id else [],
            why=why,
            message=(
                f"plan {committed.get('plan_hash', '?')} -> "
                f"{row.get('plan_hash', '?')} "
                f"(catalog v{old_version} -> v{new_version}, "
                f"cost {old_cost:.1f} -> {new_cost:.1f}, x{cost_ratio:.2f})"
                f"{why_suffix}"
            ),
        )

    def _retain(self, alerts: list[SentinelAlert], evaluated: int) -> None:
        with self._lock:
            self._evaluated += evaluated
            for alert in alerts:
                self._alerts.append(alert)
                self._counts[alert.kind] = (
                    self._counts.get(alert.kind, 0) + 1
                )
                if alert.severity == "critical":
                    self._last_critical_ts = max(
                        self._last_critical_ts, alert.ts
                    )

    def _report_metrics(self, alerts: list[SentinelAlert]) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.counter("sentinel.evaluations", exist_ok=True).inc()
        metrics.gauge("sentinel.fingerprints", exist_ok=True).set(
            len(self._store)
        )
        if alerts:
            metrics.counter("sentinel.alerts", exist_ok=True).inc(
                len(alerts)
            )
            for alert in alerts:
                metrics.counter(
                    f"sentinel.alerts.{alert.kind}", exist_ok=True
                ).inc()


# -- live tail ---------------------------------------------------------------


class SentinelThread:
    """A daemon thread tailing a :class:`~repro.obs.querylog.QueryLog`
    incrementally and feeding each batch of complete rows to a
    :class:`Sentinel`.

    ``on_alerts`` (if given) is called with each non-empty alert batch —
    the query service uses it to advise the admission controller when a
    critical regression is fresh. :meth:`tick` runs one poll inline,
    which is how tests drive the thread deterministically.
    """

    def __init__(
        self,
        log,
        sentinel: Sentinel,
        interval_seconds: float = 2.0,
        on_alerts: Callable[[list[SentinelAlert]], None] | None = None,
    ) -> None:
        self._log = log
        self._sentinel = sentinel
        self._interval = max(float(interval_seconds), 0.05)
        self._on_alerts = on_alerts
        self._offset = 0
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = 0

    @property
    def sentinel(self) -> Sentinel:
        """The sentinel this thread feeds."""
        return self._sentinel

    @property
    def running(self) -> bool:
        """True while the polling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def ticks(self) -> int:
        """Completed polls (including inline :meth:`tick` calls)."""
        return self._ticks

    def start(self) -> None:
        """Start polling (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sentinel", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop polling; runs one final drain before exiting."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def tick(self) -> list[SentinelAlert]:
        """Run one poll inline: read newly-completed log rows, observe
        them, dispatch ``on_alerts``. Returns the batch's alerts."""
        entries, self._offset = self._log.read_from(self._offset)
        alerts = self._sentinel.observe(entries) if entries else []
        self._ticks += 1
        if alerts and self._on_alerts is not None:
            try:
                self._on_alerts(alerts)
            except Exception:  # pragma: no cover - advisory hook
                pass
        return alerts

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception:  # pragma: no cover - keep the tail alive
                pass
            self._wake.wait(timeout=self._interval)
            self._wake.clear()
        try:
            self.tick()
        except Exception:  # pragma: no cover
            pass
