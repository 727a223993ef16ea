"""Estimate-vs-actual feedback: the optimiser grading its own homework.

Every instrumented execution of an optimised plan yields, per operator,
the pair (estimated rows, actual rows) plus the measured wall time. This
module accumulates those pairs into a :class:`FeedbackStore` and reports,
per operator kind (``'join[SPHJ]'``, ``'group_by[HG]'``...), the
multiplicative estimation error ``max(est/act, act/est)`` summarised as
count / mean / p50 / max: the signal "Query Optimization in the Wild"
identifies as the dominant real-world optimiser failure mode.

Imports of the cost-model layer are deferred to call time: ``repro.core``
reports into ``repro.obs`` at module import, so the reverse edge must not
exist at import time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.instrument import OperatorStats


@dataclass(frozen=True)
class FeedbackSample:
    """One graded operator execution: what the optimiser predicted vs.
    what the engine measured."""

    #: stable operator identity, e.g. ``'group_by[HG]'``.
    operator_kind: str
    #: the plan-node kind ('scan', 'join', 'group_by', ...).
    plan_op: str
    #: the chosen algorithm family name ('' for non-algorithmic nodes).
    algorithm: str
    #: the optimiser's predicted output cardinality.
    estimated_rows: float
    #: the measured output cardinality.
    actual_rows: int
    #: measured input cardinality (sum of the children's output).
    rows_in: int
    #: the optimiser's predicted distinct-group count (0.0 when n/a).
    estimated_groups: float
    #: measured exclusive wall seconds spent in the operator.
    seconds: float

    @property
    def qerror(self) -> float:
        """Cardinality q-error of this sample."""
        from repro.core.cost.cardinality import qerror

        return qerror(self.estimated_rows, self.actual_rows)


class FeedbackStore:
    """Thread-safe accumulator of :class:`FeedbackSample` records.

    Feed it from :func:`repro.engine.executor.explain_analyze` (pass the
    store as ``feedback=``) or directly via :meth:`record_plan`; read it
    back as a q-error summary.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: list[FeedbackSample] = []

    # -- recording ----------------------------------------------------------

    def record(self, sample: FeedbackSample) -> None:
        """Append one sample."""
        with self._lock:
            self._samples.append(sample)

    def record_plan(self, root: "OperatorStats") -> int:
        """Record every estimate-carrying node of a measured stats tree.

        Nodes without estimates (hand-built plans, enforcer internals)
        are skipped. Returns the number of samples recorded.
        """
        recorded = 0
        for node in root.walk():
            if node.estimated_rows is None:
                continue
            self.record(
                FeedbackSample(
                    operator_kind=node.operator_kind,
                    plan_op=node.plan_op,
                    algorithm=node.plan_algorithm,
                    estimated_rows=node.estimated_rows,
                    actual_rows=node.rows_out,
                    rows_in=node.rows_in,
                    estimated_groups=node.estimated_groups or 0.0,
                    seconds=node.self_seconds,
                )
            )
            recorded += 1
        return recorded

    # -- read-out -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[FeedbackSample]:
        return iter(self.samples())

    def samples(self) -> list[FeedbackSample]:
        """A snapshot copy of all recorded samples."""
        with self._lock:
            return list(self._samples)

    def clear(self) -> None:
        """Drop all samples."""
        with self._lock:
            self._samples.clear()

    def qerror_summary(self) -> dict[str, dict]:
        """Per operator kind: ``{count, mean, p50, max}`` of the q-errors.

        Unbounded misses (one side of the estimate is zero) participate
        in ``max`` but are excluded from ``mean``/``p50`` so a single
        empty intermediate does not wash out the distribution.
        """
        by_kind: dict[str, list[float]] = {}
        for sample in self.samples():
            by_kind.setdefault(sample.operator_kind, []).append(sample.qerror)
        summary: dict[str, dict] = {}
        for kind, errors in sorted(by_kind.items()):
            finite = sorted(e for e in errors if math.isfinite(e))
            summary[kind] = {
                "count": len(errors),
                "mean": sum(finite) / len(finite) if finite else math.inf,
                "p50": finite[(len(finite) - 1) // 2] if finite else math.inf,
                "max": max(errors),
            }
        return summary

    def render(self) -> str:
        """A human-readable q-error table, one line per operator kind."""
        summary = self.qerror_summary()
        lines = [f"feedback: {len(self)} sample(s)"]
        if not summary:
            lines.append("  (no estimate-carrying operators recorded)")
        for kind, stats in summary.items():
            lines.append(
                f"  {kind:<24} count={stats['count']:<5} "
                f"mean q={stats['mean']:.2f} p50 q={stats['p50']:.2f} "
                f"max q={stats['max']:.2f}"
            )
        return "\n".join(lines)
