"""Operator-level actuals: rows, chunks, and wall time per plan node.

:func:`instrumented` hooks every operator in a physical plan tree by
shadowing its bound ``chunks`` method with a counting/timing wrapper
(an instance attribute, so ``self.children[i].chunks()`` and the base
``to_table`` both hit it). Because a parent's generator only advances
while the driver is inside *its* ``next()``, the time a child spends
producing chunks nests inside the parent's measurement — cumulative
time is inclusive, and ``self_seconds`` subtracts the children out.
Whole-output hand-overs are hooked the same way: each method a
materialising operator lists in ``HAND_OVERS`` (``to_table``, and a
join's ``matches``, which a group-by on a build-side key takes instead
of the joined table), and each it lists in ``STEPS`` (a join's
``gather`` of matches a group-by declined) is timed as the operator's
own work, with no rows of its own.

The hooks are removed when the context exits, so instrumentation is
strictly opt-in and the un-instrumented engine stays untouched.

:meth:`OperatorStats.to_dict` emits the per-operator record that
profiles and the query log hold; the functions beside it
(:func:`walk_operator_nodes`, :func:`node_qerror`,
:func:`qerror_summary`, :func:`render_operator_lines`) are how every
reader reads it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.engine.operators.base import (
    MaterialisedOperator,
    PhysicalOperator,
    chunk_count,
)


def format_bytes(nbytes: int | float) -> str:
    """Human-readable bytes: ``0B``, ``512B``, ``4.0KiB``, ``1.5MiB``..."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


@dataclass
class OperatorStats:
    """Measured actuals of one operator node after execution.

    When the plan was lowered from an optimised plan tree, the
    ``estimated_*`` fields carry the optimiser's predictions for the
    node, and the ``qerror`` of its :meth:`to_dict` record grades them
    against the measured actuals.
    """

    name: str
    description: str
    rows_out: int = 0
    chunks_out: int = 0
    #: wall seconds spent inside this operator's iterator, children
    #: included (inclusive time).
    cumulative_seconds: float = 0.0
    #: the optimiser's predicted output cardinality (None = no estimate).
    estimated_rows: float | None = None
    #: the optimiser's predicted cumulative cost, in cost-model units.
    estimated_cost: float | None = None
    #: the optimiser's predicted distinct-group count (join/group-by).
    estimated_groups: float | None = None
    #: the plan-node kind ('scan', 'join', ...) behind this operator.
    plan_op: str = ""
    #: the algorithm family the optimiser chose (e.g. 'HG', 'SPHJ').
    plan_algorithm: str = ""
    #: peak working-set bytes the operator reported while executing
    #: (sampled from ``PhysicalOperator.memory_bytes()``).
    peak_memory_bytes: int = 0
    #: workers this operator's morsel batches were scheduled across
    #: (0 = no morsel batch ran; 1 = batches ran inline, serial).
    parallel_degree: int = 0
    #: summed worker wall seconds of the operator's morsel batches.
    worker_busy_seconds: float = 0.0
    #: disk segments read by this operator (out-of-core scans only).
    segments_read: int = 0
    #: disk segments skipped via zone maps without any I/O.
    segments_skipped: int = 0
    #: cold payload bytes read from disk (buffer-pool misses).
    bytes_read: int = 0
    children: list["OperatorStats"] = field(default_factory=list)

    @property
    def rows_in(self) -> int:
        """Rows that flowed into this operator (sum of children's output)."""
        return sum(child.rows_out for child in self.children)

    @property
    def operator_kind(self) -> str:
        """Stable feedback key: plan op plus algorithm, e.g.
        ``'group_by[HG]'``; falls back to the operator class name."""
        base = self.plan_op or self.name
        return f"{base}[{self.plan_algorithm}]" if self.plan_algorithm else base

    @property
    def self_seconds(self) -> float:
        """Exclusive time: cumulative minus the children's cumulative."""
        return max(
            0.0,
            self.cumulative_seconds
            - sum(child.cumulative_seconds for child in self.children),
        )

    def walk(self) -> Iterator["OperatorStats"]:
        """Pre-order traversal of the stats tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def walk_distinct(self) -> Iterator["OperatorStats"]:
        """Pre-order traversal that visits a node shared across a
        diamond plan once."""
        seen: set[int] = set()
        for node in self.walk():
            if id(node) not in seen:
                seen.add(id(node))
                yield node

    def to_dict(self) -> dict:
        """A JSON-friendly representation of the subtree."""
        record = {
            "name": self.name,
            "description": self.description,
            "operator_kind": self.operator_kind,
            "plan_op": self.plan_op,
            "plan_algorithm": self.plan_algorithm,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "chunks_out": self.chunks_out,
            "self_seconds": self.self_seconds,
            "cumulative_seconds": self.cumulative_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "children": [child.to_dict() for child in self.children],
        }
        if self.parallel_degree > 0:
            record["parallel_degree"] = self.parallel_degree
            record["worker_busy_seconds"] = self.worker_busy_seconds
        # I/O keys only when the operator touched disk, so records from
        # in-memory runs are byte-identical to the pre-disk era.
        if self.segments_read or self.segments_skipped or self.bytes_read:
            record["segments_read"] = self.segments_read
            record["segments_skipped"] = self.segments_skipped
            record["bytes_read"] = self.bytes_read
        if self.estimated_rows is not None:
            record["estimated_rows"] = self.estimated_rows
            record["estimated_cost"] = self.estimated_cost
            if self.estimated_groups is not None:
                record["estimated_groups"] = self.estimated_groups
            record["qerror"] = node_qerror(record)
        return record


# -- readers of the per-operator record ---------------------------------------


def walk_operator_nodes(node: dict) -> Iterator[dict]:
    """Every node of an operator record, pre-order."""
    yield node
    for child in node.get("children", []) or []:
        yield from walk_operator_nodes(child)


def node_qerror(node: dict) -> float | None:
    """A node's cardinality q-error: its ``qerror`` key, else
    :func:`~repro.core.cost.cardinality.qerror` of its estimate and
    actual rows; None when it carries no estimate."""
    if "qerror" in node:
        return node["qerror"]
    if node.get("estimated_rows") is None:
        return None
    # Deferred: ``repro.core`` reports into ``repro.obs`` at import.
    from repro.core.cost.cardinality import qerror

    return qerror(node["estimated_rows"], node.get("rows_out", 0))


def qerror_summary(nodes: Iterable[dict]) -> dict[str, dict]:
    """Per operator kind: ``{count, mean, p50, max}`` of the q-errors of
    the estimate-carrying ``nodes``.

    Unbounded misses (one side of the estimate is zero) count in
    ``max`` but not in ``mean``/``p50``, so a single empty intermediate
    does not wash out the distribution.
    """
    by_kind: dict[str, list[float]] = {}
    for node in nodes:
        error = node_qerror(node)
        if error is not None:
            by_kind.setdefault(node.get("operator_kind", ""), []).append(error)
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


def render_operator_lines(node: dict, indent: int = 0) -> list[str]:
    """An operator record as EXPLAIN ANALYZE's lines, one per node,
    indented like ``explain()``."""
    self_seconds = node["self_seconds"]
    line = (
        f"{'  ' * indent}{node['description']}  "
        f"[actual rows={node['rows_out']:,} chunks={node['chunks_out']} "
        f"self={self_seconds * 1e3:.3f}ms "
        f"cum={node['cumulative_seconds'] * 1e3:.3f}ms "
        f"peak {format_bytes(node['peak_memory_bytes'])}]"
    )
    degree = node.get("parallel_degree", 0)
    if degree > 1:
        busy = node["worker_busy_seconds"]
        line += f"  [parallel workers={degree} busy={busy * 1e3:.3f}ms"
        if self_seconds > 0.0:
            line += f" speedup={busy / self_seconds:.2f}x"
        line += "]"
    if node.get("segments_read") or node.get("segments_skipped"):
        line += (
            f"  [io segments={node['segments_read']} "
            f"skipped={node['segments_skipped']} "
            f"cold={format_bytes(node['bytes_read'])}]"
        )
    if node.get("estimated_rows") is not None:
        line += (
            f"  [est {node['estimated_rows']:,.0f} rows · "
            f"act {node['rows_out']:,} · q={node_qerror(node):.2f}]"
        )
    lines = [line]
    for child in node["children"]:
        lines.extend(render_operator_lines(child, indent + 1))
    return lines


def _sample_parallelism(
    operator: PhysicalOperator, stats: OperatorStats
) -> None:
    """Copy the operator's morsel-scheduling facts into its stats node
    (monotone within one run; the accounting accumulates per run)."""
    degree = operator.parallel_degree()
    if degree > stats.parallel_degree:
        stats.parallel_degree = degree
    busy = operator.worker_busy_seconds()
    if busy > stats.worker_busy_seconds:
        stats.worker_busy_seconds = busy
    read, skipped, cold = operator.io_counters()
    if read > stats.segments_read:
        stats.segments_read = read
    if skipped > stats.segments_skipped:
        stats.segments_skipped = skipped
    if cold > stats.bytes_read:
        stats.bytes_read = cold


def _hook(
    operator: PhysicalOperator,
    stats: OperatorStats,
    state: dict,
    is_root: bool,
) -> None:
    original = operator.chunks  # the bound, un-instrumented method

    def begin() -> None:
        if is_root:
            # A fresh pull on the root is a fresh execution: every
            # operator resets on its first call of this generation, so
            # re-running the same tree never double-counts rows, time,
            # or memory peaks.
            state["generation"] += 1
        if state["seen"].get(id(stats)) != state["generation"]:
            state["seen"][id(stats)] = state["generation"]
            stats.rows_out = 0
            stats.chunks_out = 0
            stats.cumulative_seconds = 0.0
            stats.peak_memory_bytes = 0
            stats.parallel_degree = 0
            stats.worker_busy_seconds = 0.0
            stats.segments_read = 0
            stats.segments_skipped = 0
            stats.bytes_read = 0
            operator.reset_memory_accounting()

    def sample() -> None:
        peak = operator.memory_bytes()
        if peak > stats.peak_memory_bytes:
            stats.peak_memory_bytes = peak
        _sample_parallelism(operator, stats)

    inside = False  # a step of this operator is running

    def timed(step):
        nonlocal inside
        inside = True
        started = time.perf_counter()
        try:
            return step()
        finally:
            inside = False
            stats.cumulative_seconds += time.perf_counter() - started
            # Sampled after every chunk too, so early-terminated pulls
            # (e.g. below a Limit) still record their peak.
            sample()

    def instrumented_chunks():
        begin()
        iterator = original()
        while (chunk := timed(lambda: next(iterator, None))) is not None:
            stats.rows_out += chunk.num_rows
            stats.chunks_out += 1
            yield chunk

    operator.chunks = instrumented_chunks  # type: ignore[method-assign]
    if not isinstance(operator, MaterialisedOperator):
        return

    def hooked(hand_over):
        def instrumented_hand_over(*args, **kwargs):
            # A join's output is its matches, gathered: the hand-over
            # inside another step of the same operator is counted there.
            if inside:
                return hand_over(*args, **kwargs)
            begin()
            handed = timed(lambda: hand_over(*args, **kwargs))
            stats.rows_out += handed.num_rows
            stats.chunks_out += chunk_count(handed.num_rows, operator._chunk_size)
            return handed

        return instrumented_hand_over

    def hooked_step(step):
        def instrumented_step(*args, **kwargs):
            if inside:
                return step(*args, **kwargs)
            return timed(lambda: step(*args, **kwargs))

        return instrumented_step

    for name in operator.HAND_OVERS:
        setattr(operator, name, hooked(getattr(operator, name)))
    for name in operator.STEPS:
        setattr(operator, name, hooked_step(getattr(operator, name)))


@contextmanager
def instrumented(root: PhysicalOperator) -> Iterator[OperatorStats]:
    """Hook ``root``'s whole tree; yields the mirror stats tree.

    Each pull on the *root* inside the ``with`` block starts a fresh
    execution: per-operator counters (rows, chunks, time, memory peaks)
    reset rather than accumulate, so the stats always describe the most
    recent run. On exit every hook is removed, restoring the plan to
    its zero-overhead state. Shared sub-operators (diamond plans) are
    hooked once and their stats object appears under every parent.
    """
    hooked: list[PhysicalOperator] = []
    memo: dict[int, OperatorStats] = {}
    state: dict = {"generation": 0, "seen": {}}

    def build(operator: PhysicalOperator) -> OperatorStats:
        if id(operator) in memo:
            return memo[id(operator)]
        stats = OperatorStats(
            name=operator.name,
            description=operator.describe(),
            estimated_rows=operator.estimated_rows,
            estimated_cost=operator.estimated_cost,
            estimated_groups=operator.estimated_groups,
            plan_op=operator.plan_op,
            plan_algorithm=operator.plan_algorithm,
        )
        memo[id(operator)] = stats
        for child in operator.children:
            stats.children.append(build(child))
        _hook(operator, stats, state, is_root=operator is root)
        hooked.append(operator)
        operator.reset_memory_accounting()
        return stats

    stats_root = build(root)
    try:
        yield stats_root
    finally:
        for operator in hooked:
            operator.__dict__.pop("chunks", None)
            for name in (
                *getattr(operator, "HAND_OVERS", ()),
                *getattr(operator, "STEPS", ()),
            ):
                operator.__dict__.pop(name, None)
