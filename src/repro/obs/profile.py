"""Query profiles: one schema-versioned artifact per analysed query.

A :class:`QueryProfile` bundles everything the observability stack
measured about one execution — the operator tree with estimates,
actuals, q-errors and per-node peak memory, the span trace, and a
metrics snapshot — into a single JSON-serialisable record. Profiles are
what the persistent query log stores (``kind='profile'``) and what the
``querylog show`` CLI renders back.

Two export shapes make profiles visual without any plotting stack:

- :meth:`QueryProfile.to_folded_stacks` — the classic semicolon-joined
  folded-stacks format (``engine.execute;join 1234``), directly
  consumable by ``flamegraph.pl`` / speedscope / inferno.
- :meth:`QueryProfile.to_html` — a fully self-contained single-file
  HTML report (inline CSS, no external assets): span timeline, operator
  table, metrics, and the raw profile JSON embedded for re-parsing.
"""

from __future__ import annotations

import html as _html
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ObservabilityError
from repro.obs.instrument import (
    OperatorStats,
    format_bytes,
    node_qerror,
    render_operator_lines,
    walk_operator_nodes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.operators.base import PhysicalOperator

#: bumped whenever the profile record shape changes incompatibly.
PROFILE_SCHEMA_VERSION = 1


@dataclass
class QueryProfile:
    """Everything measured about one query execution, in one record."""

    #: the query text (or plan description) this profile belongs to.
    query: str = ""
    #: correlation id of the request this profile measures ("" when the
    #: run was not traced — e.g. a bare ``explain_analyze`` call).
    trace_id: str = ""
    #: shape hash of the optimised plan this run executed
    #: (:func:`repro.core.plan.plan_fingerprint`; "" for hand-built
    #: operator trees) — lets the plan-regression sentinel attribute a
    #: profile's latency/q-errors to one specific plan choice.
    plan_hash: str = ""
    #: the operator stats tree, as :meth:`OperatorStats.to_dict` emits it.
    operators: dict = field(default_factory=dict)
    #: end-to-end wall seconds of the instrumented run.
    wall_seconds: float = 0.0
    #: rows in the final result.
    rows_out: int = 0
    #: worst per-operator cardinality q-error (None = no estimates).
    max_qerror: float | None = None
    #: sum of per-operator peak working-set bytes.
    peak_memory_bytes: int = 0
    #: summed operator I/O: disk segments read, segments skipped via
    #: zone maps, and cold bytes read (all zero for in-memory plans).
    segments_read: int = 0
    segments_skipped: int = 0
    bytes_read: int = 0
    #: finished spans (:meth:`Span.to_dict` records), root first.
    spans: list = field(default_factory=list)
    #: a :meth:`MetricsRegistry.snapshot` taken after the run.
    metrics: dict = field(default_factory=dict)
    #: the optimiser's search-trace stamp for this query — ``{"path",
    #: "summary"}`` as :meth:`SearchTrace.finish` returns it; empty when
    #: the optimisation ran untraced (or the plan came from the cache).
    search: dict = field(default_factory=dict)
    #: record shape version (see :data:`PROFILE_SCHEMA_VERSION`).
    schema_version: int = PROFILE_SCHEMA_VERSION

    # -- construction -------------------------------------------------------

    @classmethod
    def from_stats(
        cls,
        stats: OperatorStats,
        wall_seconds: float,
        rows_out: int,
        trace_id: str = "",
        plan_hash: str = "",
    ) -> "QueryProfile":
        """Build a profile from a measured stats tree, computing its
        totals once (a node shared across a diamond plan counts once)."""
        operators = stats.to_dict()
        errors = [
            error
            for node in walk_operator_nodes(operators)
            if (error := node_qerror(node)) is not None
        ]
        distinct = list(stats.walk_distinct())
        return cls(
            query=stats.description,
            trace_id=trace_id,
            plan_hash=plan_hash,
            operators=operators,
            wall_seconds=wall_seconds,
            rows_out=rows_out,
            max_qerror=max(errors, default=None),
            peak_memory_bytes=sum(n.peak_memory_bytes for n in distinct),
            segments_read=sum(n.segments_read for n in distinct),
            segments_skipped=sum(n.segments_skipped for n in distinct),
            bytes_read=sum(n.bytes_read for n in distinct),
        )

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """The profile as a JSON-friendly dict (``kind='profile'``)."""
        record = {
            "kind": "profile",
            "schema_version": self.schema_version,
            "query": self.query,
            "trace_id": self.trace_id,
            "plan_hash": self.plan_hash,
            "wall_seconds": self.wall_seconds,
            "rows_out": self.rows_out,
            "max_qerror": self.max_qerror,
            "peak_memory_bytes": self.peak_memory_bytes,
            "operators": self.operators,
            "spans": self.spans,
            "metrics": self.metrics,
            "search": self.search,
        }
        # I/O keys only when the run touched disk, as on its operators.
        if self.segments_read or self.segments_skipped or self.bytes_read:
            record["segments_read"] = self.segments_read
            record["segments_skipped"] = self.segments_skipped
            record["bytes_read"] = self.bytes_read
        return record

    def to_json(self, indent: int | None = 2) -> str:
        """The profile as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    @classmethod
    def from_dict(cls, record: dict) -> "QueryProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        :raises ObservabilityError: on a schema-version mismatch.
        """
        version = record.get("schema_version")
        if version != PROFILE_SCHEMA_VERSION:
            raise ObservabilityError(
                f"profile schema version {version!r} is not supported "
                f"(this build reads version {PROFILE_SCHEMA_VERSION})"
            )
        return cls(
            query=record.get("query", ""),
            trace_id=record.get("trace_id", "") or "",
            plan_hash=record.get("plan_hash", "") or "",
            operators=record.get("operators", {}) or {},
            wall_seconds=float(record.get("wall_seconds", 0.0)),
            rows_out=int(record.get("rows_out", 0)),
            max_qerror=record.get("max_qerror"),
            peak_memory_bytes=int(record.get("peak_memory_bytes", 0)),
            segments_read=int(record.get("segments_read", 0)),
            segments_skipped=int(record.get("segments_skipped", 0)),
            bytes_read=int(record.get("bytes_read", 0)),
            spans=list(record.get("spans", []) or []),
            metrics=dict(record.get("metrics", {}) or {}),
            search=dict(record.get("search", {}) or {}),
            schema_version=version,
        )

    # -- rendering ----------------------------------------------------------

    def _operator_rows(self) -> list[dict]:
        """The operator tree flattened pre-order, with a ``depth`` key."""
        rows: list[dict] = []

        def visit(node: dict, depth: int) -> None:
            rows.append({**node, "depth": depth})
            for child in node.get("children", []) or []:
                visit(child, depth + 1)

        if self.operators:
            visit(self.operators, 0)
        return rows

    def _totals_line(self) -> str:
        line = (
            f"wall {self.wall_seconds * 1e3:.3f}ms · "
            f"{self.rows_out:,} row(s) · "
            f"peak memory {format_bytes(self.peak_memory_bytes)}"
        )
        if self.max_qerror is not None:
            line += f" · worst q-error {self.max_qerror:.2f}"
        return line

    def render(self) -> str:
        """The profile as terminal text (``querylog show``): its
        operator lines are EXPLAIN ANALYZE's."""
        lines = [f"profile: {self.query}"]
        if self.operators:
            lines.extend(render_operator_lines(self.operators))
        lines.append(self._totals_line())
        if self.spans:
            lines.append(f"{len(self.spans)} span(s) recorded")
        summary = self.search.get("summary") if self.search else None
        if summary:
            line = (
                f"search: {summary.get('generated', 0)} candidates, "
                f"{summary.get('dominated', 0)} dominated, "
                f"{summary.get('displaced', 0)} displaced, "
                f"{summary.get('truncated', 0)} truncated"
            )
            if self.search.get("path"):
                line += f" (trace: {self.search['path']})"
            lines.append(line)
        return "\n".join(lines)

    def to_folded_stacks(self) -> str:
        """Spans as folded stacks (``a;b;c <self-µs>``), one per line.

        Feed the output to any flamegraph renderer (``flamegraph.pl``,
        speedscope's "folded" importer, inferno). The operator tree is
        folded too — self time per plan node — nested under the longest
        root span when spans exist, at the top level otherwise, so every
        profile becomes a flamegraph that shows where execution went.
        """
        weights: dict[str, int] = {}

        def fold_operators(node: dict, path: tuple[str, ...]) -> int:
            """Fold ``node``'s subtree under ``path``; returns µs added."""
            path = (*path, str(node.get("name", "?")))
            key = ";".join(path)
            self_us = max(1, round(float(node.get("self_seconds", 0.0)) * 1e6))
            weights[key] = weights.get(key, 0) + self_us
            return self_us + sum(
                fold_operators(child, path)
                for child in node.get("children", []) or []
            )

        if self.spans:
            by_id = {s.get("span_id"): s for s in self.spans}
            child_seconds: dict[object, float] = {}
            for span in self.spans:
                parent = span.get("parent_id")
                if parent in by_id:
                    child_seconds[parent] = child_seconds.get(
                        parent, 0.0
                    ) + float(span.get("duration_s") or 0.0)
            for span in self.spans:
                path = [str(span.get("name", "?"))]
                cursor = span
                hops = 0
                while (
                    cursor.get("parent_id") in by_id
                    and hops < len(self.spans)
                ):
                    cursor = by_id[cursor["parent_id"]]
                    path.append(str(cursor.get("name", "?")))
                    hops += 1
                path.reverse()
                self_seconds = float(
                    span.get("duration_s") or 0.0
                ) - child_seconds.get(span.get("span_id"), 0.0)
                key = ";".join(path)
                weights[key] = weights.get(key, 0) + max(
                    1, round(self_seconds * 1e6)
                )
            roots = [
                s for s in self.spans if s.get("parent_id") not in by_id
            ]
            if roots and self.operators:
                anchor = max(
                    roots, key=lambda s: float(s.get("duration_s") or 0.0)
                )
                anchor_key = str(anchor.get("name", "?"))
                spent = fold_operators(self.operators, (anchor_key,))
                weights[anchor_key] = max(
                    1, weights.get(anchor_key, 1) - spent
                )
        elif self.operators:
            fold_operators(self.operators, ())
        return "\n".join(f"{key} {count}" for key, count in weights.items())

    def to_html(self) -> str:
        """A self-contained single-file HTML report (no external assets)."""
        rows_html = []
        for row in self._operator_rows():
            qerror = row.get("qerror")
            rows_html.append(
                "<tr>"
                f"<td style='padding-left:{row['depth'] * 18 + 4}px'>"
                f"{_html.escape(str(row.get('description', '?')))}</td>"
                f"<td class='num'>{row.get('rows_out', 0):,}</td>"
                f"<td class='num'>{row.get('self_seconds', 0.0) * 1e3:.3f}ms</td>"
                f"<td class='num'>{row.get('cumulative_seconds', 0.0) * 1e3:.3f}ms</td>"
                f"<td class='num'>{_html.escape(format_bytes(row.get('peak_memory_bytes', 0)))}</td>"
                f"<td class='num'>{'' if qerror is None else f'{qerror:.2f}'}</td>"
                "</tr>"
            )

        timeline_html = []
        if self.spans:
            starts = [float(s.get("start_s", 0.0)) for s in self.spans]
            origin = min(starts)
            total = max(
                1e-9,
                max(
                    float(s.get("start_s", 0.0))
                    + float(s.get("duration_s") or 0.0)
                    for s in self.spans
                )
                - origin,
            )
            depth_of: dict[object, int] = {}
            for span in self.spans:
                parent = span.get("parent_id")
                depth_of[span.get("span_id")] = (
                    depth_of.get(parent, -1) + 1
                    if parent in depth_of
                    else 0
                )
            for span in self.spans:
                left = (float(span.get("start_s", 0.0)) - origin) / total
                width = float(span.get("duration_s") or 0.0) / total
                depth = depth_of.get(span.get("span_id"), 0)
                label = (
                    f"{span.get('name', '?')} "
                    f"({float(span.get('duration_s') or 0.0) * 1e3:.3f}ms)"
                )
                timeline_html.append(
                    "<div class='span' style='"
                    f"left:{left * 100:.3f}%;"
                    f"width:{max(width * 100, 0.4):.3f}%;"
                    f"top:{depth * 22}px' "
                    f"title='{_html.escape(label)}'>"
                    f"{_html.escape(str(span.get('name', '?')))}</div>"
                )
            timeline_height = (max(depth_of.values(), default=0) + 1) * 22
        else:
            timeline_height = 0

        metrics_html = []
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if isinstance(value, dict):
                rendered = (
                    f"count={value.get('count', 0)} "
                    f"sum={value.get('sum', 0.0):.6g} "
                    f"p50={value.get('p50', 0.0):.6g} "
                    f"p99={value.get('p99', 0.0):.6g}"
                )
            else:
                rendered = f"{value}"
            metrics_html.append(
                f"<tr><td>{_html.escape(name)}</td>"
                f"<td class='num'>{_html.escape(rendered)}</td></tr>"
            )

        summary = self._totals_line()
        # '</' must not appear inside the inline <script> payload.
        embedded_json = self.to_json().replace("</", "<\\/")

        return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>query profile: {_html.escape(self.query)}</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', sans-serif; margin: 24px;
       color: #1b1b1b; }}
h1 {{ font-size: 18px; }} h2 {{ font-size: 14px; margin-top: 28px; }}
code {{ background: #f4f4f4; padding: 1px 4px; }}
table {{ border-collapse: collapse; font-size: 13px; }}
th, td {{ border: 1px solid #ddd; padding: 4px 8px; text-align: left; }}
th {{ background: #f0f0f0; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
.timeline {{ position: relative; height: {timeline_height}px;
             background: #fafafa; border: 1px solid #ddd; }}
.span {{ position: absolute; height: 20px; overflow: hidden;
         background: #7aa7d6; border: 1px solid #4a77a6; color: #fff;
         font-size: 11px; line-height: 20px; padding: 0 3px;
         white-space: nowrap; box-sizing: border-box; }}
.summary {{ color: #444; }}
</style>
</head>
<body>
<h1>query profile</h1>
<p><code>{_html.escape(self.query)}</code></p>
<p class="summary">{_html.escape(summary)}</p>
<h2>span timeline</h2>
{"<div class='timeline'>" + "".join(timeline_html) + "</div>" if timeline_html else "<p>(no spans recorded)</p>"}
<h2>operators</h2>
<table>
<tr><th>operator</th><th>rows out</th><th>self</th><th>cumulative</th>
<th>peak memory</th><th>q-error</th></tr>
{"".join(rows_html)}
</table>
<h2>metrics</h2>
{"<table><tr><th>metric</th><th>value</th></tr>" + "".join(metrics_html) + "</table>" if metrics_html else "<p>(no metrics captured)</p>"}
<script type="application/json" id="profile-json">
{embedded_json}
</script>
</body>
</html>
"""


def capture_profile(root: "PhysicalOperator", query: str = "") -> QueryProfile:
    """Run ``root`` under full observability and return its profile.

    A fresh metrics registry and tracer are installed for the duration
    (via :func:`~repro.obs.runtime.capture_observability`), the plan is
    executed through :func:`~repro.engine.executor.explain_analyze`, and
    the resulting estimates, actuals, spans, memory peaks, and metrics
    are bundled into one :class:`QueryProfile`. The previous
    observability handles are restored on exit, so capturing a profile
    never perturbs ambient instrumentation.
    """
    from repro.engine.executor import explain_analyze
    from repro.obs.runtime import capture_observability

    with capture_observability() as (metrics, tracer):
        with tracer.span("profile.capture", root=root.name):
            analyzed = explain_analyze(root)
        profile = analyzed.profile
        profile.spans = tracer.to_dicts()
        profile.metrics = metrics.snapshot()
    profile.query = query or profile.query
    return profile
