"""A persistent, append-only query log plus its CLI.

Each query writes one JSON line to the active log — enabled either
explicitly (:func:`set_query_log`) or by the ``query_log`` setting
(``REPRO_QUERY_LOG``, see :mod:`repro.settings`). The optimiser
(:meth:`repro.core.optimizer.dp.DPOptimizer.optimize_spec`) and the
executor (:func:`repro.engine.executor.execute`,
:func:`~repro.engine.executor.explain_analyze`) log their facts through
:func:`log_facts`:

* called directly, each appends a standalone row whose ``kind`` is
  ``'optimize'``, ``'execute'`` or ``'profile'``;
* inside a served query, :meth:`repro.service.session.QueryService.
  execute` holds the query's ``service`` row open on its thread
  (:func:`query_row`; the TCP server opens it one step earlier, so the
  row also carries the ``serialize`` stage), the facts nest in it as
  the sections ``optimize``, ``execute`` or ``profile``, and the row is
  appended once when the query ends, whatever its ``status``.

:func:`query_facts` reads a row's sections whichever shape it has, so
no reader outside this module knows the two shapes. Lines are
self-describing, and a half-written trailing line never poisons the
reader. Rows written while a :class:`~repro.service.context.
QueryContext` is active carry its ``trace_id``.

``python -m repro.obs.querylog`` turns the log back into insight::

    python -m repro.obs.querylog --log run.jsonl list
    python -m repro.obs.querylog --log run.jsonl show <id> --html out.html
    python -m repro.obs.querylog --log run.jsonl diff <id-a> <id-b>
    python -m repro.obs.querylog --log run.jsonl summary
    python -m repro.obs.querylog --log run.jsonl trace <trace-id>
    python -m repro.obs.querylog --log run.jsonl regress --json

``trace`` renders one request from the rows carrying that correlation
id (unique prefixes work): a served query's one row, with its per-stage
latency breakdown and its sections. ``regress`` replays history
through the plan-regression sentinel (:mod:`repro.obs.sentinel`) and
reports plan flips and latency/q-error drift;
``list``/``summary``/``regress`` accept ``--since <iso|duration>`` and
``--last N`` window filters.

``summary`` reads the operator record of every logged profile
(:func:`~repro.obs.instrument.qerror_summary`), reporting per-operator
q-error alongside self-time and query-latency percentiles — the paper's
"did the optimiser's guesses survive contact with execution?" question
asked across history instead of per run. ``show`` renders a profile's
operator lines exactly as EXPLAIN ANALYZE prints them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ObservabilityError
from repro.obs.instrument import (
    format_bytes,
    qerror_summary,
    walk_operator_nodes,
)
from repro.obs.slo import percentile
from repro.settings import get_settings

#: schema version stamped on every appended entry: 2 since a served
#: query's stages nest in its one ``service`` row.
LOG_SCHEMA_VERSION = 2

#: the stages that log facts: a standalone row of that kind, or the
#: section of that name in a served query's row.
SECTIONS = ("optimize", "execute", "profile")

#: entry-id suffixes, shared by every handle in the process: two handles
#: on one path never mint the same id.
_ENTRY_SEQUENCE = itertools.count(1)


class QueryLog:
    """An append-only JSONL file of query-lifecycle events.

    Appends are line-atomic (one ``write`` of one ``\\n``-terminated
    line in append mode), and reads tolerate malformed lines, so
    concurrent writers and a crashed process degrade to *missing*
    entries rather than an unreadable log.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        """Where the log lives on disk."""
        return self._path

    def _new_id(self) -> str:
        return f"q{time.time_ns() // 1_000_000:011x}-{next(_ENTRY_SEQUENCE):03d}"

    def append(self, entry: dict) -> str:
        """Append one entry; returns the (assigned) entry id.

        ``id``, ``ts`` (unix seconds), and ``log_schema_version`` are
        stamped in unless the entry already carries them.
        """
        record = dict(entry)
        record.setdefault("id", self._new_id())
        record.setdefault("ts", time.time())
        record.setdefault("log_schema_version", LOG_SCHEMA_VERSION)
        if not record.get("trace_id"):
            # Imported lazily: the service layer imports this module.
            from repro.service.context import get_active_context

            active = get_active_context()
            if active is not None and active.trace_id:
                record["trace_id"] = active.trace_id
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, default=_jsonable) + "\n")
        return record["id"]

    def entries(self) -> list[dict]:
        """Every parseable entry, in append order.

        Blank and malformed lines (torn writes) are skipped silently.
        """
        if not self._path.exists():
            return []
        with self._path.open("r", encoding="utf-8") as handle:
            return _parse_lines(handle)

    def read_from(self, offset: int) -> tuple[list[dict], int]:
        """Incremental read: every parseable entry whose line *completed*
        at or after byte ``offset``, plus the next offset to resume from.

        Only ``\\n``-terminated lines are consumed — a torn trailing
        line (a concurrent writer mid-append, or a crash) is left for
        the next call rather than half-parsed, so an incremental tailer
        (the sentinel thread) never observes a partial record. A log
        that shrank (rotation/truncation) resets the cursor to zero.
        """
        if not self._path.exists():
            return [], 0
        size = self._path.stat().st_size
        if size < offset:
            offset = 0
        if size == offset:
            return [], offset
        with self._path.open("rb") as handle:
            handle.seek(offset)
            blob = handle.read()
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset
        consumed = blob[: end + 1]
        entries = _parse_lines(
            raw.decode("utf-8", errors="replace") for raw in consumed.split(b"\n")
        )
        return entries, offset + len(consumed)

    def entry(self, entry_id: str) -> dict:
        """The entry with the given id; unique prefixes also match.

        :raises ObservabilityError: when no entry (or more than one)
            matches.
        """
        matches = [
            record
            for record in self.entries()
            if str(record.get("id", "")).startswith(entry_id)
        ]
        exact = [r for r in matches if r.get("id") == entry_id]
        if exact:
            return exact[0]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ObservabilityError(
                f"no query-log entry matches {entry_id!r} in {self._path}"
            )
        raise ObservabilityError(
            f"{entry_id!r} is ambiguous: matches "
            f"{[r.get('id') for r in matches]}"
        )

    def __len__(self) -> int:
        return len(self.entries())


def _parse_lines(lines: Iterable[str]) -> list[dict]:
    """The JSON objects among ``lines``; blank and malformed lines (torn
    writes) are skipped."""
    records = []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


# -- process-wide handle ----------------------------------------------------

#: the explicitly-installed log (None = fall back to the settings).
_query_log: QueryLog | None = None


def set_query_log(target: QueryLog | str | Path | None) -> None:
    """Install (or with ``None`` uninstall) the process-wide query log.

    An explicitly installed log wins over the ``query_log`` setting;
    passing ``None`` falls back to it again.
    """
    global _query_log
    if target is None or isinstance(target, QueryLog):
        _query_log = target
    else:
        _query_log = QueryLog(target)


def get_query_log() -> QueryLog | None:
    """The active query log, or None when logging is disabled.

    Resolution order: the log installed via :func:`set_query_log`, then
    the path in :func:`repro.settings.get_settings` (``REPRO_QUERY_LOG``).
    """
    if _query_log is not None:
        return _query_log
    path = get_settings().query_log
    return QueryLog(path) if path else None


def _jsonable(value):
    """JSON fallback: a record with ``to_dict`` as that dict, anything
    else as its text."""
    to_dict = getattr(value, "to_dict", None)
    return to_dict() if callable(to_dict) else str(value)


# -- one row per query ------------------------------------------------------

#: the calling thread's open query row (see :func:`query_row`).
_open = threading.local()


@contextmanager
def query_row(**facts) -> Iterator[dict | None]:
    """Hold one served query's ``service`` row open on this thread.

    Until the block exits, :func:`log_facts` nests each stage's facts in
    it; the caller adds its own (status, timings) to the yielded dict,
    and the row is appended once on exit, however the block ends (an
    exception no caller recorded becomes its ``status``). A block
    opened while a row is already open on the thread joins that row:
    ``facts`` update it, and the outer block alone appends it — so the
    server can stamp ``serialize`` after the service's block ends.
    Yields None, and logs nothing, when no query log is active.
    """
    row = getattr(_open, "row", None)
    if row is not None:
        row.update(facts)
        yield row
        return
    log = get_query_log()
    if log is None:
        yield None
        return
    row = _open.row = {"kind": "service", **facts}
    try:
        yield row
    except Exception as error:
        row.setdefault("status", type(error).__name__)
        raise
    finally:
        _open.row = None
        log.append(row)


def log_facts(kind: str, facts) -> None:
    """Log one stage's facts; ``kind`` is one of :data:`SECTIONS`.

    With a :func:`query_row` open on this thread they become its
    ``kind`` section; otherwise they are appended as a standalone
    ``kind`` row. ``facts`` is a dict, or a record with ``to_dict`` (a
    :class:`~repro.obs.profile.QueryProfile`) — an open row serialises
    it only when the row is appended, so its owner may still amend it.
    """
    row = getattr(_open, "row", None)
    if row is not None:
        row[kind] = facts
        return
    log = get_query_log()
    if log is not None:
        if not isinstance(facts, dict):
            facts = facts.to_dict()
        log.append({"kind": kind, **facts})


def query_facts(entry: dict) -> dict[str, dict]:
    """A row's stage facts by section name, whichever shape it has: a
    standalone ``optimize``/``execute``/``profile`` row is its own one
    section; a served query's ``service`` row nests them."""
    kind = entry.get("kind")
    if kind in SECTIONS:
        return {kind: entry}
    return {
        name: entry[name]
        for name in SECTIONS
        if isinstance(entry.get(name), dict)
    }


# -- window filters ---------------------------------------------------------

#: duration suffixes accepted by :func:`parse_since`.
_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_since(text: str, now: float | None = None) -> float:
    """Turn ``--since`` input into a unix-seconds cutoff.

    Accepts a relative duration (``30s``, ``15m``, ``2h``, ``1d`` —
    "everything in the last N") or an absolute ISO-8601 timestamp
    (``2026-08-07T12:00:00``; naive stamps are local time).

    :raises ObservabilityError: unparseable input.
    """
    text = text.strip()
    if not text:
        raise ObservabilityError("--since needs a duration or timestamp")
    unit = _DURATION_UNITS.get(text[-1].lower())
    if unit is not None:
        try:
            amount = float(text[:-1])
        except ValueError:
            amount = None
        if amount is not None and amount >= 0:
            return (time.time() if now is None else now) - amount * unit
    from datetime import datetime

    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ObservabilityError(
            f"cannot parse --since {text!r}: use a duration like "
            "'30s'/'15m'/'2h'/'1d' or an ISO timestamp"
        ) from None
    return stamp.timestamp()


def filter_window(
    entries: list[dict],
    since_ts: float | None = None,
    last: int | None = None,
) -> list[dict]:
    """Restrict entries to a window: at-or-after ``since_ts`` (unix
    seconds), then the final ``last`` entries. Append order is kept."""
    window = entries
    if since_ts is not None:
        window = [
            entry
            for entry in window
            if float(entry.get("ts", 0.0) or 0.0) >= since_ts
        ]
    if last is not None and last >= 0:
        window = window[-last:] if last else []
    return window


def _windowed_entries(log: QueryLog, args: argparse.Namespace) -> list[dict]:
    """The log's entries through the CLI's ``--since``/``--last``."""
    since_ts = parse_since(args.since) if getattr(args, "since", "") else None
    last = args.last if getattr(args, "last", None) is not None else None
    return filter_window(log.entries(), since_ts=since_ts, last=last)


def _add_window_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--since",
        default="",
        help="window start: duration (30s/15m/2h/1d) or ISO timestamp",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="keep only the last N entries (after --since)",
    )


# -- summary helpers --------------------------------------------------------


def _profile_nodes(entry: dict) -> list[dict]:
    """Every operator node of a row's ``profile`` facts (none without)."""
    operators = query_facts(entry).get("profile", {}).get("operators")
    if not isinstance(operators, dict):
        return []
    return list(walk_operator_nodes(operators))


def summarise(entries: list[dict]) -> str:
    """The ``summary`` report: q-error plus latency percentiles."""
    from repro.bench.reporting import render_table

    kinds: dict[str, int] = {}
    for entry in entries:
        kind = entry.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    breakdown = ", ".join(
        f"{count} {kind}" for kind, count in sorted(kinds.items())
    )
    lines = [f"query log: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'} ({breakdown or 'empty'})"]

    # Which execution backend each row's query ran under (else was
    # planned for): one count per row, so a served query counts once.
    backends: dict[str, int] = {}
    for entry in entries:
        facts = query_facts(entry)
        backend = (
            facts.get("execute") or facts.get("optimize") or {}
        ).get("backend")
        if backend:
            backends[backend] = backends.get(backend, 0) + 1
    if backends:
        lines.append(
            "execution backends: "
            + ", ".join(
                f"{count} {name}" for name, count in sorted(backends.items())
            )
        )

    nodes = [node for entry in entries for node in _profile_nodes(entry)]
    # Out-of-core scans: segment reads/skips and cold bytes, summed over
    # execute facts (run totals) and profile facts (operator nodes).
    segments_read = segments_skipped = bytes_read = 0
    runs = [query_facts(entry).get("execute", {}) for entry in entries]
    for scan in nodes + runs:
        segments_read += int(scan.get("segments_read", 0))
        segments_skipped += int(scan.get("segments_skipped", 0))
        bytes_read += int(scan.get("bytes_read", 0))
    if segments_read or segments_skipped:
        total = segments_read + segments_skipped
        skip_pct = 100.0 * segments_skipped / total if total else 0.0
        lines.append(
            f"storage: {segments_read} segment(s) read, "
            f"{segments_skipped} skipped via zone maps ({skip_pct:.0f}%), "
            f"{format_bytes(bytes_read)} cold from disk"
        )

    summary = qerror_summary(nodes)
    if summary:
        lines.append("")
        lines.append(
            render_table(
                ["operator", "count", "mean q", "p50 q", "max q"],
                [
                    [
                        kind,
                        str(stats["count"]),
                        f"{stats['mean']:.2f}",
                        f"{stats['p50']:.2f}",
                        f"{stats['max']:.2f}",
                    ]
                    for kind, stats in summary.items()
                ],
                title="per-operator cardinality q-error",
            )
        )

    self_times: dict[str, list[float]] = {}
    peaks: dict[str, list[float]] = {}
    for node in nodes:
        kind = node.get("operator_kind") or node.get("name", "?")
        self_times.setdefault(kind, []).append(
            float(node.get("self_seconds", 0.0))
        )
        peaks.setdefault(kind, []).append(
            float(node.get("peak_memory_bytes", 0))
        )
    if self_times:
        lines.append("")
        lines.append(
            render_table(
                ["operator", "count", "p50", "p90", "p99", "peak mem p50"],
                [
                    [
                        kind,
                        str(len(values)),
                        f"{percentile(values, 0.50) * 1e3:.3f}ms",
                        f"{percentile(values, 0.90) * 1e3:.3f}ms",
                        f"{percentile(values, 0.99) * 1e3:.3f}ms",
                        format_bytes(percentile(peaks[kind], 0.50)),
                    ]
                    for kind, values in sorted(self_times.items())
                ],
                title="per-operator self-time percentiles",
            )
        )

    lines.extend(_plancache_lines(entries))
    lines.extend(_optimizer_effort_lines(entries))
    lines.extend(_plan_hash_lines(entries))

    # One sample per row that ran a query: its execute (else profile)
    # facts' wall time.
    walls = []
    for entry in entries:
        facts = query_facts(entry)
        ran = facts.get("execute") or facts.get("profile") or {}
        if ran.get("wall_seconds") is not None:
            walls.append(float(ran["wall_seconds"]))
    if walls:
        lines.append("")
        lines.append(
            "query latency: "
            f"count={len(walls)} "
            f"p50={percentile(walls, 0.50) * 1e3:.3f}ms "
            f"p90={percentile(walls, 0.90) * 1e3:.3f}ms "
            f"p99={percentile(walls, 0.99) * 1e3:.3f}ms"
        )
    return "\n".join(lines)


def _plancache_lines(entries: list[dict]) -> list[str]:
    """Plan-cache effectiveness across history.

    Two sources are reconciled: ``optimize`` facts (a cache hit logs
    ``cached: true``, a miss logs a full search record), and the
    ``optimizer.plancache.*`` counters inside any metrics snapshots the
    log carries (``profile`` facts; counters are cumulative per
    snapshot, so the per-metric maximum is the era's total).
    """
    hits = misses = 0
    for entry in entries:
        optimize = query_facts(entry).get("optimize")
        if optimize is None:
            continue
        if optimize.get("cached"):
            hits += 1
        else:
            misses += 1
    counter_totals = {"hit": 0, "miss": 0, "evictions": 0}
    saw_counters = False
    for entry in entries:
        metrics = query_facts(entry).get("profile", {}).get("metrics")
        if not isinstance(metrics, dict):
            continue
        for short in counter_totals:
            value = metrics.get(f"optimizer.plancache.{short}")
            if isinstance(value, (int, float)):
                saw_counters = True
                counter_totals[short] = max(
                    counter_totals[short], int(value)
                )
    hits = max(hits, counter_totals["hit"])
    misses = max(misses, counter_totals["miss"])
    if not (hits or misses or saw_counters):
        return []
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    return [
        "",
        "plan cache: "
        f"lookups={lookups} hits={hits} misses={misses} "
        f"evictions={counter_totals['evictions']} "
        f"hit rate={rate:.1%}",
    ]


def _optimizer_effort_lines(entries: list[dict]) -> list[str]:
    """Enumeration effort across history: per optimiser mode (deep vs
    shallow), how hard the fresh searches worked — candidates generated,
    the fraction pruned by dominance, frontier churn, truncation — plus
    how many carried a decision trace. Fresh ``optimize`` facts stamp
    their :class:`~repro.core.optimizer.base.SearchStats` as ``search``;
    cache hits carry none (the search never ran)."""
    from repro.bench.reporting import render_table

    per_mode: dict[str, dict] = {}
    for entry in entries:
        optimize = query_facts(entry).get("optimize")
        if optimize is None or optimize.get("cached"):
            continue
        search = optimize.get("search")
        if not isinstance(search, dict):
            continue
        mode = "deep" if optimize.get("deep") else "shallow"
        slot = per_mode.setdefault(
            mode,
            {"searches": 0, "generated": [], "pruned": 0, "displaced": 0,
             "truncated": 0, "closures": 0, "traced": 0},
        )
        slot["searches"] += 1
        slot["generated"].append(float(search.get("generated", 0)))
        slot["pruned"] += int(search.get("pruned_dominated", 0))
        slot["displaced"] += int(search.get("displaced", 0))
        slot["truncated"] += int(search.get("truncated", 0))
        slot["closures"] += int(search.get("closures", 0))
        if optimize.get("search_trace"):
            slot["traced"] += 1
    if not per_mode:
        return []
    rows = []
    for mode, slot in sorted(per_mode.items()):
        generated_total = sum(slot["generated"])
        pruned_total = slot["pruned"] + slot["displaced"] + slot["truncated"]
        rows.append(
            [
                mode,
                str(slot["searches"]),
                f"{percentile(slot['generated'], 0.50):.0f}",
                f"{pruned_total / generated_total:.1%}"
                if generated_total
                else "-",
                str(slot["truncated"]),
                str(slot["closures"]),
                str(slot["traced"]),
            ]
        )
    return [
        "",
        render_table(
            ["mode", "searches", "gen p50", "pruned", "truncated",
             "closures", "traced"],
            rows,
            title="optimiser effort (fresh searches)",
        ),
    ]


def _plan_hash_lines(entries: list[dict]) -> list[str]:
    """Plan-shape population across history: per plan hash, how many
    optimisations chose it (split cached vs fresh) and the spec
    fingerprint it realises — the raw material of flip forensics."""
    from repro.bench.reporting import render_table

    per_hash: dict[str, dict] = {}
    for entry in entries:
        optimize = query_facts(entry).get("optimize", {})
        plan_hash = str(optimize.get("plan_hash", "") or "")
        if not plan_hash:
            continue
        slot = per_hash.setdefault(
            plan_hash,
            {"spec": str(optimize.get("spec_fingerprint", "") or ""),
             "chosen": 0, "cached": 0},
        )
        slot["chosen"] += 1
        if optimize.get("cached"):
            slot["cached"] += 1
    if not per_hash:
        return []
    rows = [
        [
            plan_hash,
            slot["spec"][:16],
            str(slot["chosen"]),
            str(slot["cached"]),
        ]
        for plan_hash, slot in sorted(
            per_hash.items(), key=lambda item: -item[1]["chosen"]
        )
    ]
    return [
        "",
        render_table(
            ["plan hash", "spec fp", "chosen", "from cache"],
            rows,
            title="plan shapes chosen",
        ),
    ]


# -- CLI --------------------------------------------------------------------


def _cli_log(args: argparse.Namespace) -> QueryLog:
    if args.log:
        return QueryLog(args.log)
    log = get_query_log()
    if log is None:
        raise ObservabilityError(
            "no query log: pass --log PATH or set $REPRO_QUERY_LOG"
        )
    return log


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.bench.reporting import render_table

    log = _cli_log(args)
    rows = []
    for entry in _windowed_entries(log, args):
        wall = entry.get("wall_seconds")
        rows.append(
            [
                str(entry.get("id", "?")),
                entry.get("kind", "?"),
                f"{wall * 1e3:.3f}ms" if wall is not None else "-",
                _entry_detail(entry),
            ]
        )
    if not rows:
        print(f"(empty query log: {log.path})")
        return 0
    print(render_table(["id", "kind", "wall", "detail"], rows))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.obs.profile import QueryProfile

    log = _cli_log(args)
    entry = log.entry(args.id)
    facts = query_facts(entry).get("profile")
    if facts is not None:
        profile = QueryProfile.from_dict(facts)
        print(profile.render())
        if args.html:
            Path(args.html).write_text(profile.to_html(), encoding="utf-8")
            print(f"wrote HTML report: {args.html}")
        if args.flamegraph:
            Path(args.flamegraph).write_text(
                profile.to_folded_stacks(), encoding="utf-8"
            )
            print(f"wrote folded stacks: {args.flamegraph}")
    else:
        if args.html or args.flamegraph:
            raise ObservabilityError(
                "--html/--flamegraph need an entry with a profile; "
                f"{entry.get('id')} is {entry.get('kind', '?')!r}"
            )
        print(json.dumps(entry, indent=2, sort_keys=True, default=str))
    return 0


def _diff_cells(node: dict | None) -> tuple[str, str, str]:
    """One side of a ``diff`` row: rows out, self time, peak memory."""
    if node is None:
        return "-", "-", "-"
    return (
        f"{node.get('rows_out', 0):,}",
        f"{node.get('self_seconds', 0.0) * 1e3:.3f}ms",
        format_bytes(node.get("peak_memory_bytes", 0)),
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.bench.reporting import render_table

    log = _cli_log(args)
    a, b = log.entry(args.a), log.entry(args.b)
    nodes_a, nodes_b = _profile_nodes(a), _profile_nodes(b)
    if not nodes_a or not nodes_b:
        raise ObservabilityError(
            "diff needs two entries with profiled operator trees"
        )
    rows = []
    for node_a, node_b in itertools.zip_longest(nodes_a, nodes_b):
        name_a = node_a.get("operator_kind", "?") if node_a else "-"
        name_b = node_b.get("operator_kind", "?") if node_b else "-"
        name = name_a if name_a == name_b else f"{name_a} vs {name_b}"
        (rows_a, self_a, peak_a), (rows_b, self_b, peak_b) = map(
            _diff_cells, (node_a, node_b)
        )
        rows.append([name, rows_a, rows_b, self_a, self_b, peak_a, peak_b])
    wall_a = query_facts(a)["profile"].get("wall_seconds", 0.0) or 0.0
    wall_b = query_facts(b)["profile"].get("wall_seconds", 0.0) or 0.0
    print(
        f"diff {a.get('id')} ({wall_a * 1e3:.3f}ms) vs "
        f"{b.get('id')} ({wall_b * 1e3:.3f}ms)"
    )
    print(
        render_table(
            ["operator", "rows A", "rows B", "self A", "self B", "peak A", "peak B"],
            rows,
        )
    )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    log = _cli_log(args)
    print(summarise(_windowed_entries(log, args)))
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    """Offline sentinel replay: rebuild (or extend) baselines from the
    windowed log and report every regression alert raised."""
    from repro.obs.sentinel import (
        BaselineStore,
        Sentinel,
        SentinelConfig,
    )

    log = _cli_log(args)
    entries = _windowed_entries(log, args)
    config = SentinelConfig()
    if args.window:
        config.window = args.window
    store = BaselineStore(
        args.baseline or None, reservoir=config.reservoir
    )
    sentinel = Sentinel(store=store, config=config)
    alerts = sentinel.evaluate_log(entries, chunk=args.chunk)
    if args.baseline:
        store.save()
    if args.json:
        print(
            json.dumps(
                {
                    "entries": len(entries),
                    "counts": sentinel.counts(),
                    "store": store.info(),
                    "alerts": [alert.to_dict() for alert in alerts],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        counts = sentinel.counts()
        print(
            f"sentinel replay: {len(entries)} entr"
            f"{'y' if len(entries) == 1 else 'ies'}, "
            f"{counts['total']} alert(s) "
            f"(plan_flip={counts['plan_flip']} "
            f"latency_drift={counts['latency_drift']} "
            f"qerror_drift={counts['qerror_drift']}), "
            f"{store.info()['fingerprints']} fingerprint(s) tracked"
        )
        for alert in alerts:
            print(f"  {alert.render()}")
        if args.baseline:
            print(f"baseline store: {args.baseline}")
    if args.fail_on_alert and alerts:
        return 2
    return 0


#: the service stage taxonomy in lifecycle order (kept literal here so
#: the CLI renders timelines without importing the service layer).
_STAGE_ORDER = (
    "queue", "parse", "plan_cache", "optimize", "execute", "serialize"
)


def _entry_detail(entry: dict) -> str:
    """One line of what a row records: a served query's outcome, then
    its stages' facts."""
    parts = []
    if entry.get("kind") == "service":
        parts.append(
            f"status={entry.get('status', '?')} "
            f"degraded={entry.get('degraded', '-')}"
        )
    facts = query_facts(entry)
    if "optimize" in facts:
        optimize = facts["optimize"]
        parts.append(
            f"cost={float(optimize.get('cost', 0.0)):.1f} "
            f"cached={bool(optimize.get('cached'))}"
        )
    ran = facts.get("execute") or facts.get("profile")
    if ran is not None:
        parts.append(f"rows={int(ran.get('rows_out', 0)):,}")
    if "profile" in facts:
        peak = int(facts["profile"].get("peak_memory_bytes", 0))
        parts.append(f"peak={format_bytes(peak)}")
    return " ".join(parts)


def render_trace(trace_id: str, entries: list[dict]) -> str:
    """One request's rows (a served query writes exactly one),
    time-ordered and offset from the first, each with its stages' facts
    and its per-stage latency breakdown."""
    ordered = sorted(entries, key=lambda e: float(e.get("ts", 0.0)))
    base = float(ordered[0].get("ts", 0.0))
    lines = [
        f"trace {trace_id}: "
        f"{len(ordered)} entr{'y' if len(ordered) == 1 else 'ies'}"
    ]
    for entry in ordered:
        offset = (float(entry.get("ts", base)) - base) * 1e3
        wall = float(entry.get("wall_seconds", 0.0) or 0.0)
        lines.append(
            f"  +{offset:9.3f}ms  {entry.get('kind', '?'):<8} "
            f"{entry.get('id', '?')}  wall={wall * 1e3:.3f}ms  "
            f"{_entry_detail(entry)}"
        )
        if entry.get("sql"):
            lines.append(f"        sql: {' '.join(str(entry['sql']).split())}")
        stages = entry.get("stages") or {}
        for stage in sorted(stages, key=_stage_rank):
            lines.append(
                f"        stage {stage:<12} "
                f"{float(stages[stage]) * 1e3:10.3f}ms"
            )
    return "\n".join(lines)


def _stage_rank(stage: str) -> tuple[int, str]:
    """Lifecycle order, then unknown stages by name."""
    if stage in _STAGE_ORDER:
        return (_STAGE_ORDER.index(stage), "")
    return (len(_STAGE_ORDER), stage)


def _cmd_trace(args: argparse.Namespace) -> int:
    log = _cli_log(args)
    matches = [
        entry
        for entry in log.entries()
        if entry.get("trace_id")
        and str(entry["trace_id"]).startswith(args.trace_id)
    ]
    if not matches:
        raise ObservabilityError(
            f"no entries carry a trace id matching {args.trace_id!r} "
            f"in {log.path}"
        )
    trace_ids = sorted({str(entry["trace_id"]) for entry in matches})
    if len(trace_ids) > 1:
        raise ObservabilityError(
            f"{args.trace_id!r} is ambiguous: matches {trace_ids}"
        )
    print(render_trace(trace_ids[0], matches))
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.querylog`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.querylog",
        description="Inspect a repro query log (append-only JSONL).",
    )
    parser.add_argument(
        "--log",
        default="",
        help="log path (default: $REPRO_QUERY_LOG)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    listing = commands.add_parser("list", help="one line per logged entry")
    _add_window_arguments(listing)
    show = commands.add_parser("show", help="render one entry")
    show.add_argument("id", help="entry id (unique prefixes work)")
    show.add_argument("--html", default="", help="also write an HTML report")
    show.add_argument(
        "--flamegraph", default="", help="also write folded stacks"
    )
    diff = commands.add_parser("diff", help="compare two profiles")
    diff.add_argument("a")
    diff.add_argument("b")
    summary = commands.add_parser(
        "summary", help="q-error and latency percentiles across history"
    )
    _add_window_arguments(summary)
    regress = commands.add_parser(
        "regress",
        help="replay history through the plan-regression sentinel",
    )
    _add_window_arguments(regress)
    regress.add_argument(
        "--baseline",
        default="",
        help="baseline store JSON to load/extend/save (default: in-memory)",
    )
    regress.add_argument(
        "--chunk",
        type=int,
        default=32,
        help="replay batch size (mimics the live tail's cadence)",
    )
    regress.add_argument(
        "--window",
        type=int,
        default=0,
        help="override the sentinel's sliding latency window",
    )
    regress.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    regress.add_argument(
        "--fail-on-alert",
        action="store_true",
        help="exit 2 when any alert is raised (CI gating)",
    )
    trace = commands.add_parser(
        "trace", help="reconstruct one request's timeline by trace id"
    )
    trace.add_argument(
        "trace_id", help="correlation id (unique prefixes work)"
    )
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "summary": _cmd_summary,
        "regress": _cmd_regress,
        "trace": _cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except ObservabilityError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
