"""The decision-trace recorder: a journal of the optimiser's search.

The DP search (:mod:`repro.core.optimizer.dp`) makes thousands of micro
decisions per query — candidates generated, kept on a Pareto frontier,
dominated by a stronger entry, displaced by a later one, truncated by
the greedy baseline. A :class:`SearchTrace` journals every one of those
frontier events, per DP class (scan, join subset, group-by, finalists),
so the search itself becomes observable:

* ``EXPLAIN WHY`` (:mod:`repro.obs.search.explain`) reads the journal to
  name each runner-up's cause of death;
* :func:`replay` reconstructs the frontiers from the journal alone and
  cross-checks them against the optimiser's verdict;
* exported JSON traces are the per-decision substrate a learned plan
  chooser trains on (ROADMAP item 2).

Design constraints mirror the rest of :mod:`repro.obs`:

* **opt-in and zero-cost when absent** — the optimiser holds a single
  ``trace`` reference that is ``None`` by default; every hook is one
  ``is not None`` check. Install a process-wide trace with
  :func:`set_search_trace` or scope one with :func:`trace_search`.
* **bounded memory** — events ring-buffer per DP class
  (``capacity_per_class``); overflow increments a per-class ``dropped``
  counter instead of growing without bound, and the class table itself
  is capped.
* **schema-versioned JSON** — :meth:`SearchTrace.to_dict` /
  :meth:`SearchTrace.save` round-trip through
  :meth:`SearchTrace.from_dict` / :func:`load_trace`, guarded by
  :data:`TRACE_SCHEMA_VERSION`.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, deque
from contextlib import contextmanager
from operator import itemgetter
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError

#: schema version stamped into (and required of) exported traces.
TRACE_SCHEMA_VERSION = 1

#: event kinds a journal may contain, in lifecycle order.
EVENT_KINDS = (
    "generated",
    "kept",
    "dominated",
    "displaced",
    "truncated",
    "finalist",
    "oracle",
)

#: default ring-buffer capacity per DP class.
DEFAULT_CAPACITY = 512

#: cap on distinct DP classes tracked (a 2^n join DP cannot blow up the
#: journal's class table); overflow events count as dropped here.
MAX_CLASSES = 4096

_OVERFLOW_CLASS = "__overflow__"

#: hot-path buffer length that triggers routing into the per-class
#: rings; bounds the unrouted-event memory between flushes.
_FLUSH_AT = 4096


@dataclass
class TraceEvent:
    """One frontier event of the search journal.

    ``entry_id`` identifies a candidate across its lifecycle (its
    ``generated`` event carries the payload; later fate events reference
    the id). ``other_id`` names the dominating/displacing entry for
    death events — "who killed it".
    """

    seq: int
    kind: str
    cls: str
    entry_id: int
    other_id: int | None = None
    cost: float = 0.0
    rows: float = 0.0
    #: one-line plan description (root operator of the candidate).
    plan: str = ""
    #: plan-shape hash — recorded for ``finalist`` events only (hashing
    #: every transient candidate is not worth the enabled-mode budget).
    fingerprint: str = ""
    #: property-vector rendering of the candidate's output stream.
    properties: str = ""
    #: compacted physiological recipe (granule choices), when deep.
    granules: str = ""
    #: per-candidate cost attribution (local vs input cost, algorithm,
    #: estimated groups) — see :meth:`SearchTrace._payload`.
    breakdown: dict = field(default_factory=dict)
    #: finalist rank (0 = the chosen plan); None elsewhere.
    rank: int | None = None
    #: deferred payload source — the search's entry (a
    #: :class:`~repro.core.optimizer.pruning.DPEntry`) for candidates
    #: that outlive the search, or a compact epitaph dict (op / option /
    #: costs) for ones killed on arrival, whose entries the journal
    #: deliberately does not keep alive. The human-readable fields above
    #: are formatted lazily at *read* time (:meth:`materialise`) — the
    #: entry's plan node included — never in the optimiser's hot loop.
    source: object = field(default=None, repr=False, compare=False)

    def materialise(self) -> None:
        """Format the deferred description fields from the recorded
        entry or epitaph (idempotent; a no-op for events recorded without
        either)."""
        if self.source is None:
            return
        if isinstance(self.source, dict):
            info, self.source = self.source, None
            option = info["option"]
            local_cost = float(info["local_cost"])
            self.breakdown = {
                "op": info["op"],
                "local_cost": local_cost,
                "input_cost": float(info["cost"]) - local_cost,
            }
            label = info["op"]
            if option is not None:
                self.breakdown["algorithm"] = option.algorithm.name
                self.breakdown["mode"] = option.mode
                # The node's own label, mode included: the serial and
                # parallel siblings of one algorithm die separately.
                label = f"{label}[{option.label}]"
            self.plan = f"{label} cost={float(info['cost']):.6g}"
            return
        entry, self.source = self.source, None
        node, properties = entry.plan, entry.properties
        breakdown: dict = {
            "op": node.op,
            "local_cost": float(node.local_cost),
            "input_cost": float(node.cost - node.local_cost),
        }
        option = node.option
        if option is not None:
            breakdown["algorithm"] = option.algorithm.name
            breakdown["estimated_groups"] = float(node.estimated_groups)
            breakdown["parallel"] = option.parallel
            breakdown["mode"] = option.mode
            if option.recipe is not None:
                self.granules = " ".join(option.recipe.explain().split())[:160]
        self.breakdown = breakdown
        self.plan = node.describe()
        self.properties = properties.describe()

    def to_dict(self) -> dict:
        """JSON-friendly rendering (stable keys, Nones elided)."""
        self.materialise()
        payload: dict = {
            "seq": self.seq,
            "kind": self.kind,
            "cls": self.cls,
            "entry_id": self.entry_id,
        }
        if self.other_id is not None:
            payload["other_id"] = self.other_id
        if self.kind in ("generated", "finalist", "oracle"):
            payload["cost"] = self.cost
            payload["rows"] = self.rows
            payload["plan"] = self.plan
            payload["properties"] = self.properties
            if self.granules:
                payload["granules"] = self.granules
            if self.breakdown:
                payload["breakdown"] = self.breakdown
        if self.fingerprint:
            payload["fingerprint"] = self.fingerprint
        if self.rank is not None:
            payload["rank"] = self.rank
        return payload

    @classmethod
    def from_dict(cls, raw: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seq=int(raw.get("seq", 0)),
            kind=str(raw.get("kind", "")),
            cls=str(raw.get("cls", "")),
            entry_id=int(raw.get("entry_id", -1)),
            other_id=raw.get("other_id"),
            cost=float(raw.get("cost", 0.0)),
            rows=float(raw.get("rows", 0.0)),
            plan=str(raw.get("plan", "")),
            fingerprint=str(raw.get("fingerprint", "")),
            properties=str(raw.get("properties", "")),
            granules=str(raw.get("granules", "")),
            breakdown=dict(raw.get("breakdown", {}) or {}),
            rank=raw.get("rank"),
        )


class SearchTrace:
    """An opt-in journal of one optimisation's frontier events.

    One trace records one :meth:`begin` → :meth:`finish` search; a
    subsequent ``begin`` resets it. All methods are thread-safe (the
    trace handle is process-wide), but one trace records one search at
    a time — concurrent optimisations should each get their own.
    """

    def __init__(
        self,
        capacity_per_class: int = DEFAULT_CAPACITY,
        save_dir: str | Path | None = None,
    ) -> None:
        #: master switch: a disabled trace is never picked up by the
        #: optimiser (checked once per optimise call, not per event).
        self.enabled = True
        self._capacity = max(int(capacity_per_class), 8)
        self._save_dir = Path(save_dir) if save_dir is not None else None
        self._lock = threading.Lock()
        self._traces_recorded = 0
        self._reset("")

    # -- lifecycle -----------------------------------------------------------

    def _reset(self, spec_fingerprint: str) -> None:
        self._spec_fingerprint = spec_fingerprint
        self._meta: dict = {}
        self._classes: dict[str, deque] = {}
        self._dropped: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._ids: dict[int, int] = {}
        #: unrouted hot-path records; flushed into the rings at
        #: ``_FLUSH_AT`` and before every read. ``itertools.count`` and
        #: ``list.append`` are atomic under the GIL, so the hot path
        #: never takes the lock.
        self._pending: list = []
        self._id_counter = itertools.count(0)
        self._seq_counter = itertools.count(1)
        self._finished = False
        self._chosen_fingerprint = ""
        self._chosen_cost = 0.0
        self._path: Path | None = None

    def begin(self, spec_fingerprint: str, **meta) -> None:
        """Start journalling a fresh search (drops any previous one)."""
        with self._lock:
            self._reset(spec_fingerprint)
            self._meta = dict(meta)

    def finish(
        self, chosen_fingerprint: str, cost: float, stats: dict | None = None
    ) -> dict:
        """Seal the journal; returns the stamp attached to query-log
        rows and profiles: ``{"path": ..., "summary": {...}}`` (path is
        None unless the trace was constructed with ``save_dir``)."""
        with self._lock:
            self._finished = True
            self._chosen_fingerprint = chosen_fingerprint
            self._chosen_cost = float(cost)
            if stats:
                self._meta["search_stats"] = dict(stats)
            self._traces_recorded += 1
            sequence = self._traces_recorded
            if self._save_dir is None:
                # The stamp's summary is tallied straight off the pending
                # buffer (a C-speed Counter pass over the capture tuples)
                # so sealing a trace does not pay for routing inside the
                # optimise call; the rings materialise lazily when the
                # first reader flushes.
                counts = dict(self._counts)
                tally = Counter(map(itemgetter(0), self._pending))
                for kind, seen in tally.items():
                    if kind.startswith("dead_"):
                        # A collapsed generated+death pair counts twice.
                        counts["generated"] = (
                            counts.get("generated", 0) + seen
                        )
                        kind = kind[5:]
                    counts[kind] = counts.get(kind, 0) + seen
                classes = set(self._classes)
                classes.update(map(itemgetter(1), self._pending))
                summary = {
                    kind: counts.get(kind, 0) for kind in EVENT_KINDS
                }
                summary["events"] = sum(counts.values())
                summary["classes"] = min(len(classes), MAX_CLASSES)
                summary["dropped"] = sum(self._dropped.values())
                summary["chosen_fingerprint"] = chosen_fingerprint
                self._path = None
                return {"path": None, "summary": summary}
            self._flush()
        name = (
            f"search_trace_{(chosen_fingerprint or 'plan')[:12]}"
            f"_{sequence:04d}.json"
        )
        path = self._save_dir / name
        self.save(path)
        with self._lock:
            self._path = path
        return self.log_stamp()

    def log_stamp(self) -> dict:
        """The compact attachment for query-log rows / profiles."""
        return {
            "path": str(self._path) if self._path is not None else None,
            "summary": self.summary(),
        }

    # -- event ingestion (called from the optimiser's hot loop) --------------
    #
    # The hot path appends *capture tuples* — ``(kind, cls, entry, ...)``
    # — onto ``_pending`` without taking the lock: ``list.append`` is
    # atomic under the GIL and a small tuple costs a fraction of any
    # field extraction. Everything else is deferred: :meth:`_flush` (at
    # ``_FLUSH_AT``, and before every read) assigns seq/entry ids, reads
    # cost/rows off the captured references, and routes flat ``(seq,
    # kind, cls, entry_id, other_id, cost, rows, source, fingerprint,
    # rank)`` records into the bounded per-class rings; :meth:`_inflate`
    # builds the TraceEvent (and :meth:`TraceEvent.materialise` the
    # strings) at read time.
    #
    # Lifetimes matter as much as instruction counts here. Survivors'
    # entry references are safe to capture: the DP table keeps them
    # alive regardless, so the journal adds no lifetime. But a candidate
    # dominated (or greedy-truncated) on arrival would otherwise die by
    # refcount before the next GC pass — pinning those graphs in
    # ``_pending`` inflates the collector's net-allocation count and the
    # resulting generation scans dwarf the append cost itself. Since the
    # death follows its ``generated`` capture *adjacently* (the same
    # ``pareto_insert`` call), the death recorders collapse the pair in
    # place into one ``("dead", ...)`` record holding only scalars and
    # shared singletons (op string, the entry's option, costs) — a
    # compact epitaph read off the entry's recipe — and drop the
    # reference so the doomed graph dies young exactly as in an untraced
    # search. Nothing here reads ``entry.plan``: the search builds a
    # node only for what is read, and a journalled search must not build
    # more than an untraced one. ``from_dict`` loads TraceEvent objects
    # straight into the rings, so readers accept both forms.

    def _flush(self) -> None:
        """Assign ids/seqs and route pending records into the rings
        (call with the lock held)."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        classes = self._classes
        counts = self._counts
        dropped = self._dropped
        capacity = self._capacity
        ids = self._ids
        seq_counter = self._seq_counter
        id_counter = self._id_counter

        def route(cls: str, kind: str, routed) -> None:
            ring = classes.get(cls)
            if ring is None:
                if len(classes) >= MAX_CLASSES:
                    dropped[_OVERFLOW_CLASS] = (
                        dropped.get(_OVERFLOW_CLASS, 0) + 1
                    )
                    return
                ring = deque(maxlen=capacity)
                classes[cls] = ring
            if len(ring) == capacity:
                dropped[cls] = dropped.get(cls, 0) + 1
            ring.append(routed)
            counts[kind] = counts.get(kind, 0) + 1

        for record in pending:
            kind = record[0]
            cls = record[1]
            if kind == "generated":
                entry = record[2]
                entry_id = next(id_counter)
                ids[id(entry)] = entry_id
                route(cls, kind, (
                    next(seq_counter), kind, cls, entry_id, None,
                    float(entry.cost), float(entry.estimate.rows),
                    entry, "", None,
                ))
            elif kind == "kept":
                entry = record[2]
                route(cls, kind, (
                    next(seq_counter), kind, cls, ids.get(id(entry), -1),
                    None, float(entry.cost), 0.0, None, "", None,
                ))
            elif kind in ("dead_dominated", "dead_truncated"):
                # A collapsed generated+death pair: expand it back into
                # the two journal events it stands for, payload rebuilt
                # from the captured epitaph scalars.
                fate = kind[5:]
                entry_id = next(id_counter)
                cost = float(record[3])
                route(cls, "generated", (
                    next(seq_counter), "generated", cls, entry_id, None,
                    cost, float(record[4]),
                    {
                        "op": record[5],
                        "option": record[6],
                        "local_cost": record[7],
                        "cost": cost,
                    },
                    "", None,
                ))
                route(cls, fate, (
                    next(seq_counter), fate, cls, entry_id,
                    ids.get(id(record[2]), -1), cost, 0.0, None, "", None,
                ))
            elif kind == "finalist":
                entry = record[2]
                route(cls, kind, (
                    next(seq_counter), kind, cls, next(id_counter), None,
                    float(entry.cost), float(entry.estimate.rows),
                    entry, record[3], record[4],
                ))
            elif kind == "oracle":
                route(cls, kind, TraceEvent(
                    seq=next(seq_counter), kind=kind, cls=cls,
                    entry_id=next(id_counter), cost=float(record[2]),
                    rows=float(record[3]), plan=record[4],
                ))
            else:  # dominated / displaced / truncated
                entry = record[2]
                route(cls, kind, (
                    next(seq_counter), kind, cls, ids.pop(id(entry), -1),
                    ids.get(id(record[3]), -1), float(entry.cost), 0.0,
                    None, "", None,
                ))

    @staticmethod
    def _inflate(record) -> TraceEvent:
        if isinstance(record, TraceEvent):
            return record
        (seq, kind, cls, entry_id, other_id, cost, rows, source,
         fingerprint, rank) = record
        return TraceEvent(
            seq=seq, kind=kind, cls=cls, entry_id=entry_id,
            other_id=other_id, cost=float(cost), rows=float(rows),
            source=source, fingerprint=fingerprint, rank=rank,
        )

    def generated(self, cls: str, entry) -> None:
        """A candidate was emitted into a frontier.

        Only the entry *reference* is captured now; id assignment,
        field reads, and the descriptive strings all happen at flush or
        read time — the hot loop pays one tuple and one append."""
        pending = self._pending
        pending.append(("generated", cls, entry))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def kept(self, cls: str, entry) -> None:
        """The candidate entered the frontier."""
        pending = self._pending
        pending.append(("kept", cls, entry))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def dominated(self, cls: str, entry, by) -> None:
        """The candidate was rejected: ``by`` dominates it."""
        pending = self._pending
        if pending:
            last = pending[-1]
            if last[0] == "generated" and last[2] is entry:
                pending[-1] = (
                    "dead_dominated", cls, by, entry.cost, entry.estimate.rows,
                    entry.op, entry.option, entry.local_cost,
                )
                return
        pending.append(("dominated", cls, entry, by))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def displaced(self, cls: str, entry, by) -> None:
        """A retained entry was evicted: ``by`` dominates it."""
        pending = self._pending
        pending.append(("displaced", cls, entry, by))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def truncated(self, cls: str, entry, by) -> None:
        """The candidate lost a cheapest-only truncation to ``by``
        (the greedy baseline's frontier policy)."""
        pending = self._pending
        if pending:
            last = pending[-1]
            if last[0] == "generated" and last[2] is entry:
                pending[-1] = (
                    "dead_truncated", cls, by, entry.cost, entry.estimate.rows,
                    entry.op, entry.option, entry.local_cost,
                )
                return
        pending.append(("truncated", cls, entry, by))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def finalist(self, rank: int, entry, fingerprint: str) -> None:
        """One complete decorated plan, best-first (rank 0 = chosen)."""
        pending = self._pending
        pending.append(("finalist", "final", entry, fingerprint, rank))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    def oracle(self, description: str, cost: float, rows: float) -> None:
        """One plan of the exhaustive oracle's space (it never prunes,
        so every plan is a single ``oracle`` event)."""
        pending = self._pending
        pending.append(("oracle", "exhaustive", cost, rows, description))
        if len(pending) >= _FLUSH_AT:
            with self._lock:
                self._flush()

    # -- accessors -----------------------------------------------------------

    @property
    def spec_fingerprint(self) -> str:
        """The traced query's normalised fingerprint."""
        return self._spec_fingerprint

    @property
    def chosen_fingerprint(self) -> str:
        """Plan-shape hash of the winner (set by :meth:`finish`)."""
        return self._chosen_fingerprint

    @property
    def path(self) -> Path | None:
        """Where the trace was auto-saved, if ``save_dir`` was given."""
        return self._path

    def classes(self) -> list[str]:
        """The DP classes journalled so far."""
        with self._lock:
            self._flush()
            return list(self._classes)

    def events(self, cls: str | None = None) -> list[TraceEvent]:
        """The journal (one class, or all classes in seq order)."""
        with self._lock:
            self._flush()
            if cls is not None:
                merged = [
                    self._inflate(record)
                    for record in self._classes.get(cls, ())
                ]
            else:
                merged = [
                    self._inflate(record)
                    for ring in self._classes.values()
                    for record in ring
                ]
                merged.sort(key=lambda event: event.seq)
        for event in merged:
            event.materialise()
        return merged

    def summary(self) -> dict:
        """Counts per event kind, class count, and drops — the compact
        form stamped into query-log rows."""
        with self._lock:
            self._flush()
            payload = {kind: self._counts.get(kind, 0) for kind in EVENT_KINDS}
            payload["events"] = sum(self._counts.values())
            payload["classes"] = len(self._classes)
            payload["dropped"] = sum(self._dropped.values())
            payload["chosen_fingerprint"] = self._chosen_fingerprint
        return payload

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """The full schema-versioned journal."""
        with self._lock:
            self._flush()
            return {
                "schema_version": TRACE_SCHEMA_VERSION,
                "spec_fingerprint": self._spec_fingerprint,
                "meta": dict(self._meta),
                "chosen": {
                    "fingerprint": self._chosen_fingerprint,
                    "cost": self._chosen_cost,
                },
                "finished": self._finished,
                "classes": {
                    cls: {
                        "dropped": self._dropped.get(cls, 0),
                        "events": [
                            self._inflate(record).to_dict() for record in ring
                        ],
                    }
                    for cls, ring in self._classes.items()
                },
            }

    def to_json(self, indent: int | None = None) -> str:
        """The journal as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the journal to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2), encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, raw: dict) -> "SearchTrace":
        """Rehydrate a journal exported by :meth:`to_dict`.

        :raises ObservabilityError: on a schema-version mismatch.
        """
        if not isinstance(raw, dict) or raw.get(
            "schema_version"
        ) != TRACE_SCHEMA_VERSION:
            raise ObservabilityError(
                "search trace schema mismatch: expected version "
                f"{TRACE_SCHEMA_VERSION}, got "
                f"{raw.get('schema_version') if isinstance(raw, dict) else raw!r}"
            )
        trace = cls()
        trace._spec_fingerprint = str(raw.get("spec_fingerprint", ""))
        trace._meta = dict(raw.get("meta", {}) or {})
        chosen = raw.get("chosen", {}) or {}
        trace._chosen_fingerprint = str(chosen.get("fingerprint", ""))
        trace._chosen_cost = float(chosen.get("cost", 0.0))
        trace._finished = bool(raw.get("finished", False))
        max_seq = 0
        max_id = 0
        for name, record in (raw.get("classes", {}) or {}).items():
            ring: deque[TraceEvent] = deque(maxlen=trace._capacity)
            for event_raw in record.get("events", []):
                event = TraceEvent.from_dict(event_raw)
                ring.append(event)
                trace._counts[event.kind] = (
                    trace._counts.get(event.kind, 0) + 1
                )
                max_seq = max(max_seq, event.seq)
                max_id = max(max_id, event.entry_id + 1)
            trace._classes[name] = ring
            dropped = int(record.get("dropped", 0))
            if dropped:
                trace._dropped[name] = dropped
        trace._seq_counter = itertools.count(max_seq + 1)
        trace._id_counter = itertools.count(max_id)
        return trace


def load_trace(path: str | Path) -> SearchTrace:
    """Load a saved trace JSON.

    :raises ObservabilityError: on unreadable or schema-mismatched files.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ObservabilityError(f"cannot load search trace {path}: {error}")
    return SearchTrace.from_dict(raw)


# -- journal replay ----------------------------------------------------------


def replay(trace: SearchTrace | dict) -> dict:
    """Reconstruct the search's outcome from the journal alone.

    Returns::

        {
          "chosen": finalist-rank-0 event dict (or None),
          "finalists": [finalist event dicts, rank order],
          "frontiers": {cls: [entry ids alive at the end]},
          "candidates": {entry_id: generated event dict},
          "deaths": {entry_id: {"cause": kind, "by": other_id}},
          "complete": bool  # False when ring buffers dropped events
        }

    ``complete`` is the replay's own integrity verdict: with no drops,
    every generated candidate is either alive in some frontier or has
    exactly one recorded cause of death.
    """
    if isinstance(trace, dict):
        trace = SearchTrace.from_dict(trace)
    frontiers: dict[str, list[int]] = {}
    candidates: dict[int, dict] = {}
    deaths: dict[int, dict] = {}
    finalists: list[dict] = []
    dropped = trace.summary()["dropped"]
    for event in trace.events():
        if event.kind == "generated":
            candidates[event.entry_id] = event.to_dict()
        elif event.kind == "kept":
            frontier = frontiers.setdefault(event.cls, [])
            if event.entry_id not in frontier:
                frontier.append(event.entry_id)
        elif event.kind in ("dominated", "displaced", "truncated"):
            deaths[event.entry_id] = {
                "cause": event.kind,
                "by": event.other_id,
            }
            frontier = frontiers.get(event.cls)
            if frontier and event.entry_id in frontier:
                frontier.remove(event.entry_id)
        elif event.kind == "finalist":
            finalists.append(event.to_dict())
    finalists.sort(key=lambda item: item.get("rank", 0))
    alive = {
        entry_id for frontier in frontiers.values() for entry_id in frontier
    }
    accounted = all(
        entry_id in alive or entry_id in deaths for entry_id in candidates
    )
    return {
        "chosen": finalists[0] if finalists else None,
        "finalists": finalists,
        "frontiers": frontiers,
        "candidates": candidates,
        "deaths": deaths,
        "complete": dropped == 0 and accounted,
    }


# -- process-wide handle (opt-in) --------------------------------------------

_global_trace: SearchTrace | None = None
_global_lock = threading.Lock()


def get_search_trace() -> SearchTrace | None:
    """The process-wide search trace, or None (the default: no
    journalling, zero cost)."""
    return _global_trace


def set_search_trace(trace: SearchTrace | None) -> None:
    """Install (or, with None, remove) the process-wide search trace."""
    global _global_trace
    with _global_lock:
        _global_trace = trace


@contextmanager
def trace_search(
    capacity_per_class: int = DEFAULT_CAPACITY,
    save_dir: str | Path | None = None,
):
    """Scope a fresh :class:`SearchTrace` as the process-wide handle::

        with trace_search() as trace:
            result = optimize_dqo(plan, catalog)
        journal = trace.to_dict()
    """
    trace = SearchTrace(capacity_per_class=capacity_per_class, save_dir=save_dir)
    previous = get_search_trace()
    set_search_trace(trace)
    try:
        yield trace
    finally:
        set_search_trace(previous)
