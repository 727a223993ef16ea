"""The search-trace journal: rings, round-trips, replay, scoping.

The journal's contract has three legs checked here. Bounded memory:
per-class rings drop oldest events and *count* the drops, and the
replay downgrades its ``complete`` verdict accordingly. Fidelity: a
finished trace survives save -> load bit-for-bit, and :func:`replay`
reconstructs the optimiser's verdict (chosen plan, every runner-up's
cause of death) from the journal alone. Zero cost when off: a disabled
trace records nothing and leaves the optimiser's output untouched.
"""

from collections import defaultdict

import pytest

from repro import (
    disable_plan_cache,
    enable_plan_cache,
    optimize_dqo,
    plan_query,
)
from repro.core import DynamicProgrammingOptimizer, dqo_config
from repro.core.cost.cardinality import RelationEstimate
from repro.core.optimizer.plancache import PlanCache
from repro.core.optimizer.pruning import DPEntry
from repro.core.plan import AccessPath, implementation_label
from repro.core.properties import PropertyVector
from repro.errors import ObservabilityError
from repro.obs.search import (
    SearchTrace,
    TraceEvent,
    get_search_trace,
    load_trace,
    replay,
    set_search_trace,
    trace_search,
)
from repro.obs.search.trace import MAX_CLASSES


def make_entry(cost=1.0, rows=10.0):
    return DPEntry(
        "scan", AccessPath("T"), cost, PropertyVector(), RelationEstimate(rows, {})
    )


@pytest.fixture
def traced_search(join_catalog, paper_query):
    """One real optimisation journalled end to end (plan cache off so
    the search actually runs)."""
    disable_plan_cache()
    try:
        with trace_search() as trace:
            result = optimize_dqo(
                plan_query(paper_query, join_catalog), join_catalog
            )
    finally:
        enable_plan_cache()
    return trace, result


class TestJournalBounds:
    def test_ring_overflow_counts_dropped(self):
        trace = SearchTrace(capacity_per_class=8)
        trace.begin("spec")
        for i in range(20):
            trace.generated("j", make_entry(float(i)))
        summary = trace.summary()
        assert summary["generated"] == 20
        assert summary["dropped"] == 12
        assert len(trace.events("j")) == 8
        # The survivors are the *latest* events (ring, not truncation).
        assert [event.cost for event in trace.events("j")] == [
            float(i) for i in range(12, 20)
        ]

    def test_capacity_floor(self):
        trace = SearchTrace(capacity_per_class=1)  # floored to 8
        trace.begin("spec")
        for i in range(8):
            trace.generated("j", make_entry(float(i)))
        assert trace.summary()["dropped"] == 0

    def test_class_table_is_capped(self):
        trace = SearchTrace(capacity_per_class=8)
        trace.begin("spec")
        for i in range(MAX_CLASSES):
            trace.generated(f"c{i}", make_entry())
        assert len(trace.classes()) == MAX_CLASSES
        trace.generated("one-too-many", make_entry())
        assert len(trace.classes()) == MAX_CLASSES
        assert trace.summary()["dropped"] >= 1

    def test_replay_flags_incomplete_journals(self):
        trace = SearchTrace(capacity_per_class=8)
        trace.begin("spec")
        for i in range(50):
            trace.generated("j", make_entry(float(i)))
        assert replay(trace)["complete"] is False

    def test_payload_is_lazy_until_read(self):
        """The hot loop records a reference; the human-readable strings
        are formatted at read time, never during the search."""
        trace = SearchTrace()
        trace.begin("spec")
        entry = make_entry()
        trace.generated("j", entry)
        raw = trace._pending[0]
        # Hot loop stores a capture tuple holding the entry reference,
        # not a TraceEvent with assigned ids and formatted strings.
        assert not isinstance(raw, TraceEvent)
        assert raw == ("generated", "j", entry)
        assert raw[2] is entry
        (event,) = trace.events("j")
        assert event.source is None
        assert "scan" in event.plan.lower()
        assert event.breakdown["op"] == "scan"
        assert "local_cost" in event.breakdown


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path, traced_search):
        trace, result = traced_search
        assert trace.summary()["chosen_fingerprint"] == result.plan_fingerprint
        path = trace.save(tmp_path / "trace.json")
        loaded = load_trace(path)
        assert loaded.to_dict() == trace.to_dict()
        assert loaded.summary() == trace.summary()

    def test_replay_reconstructs_the_verdict(self, traced_search):
        trace, result = traced_search
        rep = replay(trace)
        assert rep["complete"] is True
        assert rep["chosen"]["fingerprint"] == result.plan_fingerprint
        assert rep["candidates"]
        # Every death names its killer.
        for record in rep["deaths"].values():
            assert record["cause"] in ("dominated", "displaced", "truncated")
            assert record["by"] is not None
        # Replay works off the serialised form too.
        assert replay(trace.to_dict())["chosen"] == rep["chosen"]

    def test_dead_candidates_keep_their_mode(self, join_catalog):
        """Under four process workers one algorithm grouping a key of the
        join's probe input has serial, parallel and parallel@process
        siblings; each dead one journals its own label, so the
        killed-candidate list can tell them apart."""
        query = "SELECT S.B, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY S.B"
        trace = SearchTrace(capacity_per_class=1 << 16)
        DynamicProgrammingOptimizer(
            join_catalog,
            config=dqo_config(workers=4, backend="process"),
            plan_cache=PlanCache(),
            trace=trace,
        ).optimize(plan_query(query, join_catalog))
        rep = replay(trace)
        modes_by_algorithm = defaultdict(set)
        for entry_id in rep["deaths"]:
            payload = rep["candidates"][entry_id]
            breakdown = payload["breakdown"]
            if "algorithm" not in breakdown:
                continue  # a scan or a sort enforcer
            label = implementation_label(breakdown["algorithm"], breakdown["mode"])
            assert f"[{label}]" in payload["plan"]
            modes_by_algorithm[breakdown["algorithm"]].add(breakdown["mode"])
        assert max(len(modes) for modes in modes_by_algorithm.values()) >= 3
        assert "parallel@process" in set().union(*modes_by_algorithm.values())

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ObservabilityError, match="schema"):
            SearchTrace.from_dict({"schema_version": 99})
        with pytest.raises(ObservabilityError):
            SearchTrace.from_dict("not a dict")

    def test_unreadable_files_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            load_trace(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObservabilityError):
            load_trace(bad)

    def test_finish_autosaves_with_save_dir(self, tmp_path):
        trace = SearchTrace(save_dir=tmp_path)
        trace.begin("spec")
        trace.generated("j", make_entry())
        stamp = trace.finish("abcd1234", 1.0)
        assert stamp["path"] is not None and stamp["path"].endswith(".json")
        assert load_trace(stamp["path"]).chosen_fingerprint == "abcd1234"
        assert stamp["summary"]["generated"] == 1


class TestScoping:
    def test_disabled_trace_is_ignored_by_the_optimiser(
        self, join_catalog, paper_query
    ):
        trace = SearchTrace()
        trace.enabled = False
        set_search_trace(trace)
        disable_plan_cache()
        try:
            result = optimize_dqo(
                plan_query(paper_query, join_catalog), join_catalog
            )
        finally:
            enable_plan_cache()
            set_search_trace(None)
        assert trace.summary()["events"] == 0
        assert result.search_trace is None

    def test_trace_search_restores_the_previous_handle(self):
        outer = SearchTrace()
        set_search_trace(outer)
        try:
            with trace_search() as inner:
                assert get_search_trace() is inner
            assert get_search_trace() is outer
        finally:
            set_search_trace(None)

    def test_live_trace_stamps_the_result(self, traced_search):
        trace, result = traced_search
        assert result.search_trace is not None
        assert result.search_trace["summary"]["generated"] > 0
        assert (
            result.search_trace["summary"]["chosen_fingerprint"]
            == result.plan_fingerprint
        )
