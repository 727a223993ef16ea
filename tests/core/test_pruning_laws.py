"""Algebraic laws of dominance pruning and property vectors (hypothesis).

The DP's correctness rests on ``covers`` being a partial order and on
``pareto_insert`` maintaining an antichain that always contains a
cheapest entry; and the plan space's one-derivation-per-output-order on
every option of an order deriving the same vector. These laws are
checked on arbitrary generated vectors.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost.cardinality import RelationEstimate
from repro.core.optimizer.base import PropertyScope, SearchStats, dqo_config
from repro.core.optimizer.pruning import DPEntry, dominates, pareto_insert
from repro.core.optimizer.rules import grouping_options, join_options
from repro.core.plan import AccessPath
from repro.core.properties import Correlations, PropertyVector

COLUMNS = ("a", "b", "c")


def subsets():
    return st.frozensets(st.sampled_from(COLUMNS))


vectors = st.builds(
    PropertyVector, sorted_on=subsets(), clustered_on=subsets(), dense=subsets()
)


class TestCoversIsPartialOrder:
    @given(vectors)
    def test_reflexive(self, vector):
        assert vector.covers(vector)

    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @given(vectors, vectors)
    def test_antisymmetric(self, a, b):
        if a.covers(b) and b.covers(a):
            assert a == b

    @given(vectors, vectors)
    def test_union_is_upper_bound(self, a, b):
        union = a.union(b)
        assert union.covers(a) and union.covers(b)

    @given(vectors)
    def test_projection_is_weaker(self, vector):
        assert vector.covers(vector.restrict_to_orders())
        assert vector.covers(vector.restrict_to_columns(["a"]))

    @given(vectors)
    def test_correlation_closure_is_stronger_and_idempotent(self, vector):
        correlations = Correlations(frozenset({("a", "b"), ("b", "c")}))
        closed = correlations.close_sorted(vector)
        assert closed.covers(vector)
        assert correlations.close_sorted(closed) == closed


#: the widest option spaces: every algorithm in every loop and backend
#: mode.
WIDEST = dqo_config(workers=4, backend="process")
columns = st.sampled_from(COLUMNS)
correlation_sets = st.builds(Correlations, st.frozensets(st.tuples(columns, columns)))
scopes = st.sampled_from(list(PropertyScope))
sizes = st.floats(0.0, 1e6)


def first_of_each_order(options):
    first = {}
    for option in options:
        first.setdefault(option.output_order, option)
    assert len(first) < len(options)  # some order is shared
    return first


class TestDerivationReadsOnlyTheOutputOrder:
    """The plan space derives a candidate's properties once per output
    order of each input pair and serves every option of that order the
    same vector. Any rule that reads more of an option than its
    ``output_order`` must fail here, not yield a silently wrong property."""

    @settings(max_examples=200)
    @given(vectors, vectors, columns, columns, correlation_sets, scopes, sizes,
           st.dictionaries(columns, sizes))
    def test_join_options(self, build, probe, build_key, probe_key,
                          correlations, scope, rows, domains):
        options = join_options(WIDEST)
        first = first_of_each_order(options)
        inputs = (build, probe, build_key, probe_key, correlations, scope, rows, domains)
        for option in options:
            assert option.derive(*inputs) == first[option.output_order].derive(*inputs)

    @settings(max_examples=200)
    @given(vectors, columns, correlation_sets, scopes)
    def test_grouping_options(self, props, key, correlations, scope):
        options = grouping_options(WIDEST, 4)
        first = first_of_each_order(options)
        assert set(first) == {"sorted", "first-occurrence", "hash"}
        for option in options:
            assert option.derive(props, key, correlations, scope) == first[
                option.output_order
            ].derive(props, key, correlations, scope)


def entry(cost, vector):
    return DPEntry("scan", AccessPath("T"), cost, vector, RelationEstimate(1.0, {}))


entries_strategy = st.lists(
    st.tuples(st.integers(0, 20), vectors), min_size=0, max_size=25
)


class TestParetoInsert:
    @settings(max_examples=100)
    @given(entries_strategy)
    def test_frontier_is_antichain_containing_minimum(self, raw):
        stats = SearchStats()
        frontier: list[DPEntry] = []
        for cost, vector in raw:
            frontier = pareto_insert(frontier, entry(float(cost), vector), stats)
        # Antichain: no retained entry dominates another.
        for i, a in enumerate(frontier):
            for j, b in enumerate(frontier):
                if i != j:
                    assert not dominates(a, b)
        # A cheapest inserted entry survives (some entry of minimal cost).
        if raw:
            assert min(e.cost for e in frontier) == min(c for c, __ in raw)
        # Counters add up.
        assert stats.generated == len(raw)

    @settings(max_examples=100)
    @given(entries_strategy)
    def test_every_inserted_entry_is_covered_by_the_frontier(self, raw):
        """No information is lost: for every candidate there is a retained
        entry that is at least as cheap and at least as strong — the
        §2.2 'must not discard that information' guarantee."""
        stats = SearchStats()
        frontier: list[DPEntry] = []
        for cost, vector in raw:
            frontier = pareto_insert(frontier, entry(float(cost), vector), stats)
        for cost, vector in raw:
            assert any(
                retained.cost <= cost and retained.properties.covers(vector)
                for retained in frontier
            )

    def test_no_prune_mode_keeps_everything(self):
        stats = SearchStats()
        frontier: list[DPEntry] = []
        duplicates = [entry(1.0, PropertyVector())] * 5
        for item in duplicates:
            frontier = pareto_insert(frontier, item, stats, prune=False)
        assert len(frontier) == 5
        assert stats.pruned_dominated == 0


SORTED_A = PropertyVector(sorted_on=frozenset({"a"}))
SORTED_B = PropertyVector(sorted_on=frozenset({"b"}))
SORTED_AB = PropertyVector(sorted_on=frozenset({"a", "b"}))


class TestDominanceEdgeCases:
    """Deterministic corner cases of the frontier policy: equal-cost
    ties, identical property vectors, dominated-vs-displaced asymmetry,
    and the prune=False ablation's parity with the pruned frontier."""

    def test_equal_cost_identical_vector_is_dominated_not_displaced(self):
        """A perfect tie (same cost, same properties) resolves first-wins:
        the incumbent dominates, the newcomer is pruned, nothing is
        displaced — the frontier never churns on ties."""
        stats = SearchStats()
        frontier = pareto_insert([], entry(5.0, SORTED_A), stats)
        incumbent = frontier[0]
        frontier = pareto_insert(frontier, entry(5.0, SORTED_A), stats)
        assert frontier == [incumbent]
        assert stats.pruned_dominated == 1
        assert stats.displaced == 0

    def test_equal_cost_incomparable_vectors_coexist(self):
        """An equal-cost tie between incomparable property vectors keeps
        both: neither covers the other, so neither is redundant."""
        stats = SearchStats()
        frontier = pareto_insert([], entry(5.0, SORTED_A), stats)
        frontier = pareto_insert(frontier, entry(5.0, SORTED_B), stats)
        assert len(frontier) == 2
        assert stats.pruned_dominated == 0
        assert stats.displaced == 0

    def test_equal_cost_stronger_vector_displaces(self):
        """At equal cost a strictly stronger vector evicts the weaker
        incumbent (dominates counts cost <=, not <)."""
        stats = SearchStats()
        frontier = pareto_insert([], entry(5.0, SORTED_A), stats)
        frontier = pareto_insert(frontier, entry(5.0, SORTED_AB), stats)
        assert len(frontier) == 1
        assert frontier[0].properties == SORTED_AB
        assert stats.displaced == 1
        assert stats.pruned_dominated == 0

    def test_identical_vector_cheaper_candidate_displaces(self):
        """Identical property vectors reduce dominance to a pure cost
        comparison: the cheaper entry wins whichever order they arrive."""
        stats = SearchStats()
        frontier = pareto_insert([], entry(9.0, SORTED_A), stats)
        frontier = pareto_insert(frontier, entry(3.0, SORTED_A), stats)
        assert [e.cost for e in frontier] == [3.0]
        assert stats.displaced == 1
        # ...and arriving costlier, the newcomer dies instead.
        frontier = pareto_insert(frontier, entry(9.0, SORTED_A), stats)
        assert [e.cost for e in frontier] == [3.0]
        assert stats.pruned_dominated == 1

    def test_one_candidate_displaces_many(self):
        """A single strong cheap candidate sweeps the whole frontier."""
        stats = SearchStats()
        frontier: list[DPEntry] = []
        for cost, vector in [(4.0, SORTED_A), (4.0, SORTED_B)]:
            frontier = pareto_insert(frontier, entry(cost, vector), stats)
        frontier = pareto_insert(frontier, entry(1.0, SORTED_AB), stats)
        assert len(frontier) == 1
        assert frontier[0].cost == 1.0
        assert stats.displaced == 2

    @settings(max_examples=100)
    @given(entries_strategy)
    def test_accounting_invariant(self, raw):
        """Every generated candidate is exactly one of: dominated at
        entry, displaced later, or alive in the final frontier — the
        ledger the trace replay's ``complete`` verdict relies on."""
        stats = SearchStats()
        frontier: list[DPEntry] = []
        for cost, vector in raw:
            frontier = pareto_insert(frontier, entry(float(cost), vector), stats)
        assert stats.generated == (
            stats.pruned_dominated + stats.displaced + len(frontier)
        )

    @settings(max_examples=100)
    @given(entries_strategy)
    def test_prune_false_ablation_parity(self, raw):
        """The no-pruning ablation changes state size, never the verdict:
        the pruned frontier covers every entry of the unpruned one (same
        reachable optima), and both contain the same minimal cost."""
        pruned_stats, naive_stats = SearchStats(), SearchStats()
        pruned: list[DPEntry] = []
        naive: list[DPEntry] = []
        for cost, vector in raw:
            pruned = pareto_insert(pruned, entry(float(cost), vector), pruned_stats)
            naive = pareto_insert(
                naive, entry(float(cost), vector), naive_stats, prune=False
            )
        assert len(naive) == len(raw)
        assert naive_stats.pruned_dominated == 0
        assert naive_stats.displaced == 0
        if raw:
            assert min(e.cost for e in pruned) == min(e.cost for e in naive)
        for item in naive:
            assert any(
                keeper.cost <= item.cost
                and keeper.properties.covers(item.properties)
                for keeper in pruned
            )

    def test_trace_journals_each_death_with_its_killer(self):
        """With a SearchTrace attached, every dominated/displaced event
        names the entry that killed it, and the journal's ledger matches
        the SearchStats counters."""
        from repro.obs.search import SearchTrace

        trace = SearchTrace()
        trace.begin("test-spec")
        stats = SearchStats()
        frontier: list[DPEntry] = []
        sequence = [
            (4.0, SORTED_A),   # kept
            (4.0, SORTED_B),   # kept (incomparable)
            (6.0, SORTED_A),   # dominated by the first
            (1.0, SORTED_AB),  # displaces both survivors
        ]
        for cost, vector in sequence:
            frontier = pareto_insert(
                frontier, entry(cost, vector), stats, trace=trace, cls="t"
            )
        summary = trace.summary()
        assert summary["generated"] == stats.generated == 4
        assert summary["dominated"] == stats.pruned_dominated == 1
        assert summary["displaced"] == stats.displaced == 2
        deaths = [
            event
            for event in trace.events("t")
            if event.kind in ("dominated", "displaced")
        ]
        assert len(deaths) == 3
        assert all(
            event.other_id is not None and event.other_id >= 0
            for event in deaths
        )
