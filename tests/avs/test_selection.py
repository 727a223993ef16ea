"""The AVSP: abstract costing, greedy vs exact solvers, budgets."""

import pytest

from repro.avs import (
    ViewKind,
    best_query_cost,
    enumerate_candidates,
    exhaustive_avsp,
    greedy_avsp,
    workload_cost,
)
from repro.datagen import make_workload
from repro.datagen.workload import (
    QueryShape,
    TableProfile,
    Workload,
    WorkloadQuery,
)
from repro.errors import ViewError


def table(name, rows=10_000, sorted_=False, dense=False, distinct=100):
    return TableProfile(
        name=name,
        rows=rows,
        key_sorted=sorted_,
        key_dense=dense,
        key_distinct=distinct,
    )


class TestAbstractCosting:
    def test_sorted_grouping_costs_one_pass(self):
        query = WorkloadQuery(QueryShape.GROUPING, table("T", sorted_=True), None)
        assert best_query_cost(query) == 10_000  # OG

    def test_dense_unsorted_grouping_uses_sph_only_when_deep(self):
        query = WorkloadQuery(QueryShape.GROUPING, table("T", dense=True), None)
        assert best_query_cost(query, deep=True) == 10_000  # SPHG
        assert best_query_cost(query, deep=False) == 40_000  # HG

    def test_join_grouping_matches_figure5_arithmetic(self):
        r = table("R", rows=45_000, distinct=20_000, dense=True)
        s = table("S", rows=90_000)
        query = WorkloadQuery(QueryShape.JOIN_GROUPING, r, s)
        assert best_query_cost(query, deep=True) == 225_000
        assert best_query_cost(query, deep=False) == 900_000

    def test_sorted_projection_view_lowers_cost(self):
        query = WorkloadQuery(QueryShape.GROUPING, table("T"), None)
        without = best_query_cost(query)
        with_view = best_query_cost(
            query, frozenset({(ViewKind.SORTED_PROJECTION, "T")})
        )
        assert with_view == 10_000  # scan sorted view, OG
        assert with_view < without

    def test_workload_cost_weights_frequencies(self):
        q = WorkloadQuery(
            QueryShape.GROUPING, table("T", sorted_=True), None, frequency=3.0
        )
        workload = Workload(tables=[q.left], queries=[q])
        assert workload_cost(workload) == 30_000


class TestSolvers:
    @pytest.fixture
    def workload(self):
        return make_workload(num_tables=3, num_queries=15, seed=4)

    def test_candidates_respect_density(self, workload):
        candidates = enumerate_candidates(workload)
        for candidate in candidates:
            if candidate.kind is ViewKind.SPH_ARRAY:
                assert candidate.table.key_dense
        larger = make_workload(num_tables=10, num_queries=120, seed=12)
        assert len(enumerate_candidates(larger)) > len(candidates)

    def test_greedy_respects_budget(self, workload):
        budget = 2_000_000.0
        result = greedy_avsp(workload, budget=budget)
        assert result.build_cost <= budget
        assert result.cost_without_views == pytest.approx(workload_cost(workload))
        assert result.cost_with_views <= result.cost_without_views

    def test_zero_budget_selects_nothing(self, workload):
        result = greedy_avsp(workload, budget=0.0)
        assert result.selected == []
        assert result.benefit == 0.0

    def test_exact_dominates_greedy(self, workload):
        budget = 3_000_000.0
        greedy = greedy_avsp(workload, budget=budget)
        exact = exhaustive_avsp(workload, budget=budget)
        assert exact.benefit >= greedy.benefit - 1e-9
        assert exact.build_cost <= budget

    def test_exact_candidate_cap(self, workload):
        with pytest.raises(ViewError, match="limited"):
            exhaustive_avsp(workload, budget=1.0, max_candidates=2)

    def test_describe(self, workload):
        result = greedy_avsp(workload, budget=2_000_000.0)
        text = result.describe()
        assert "workload cost" in text

    def test_benefit_monotone_in_budget(self, workload):
        small = greedy_avsp(workload, budget=500_000.0)
        large = greedy_avsp(workload, budget=5_000_000.0)
        assert large.benefit >= small.benefit - 1e-9
