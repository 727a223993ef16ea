"""Optimiser search telemetry: SearchStats invariants and coverage."""

from collections import Counter

import pytest

from repro.core import (
    DynamicProgrammingOptimizer,
    SearchStats,
    dqo_config,
    optimize_dqo,
    optimize_sqo,
)
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.greedy import optimize_greedy
from repro.core.optimizer.plancache import PlanCache
from repro.core.optimizer.query import extract_query
from repro.core.optimizer.rules import GroupingOption, JoinOption
from repro.core.optimizer.space import PlanSpace
from repro.datagen import Density, Sortedness, make_join_scenario, make_star_scenario
from repro.datagen.star import DimensionSpec
from repro.sql import plan_query


@pytest.fixture(scope="module")
def star():
    scenario = make_star_scenario(fact_rows=2_000, seed=5)
    catalog = scenario.build_catalog()
    query = (
        "SELECT D0.A, COUNT(*) FROM FACT "
        "JOIN D0 ON FACT.D0_ID = D0.ID "
        "JOIN D1 ON FACT.D1_ID = D1.ID "
        "GROUP BY D0.A"
    )
    return catalog, plan_query(query, catalog)


@pytest.fixture(scope="module")
def pair():
    scenario = make_join_scenario(
        n_r=2_000,
        n_s=4_000,
        num_groups=500,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    )
    catalog = scenario.build_catalog()
    query = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
    return catalog, plan_query(query, catalog)


class TestInvariants:
    def test_three_scan_query_counts(self, star):
        catalog, logical = star
        result = optimize_dqo(logical, catalog)
        stats = result.stats
        assert stats.generated > 0
        assert stats.pruned_dominated <= stats.generated
        assert stats.pruned_total <= stats.generated
        assert stats.retained >= 1
        assert stats.closures > 0
        # The DP table saw all three subset sizes of a 3-scan query.
        assert set(stats.table_entries_by_size) == {1, 2, 3}
        assert all(
            count >= 1 for count in stats.table_entries_by_size.values()
        )

    def test_multi_join_generates_candidates(self, pair):
        catalog, logical = pair
        result = optimize_dqo(logical, catalog)
        assert result.stats.generated > 0

    def test_sqo_and_greedy_also_count(self, star):
        catalog, logical = star
        for result in (
            optimize_sqo(logical, catalog),
            optimize_greedy(logical, catalog),
        ):
            assert result.stats.generated > 0
            assert result.stats.pruned_dominated <= result.stats.generated

    def test_greedy_explores_no_more_than_dp_retains_less(self, star):
        catalog, logical = star
        dqo = optimize_dqo(logical, catalog)
        greedy = optimize_greedy(logical, catalog)
        # Greedy truncates frontiers to one entry, so it can never keep
        # more alive per subset size than the Pareto DP.
        for size, kept in greedy.stats.table_entries_by_size.items():
            assert kept <= dqo.stats.table_entries_by_size[size]

    def test_closures_count_every_derivation_computed(self, monkeypatch):
        """``closures`` counts each property derivation the search
        actually computes — a ``derive`` the plan space's memo did not
        answer, or a ``PlanSpace.close`` — and no memo hit: on the
        five-dimension star most candidates share a derivation."""
        calls = Counter()

        def counted(owner, name):
            function = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[f"{owner.__name__}.{name}"] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in (
            (JoinOption, "derive"),
            (GroupingOption, "derive"),
            (PlanSpace, "close"),
        ):
            counted(owner, name)
        star = make_star_scenario(
            fact_rows=20_000,
            dimensions=[
                DimensionSpec(
                    1_000,
                    100,
                    sortedness=(
                        Sortedness.UNSORTED if index % 2 else Sortedness.SORTED
                    ),
                )
                for index in range(5)
            ],
        )
        catalog = star.build_catalog()
        stats = (
            DynamicProgrammingOptimizer(catalog, plan_cache=PlanCache())
            .optimize(plan_query(star.join_query(0), catalog))
            .stats
        )
        assert calls["JoinOption.derive"] > 0 and calls["GroupingOption.derive"] > 0
        assert stats.closures == sum(calls.values())
        assert stats.closures < stats.generated

    def test_a_memo_hit_is_not_a_closure(self, pair):
        catalog, logical = pair
        space = PlanSpace(
            extract_query(logical), catalog, PaperCostModel(), dqo_config(), 1
        )
        (side,) = next(iter(space.orientations.values()))
        option = side.implementations[0].option
        build = space.scans[side.build_scan].properties
        probe = space.scans[side.probe_scan].properties
        before = space.stats.closures
        first = space.derive_join(option, build, probe, side, 100.0)
        assert space.derive_join(option, build, probe, side, 100.0) is first
        assert space.stats.closures == before + 1

    def test_stats_independent_across_runs(self, pair):
        catalog, logical = pair
        first = optimize_dqo(logical, catalog).stats
        second = optimize_dqo(logical, catalog).stats
        assert first.generated == second.generated
        assert first.table_entries_by_size == second.table_entries_by_size


class TestRendering:
    def test_as_dict_and_render(self, pair):
        catalog, logical = pair
        stats = optimize_dqo(logical, catalog).stats
        record = stats.as_dict()
        assert record["generated"] == stats.generated
        assert "1" in record["table_entries_by_size"]
        text = stats.render()
        assert "candidates generated" in text
        assert "|S|=1" in text

    def test_empty_stats_render(self):
        text = SearchStats().render()
        assert "(none)" in text
