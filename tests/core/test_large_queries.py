"""Large (multi-way) queries — the §6 "Revisit SQO Algorithms" extension.

The DP enumerates n-way join orders (DPsub over connected subsets) with
the same property-vector frontiers; these tests exercise 3- and 4-relation
star joins end-to-end and check the deep configuration still dominates.
"""

import pytest

from repro.core import optimize_dqo, optimize_sqo, to_operator
from repro.datagen import (
    Density,
    DimensionSpec,
    Sortedness,
    make_star_scenario,
)
from repro.engine import execute
from repro.logical import evaluate_naive
from repro.sql import plan_query


@pytest.fixture(scope="module")
def star():
    scenario = make_star_scenario(fact_rows=3_000, seed=2)
    return scenario, scenario.build_catalog()


class TestStarGenerator:
    def test_schema_and_fks(self, star):
        scenario, catalog = star
        assert scenario.num_dimensions == 3
        assert catalog.table("FACT").num_rows == 3_000
        for index in range(3):
            assert (
                catalog.foreign_key_between(
                    "FACT", f"D{index}_ID", f"D{index}", "ID"
                )
                is not None
            )

    def test_dimension_properties_respected(self, star):
        scenario, catalog = star
        # Default spec: D0 sorted+dense, D1 unsorted, D2 sparse.
        d0 = catalog.table("D0").column("ID").statistics
        assert d0.is_sorted and d0.is_dense
        d1 = catalog.table("D1").column("ID").statistics
        assert not d1.is_sorted
        d2 = catalog.table("D2").column("ID").statistics
        assert not d2.is_dense

    def test_fact_sorted_on_chosen_fk(self, star):
        scenario, catalog = star
        fk = catalog.table("FACT").column("D0_ID").statistics
        assert fk.is_sorted

    def test_query_text(self, star):
        scenario, __ = star
        query = scenario.join_query(1)
        assert "GROUP BY D1.A" in query
        assert query.count("JOIN") == 3

    def test_invalid_group_dimension(self, star):
        scenario, __ = star
        with pytest.raises(Exception):
            scenario.join_query(9)


class TestMultiWayOptimisation:
    @pytest.mark.parametrize("group_dimension", [0, 1, 2])
    def test_four_way_join_correct(self, star, group_dimension):
        scenario, catalog = star
        logical = plan_query(scenario.join_query(group_dimension), catalog)
        truth = evaluate_naive(logical, catalog)
        for optimizer in (optimize_sqo, optimize_dqo):
            result = optimizer(logical, catalog)
            output = execute(to_operator(result.plan, catalog, validate=True))
            assert output.equals_unordered(truth)

    def test_dqo_never_worse_and_wins_on_dense(self, star):
        scenario, catalog = star
        logical = plan_query(scenario.join_query(0), catalog)
        sqo = optimize_sqo(logical, catalog)
        dqo = optimize_dqo(logical, catalog)
        assert dqo.cost <= sqo.cost
        # D0 is dense: the deep plan should exploit SPH somewhere.
        deep_algorithms = {
            node.option.algorithm.name for node in dqo.plan.walk() if node.option
        }
        assert any(name.startswith("SPH") for name in deep_algorithms)

    def test_join_count_in_plan(self, star):
        scenario, catalog = star
        logical = plan_query(scenario.join_query(0), catalog)
        result = optimize_dqo(logical, catalog)
        joins = [n for n in result.plan.walk() if n.op == "join"]
        assert len(joins) == 3  # 4 relations -> 3 joins

    def test_search_effort_grows_with_relations(self):
        two_way = make_star_scenario(
            fact_rows=2_000,
            dimensions=[DimensionSpec(rows=1_000, num_groups=100)],
            seed=3,
        )
        four_way = make_star_scenario(fact_rows=2_000, seed=3)
        small_catalog = two_way.build_catalog()
        large_catalog = four_way.build_catalog()
        small = optimize_dqo(
            plan_query(two_way.join_query(0), small_catalog), small_catalog
        )
        large = optimize_dqo(
            plan_query(four_way.join_query(0), large_catalog), large_catalog
        )
        assert large.stats.generated > small.stats.generated


class TestFiveWay:
    def test_five_relations(self):
        scenario = make_star_scenario(
            fact_rows=2_000,
            dimensions=[
                DimensionSpec(rows=500, num_groups=50),
                DimensionSpec(
                    rows=600, num_groups=60, sortedness=Sortedness.UNSORTED
                ),
                DimensionSpec(rows=700, num_groups=70, density=Density.SPARSE),
                DimensionSpec(rows=800, num_groups=80),
            ],
            seed=4,
        )
        catalog = scenario.build_catalog()
        logical = plan_query(scenario.join_query(0), catalog)
        truth = evaluate_naive(logical, catalog)
        result = optimize_dqo(logical, catalog)
        output = execute(to_operator(result.plan, catalog, validate=True))
        assert output.equals_unordered(truth)
