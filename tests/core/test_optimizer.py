"""The unified SQO/DQO optimiser: Figure 5, search behaviour, pruning."""

import pytest

from repro.core import (
    DynamicProgrammingOptimizer,
    optimize_dqo,
    optimize_greedy,
    optimize_sqo,
)
from repro.core.optimizer import PropertyScope, extract_query
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import GroupingAlgorithm, JoinAlgorithm
from repro.errors import PlanError
from repro.sql import plan_query


def scenario_catalog(r_sort, s_sort, density, **kwargs):
    defaults = dict(n_r=800, n_s=2_000, num_groups=80, seed=3)
    defaults.update(kwargs)
    return make_join_scenario(
        r_sortedness=r_sort, s_sortedness=s_sort, density=density, **defaults
    ).build_catalog()


class TestFigure5Grid:
    """The paper's §4.3 experiment as an assertion, at full cardinality."""

    EXPECTED = {
        (Sortedness.SORTED, Sortedness.SORTED, Density.SPARSE): 1.0,
        (Sortedness.SORTED, Sortedness.SORTED, Density.DENSE): 1.0,
        (Sortedness.SORTED, Sortedness.UNSORTED, Density.SPARSE): 1.0,
        (Sortedness.SORTED, Sortedness.UNSORTED, Density.DENSE): 4.0,
        (Sortedness.UNSORTED, Sortedness.SORTED, Density.SPARSE): 1.0,
        (Sortedness.UNSORTED, Sortedness.SORTED, Density.DENSE): 2.8,
        (Sortedness.UNSORTED, Sortedness.UNSORTED, Density.SPARSE): 1.0,
        (Sortedness.UNSORTED, Sortedness.UNSORTED, Density.DENSE): 4.0,
    }

    @pytest.mark.parametrize("config,expected", list(EXPECTED.items()),
                             ids=lambda v: str(v))
    def test_improvement_factor(self, config, expected, paper_query, memory_storage):
        r_sort, s_sort, density = config
        catalog = make_join_scenario(
            r_sortedness=r_sort, s_sortedness=s_sort, density=density
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        sqo = optimize_sqo(logical, catalog)
        dqo = optimize_dqo(logical, catalog)
        assert sqo.cost / dqo.cost == pytest.approx(expected, rel=1e-6)

    def test_dense_unsorted_plans_use_sph(self, paper_query):
        catalog = make_join_scenario(
            r_sortedness=Sortedness.UNSORTED,
            s_sortedness=Sortedness.UNSORTED,
            density=Density.DENSE,
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        dqo = optimize_dqo(logical, catalog)
        algorithms = {
            node.op: node for node in dqo.plan.walk() if node.op in ("join", "group_by")
        }
        assert algorithms["join"].option.algorithm is JoinAlgorithm.SPHJ
        assert algorithms["group_by"].option.algorithm is GroupingAlgorithm.SPHG
        sqo = optimize_sqo(logical, catalog)
        sqo_algorithms = {
            node.op: node for node in sqo.plan.walk() if node.op in ("join", "group_by")
        }
        assert sqo_algorithms["join"].option.algorithm is JoinAlgorithm.HJ
        assert sqo_algorithms["group_by"].option.algorithm is GroupingAlgorithm.HG

    def test_both_sorted_plans_are_order_based(self, paper_query):
        catalog = make_join_scenario().build_catalog()  # sorted/sorted/dense
        logical = plan_query(paper_query, catalog)
        sqo = optimize_sqo(logical, catalog)
        join_node = next(n for n in sqo.plan.walk() if n.op == "join")
        assert join_node.option.algorithm is JoinAlgorithm.OJ

    def test_deep_plans_carry_recipes(self, paper_query):
        catalog = make_join_scenario().build_catalog()
        logical = plan_query(paper_query, catalog)
        dqo = optimize_dqo(logical, catalog)
        group_node = next(n for n in dqo.plan.walk() if n.op == "group_by")
        assert group_node.option.recipe is not None
        sqo = optimize_sqo(logical, catalog)
        group_node = next(n for n in sqo.plan.walk() if n.op == "group_by")
        assert group_node.option.recipe is None  # blackbox textbook operator


class TestSearchBehaviour:
    def test_stats_populated(self, join_catalog, paper_query):
        result = optimize_dqo(plan_query(paper_query, join_catalog), join_catalog)
        assert result.stats.generated > 0
        assert result.stats.retained > 0

    def test_pruning_reduces_state(self, join_catalog, paper_query):
        logical = plan_query(paper_query, join_catalog)
        pruned = optimize_dqo(logical, join_catalog)
        unpruned = optimize_dqo(logical, join_catalog, prune_dominated=False)
        assert pruned.cost == pytest.approx(unpruned.cost)  # same optimum
        assert pruned.stats.pruned_dominated > 0
        assert unpruned.stats.pruned_dominated == 0

    def test_greedy_never_beats_dp(self, paper_query):
        for s_sort in Sortedness:
            catalog = scenario_catalog(
                Sortedness.UNSORTED, s_sort, Density.DENSE
            )
            logical = plan_query(paper_query, catalog)
            dp = optimize_dqo(logical, catalog)
            greedy = optimize_greedy(logical, catalog)
            assert greedy.cost >= dp.cost - 1e-9

    def test_alternatives_ranked(self, join_catalog, paper_query):
        result = optimize_dqo(plan_query(paper_query, join_catalog), join_catalog)
        costs = [result.cost] + [p.cost for p in result.alternatives]
        assert costs == sorted(costs)

    def test_commutation_changes_case2(self, paper_query, memory_storage):
        """Ablation: with commutation SQO can stream sorted R and the
        'R sorted, S unsorted, dense' factor drops from 4x to 2.8x."""
        catalog = make_join_scenario(
            r_sortedness=Sortedness.SORTED,
            s_sortedness=Sortedness.UNSORTED,
            density=Density.DENSE,
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        sqo = optimize_sqo(logical, catalog, consider_commutation=True)
        dqo = optimize_dqo(logical, catalog, consider_commutation=True)
        assert sqo.cost / dqo.cost == pytest.approx(2.8, rel=1e-6)


class TestQueryClasses:
    def test_single_table_grouping(self, memory_storage):
        catalog = scenario_catalog(
            Sortedness.SORTED, Sortedness.SORTED, Density.DENSE
        )
        logical = plan_query("SELECT A, COUNT(*) FROM R GROUP BY A", catalog)
        result = optimize_dqo(logical, catalog)
        group_node = next(n for n in result.plan.walk() if n.op == "group_by")
        # Sorted dense input: OG or SPHG, both at cost |R|.
        assert group_node.option.algorithm in (
            GroupingAlgorithm.OG,
            GroupingAlgorithm.SPHG,
        )
        assert result.cost == pytest.approx(800)

    def test_filters_disable_density(self):
        catalog = scenario_catalog(
            Sortedness.UNSORTED, Sortedness.UNSORTED, Density.DENSE
        )
        logical = plan_query(
            "SELECT A, COUNT(*) FROM R WHERE ID < 100 GROUP BY A", catalog
        )
        result = optimize_dqo(logical, catalog)
        group_node = next(n for n in result.plan.walk() if n.op == "group_by")
        # Density destroyed by the filter, so SPHG must not be chosen.
        assert group_node.option.algorithm is not GroupingAlgorithm.SPHG

    def test_order_by_free_when_sorted(self, paper_query):
        catalog = scenario_catalog(
            Sortedness.UNSORTED, Sortedness.UNSORTED, Density.DENSE
        )
        ordered = plan_query(paper_query + " ORDER BY R.A", catalog)
        plain = plan_query(paper_query, catalog)
        # DQO's SPHG output is sorted on R.A -> the order-by costs nothing.
        assert optimize_dqo(ordered, catalog).cost == pytest.approx(
            optimize_dqo(plain, catalog).cost
        )

    def test_unsupported_shape_rejected(self, join_catalog):
        from repro.engine import count_star
        from repro.logical import LogicalGroupBy, LogicalJoin, LogicalScan

        nested = LogicalJoin(
            LogicalGroupBy(LogicalScan("R"), "R.A", (count_star(),)),
            LogicalScan("S"),
            "R.A",
            "S.R_ID",
        )
        with pytest.raises(PlanError):
            extract_query(nested)
