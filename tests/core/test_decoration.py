"""Plan decoration: projections, renames, order-by, limit in the DP."""

import pytest

from repro.core import dqo_config, optimize_dqo, sqo_config, to_operator
from repro.core.optimizer.base import PropertyScope
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import execute
from repro.logical import evaluate_naive
from repro.sql import plan_query


@pytest.fixture(scope="module")
def catalog():
    return make_join_scenario(
        n_r=500,
        n_s=1_200,
        num_groups=60,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=3,
    ).build_catalog()


class TestProjectionRenames:
    def test_order_by_alias_of_sorted_key_is_free(self, catalog):
        # DQO picks SPHG whose output is sorted on R.A; the projection
        # renames R.A to grp; ORDER BY grp must recognise the guarantee
        # survived the rename and cost nothing.
        base = optimize_dqo(
            plan_query(
                "SELECT A AS grp, COUNT(*) AS c FROM R JOIN S ON ID = R_ID "
                "GROUP BY A",
                catalog,
            ),
            catalog,
        )
        ordered = optimize_dqo(
            plan_query(
                "SELECT A AS grp, COUNT(*) AS c FROM R JOIN S ON ID = R_ID "
                "GROUP BY A ORDER BY grp",
                catalog,
            ),
            catalog,
        )
        assert ordered.cost == pytest.approx(base.cost)
        assert not any(
            node.op == "sort" and node.decision == ("grp",)
            for node in ordered.plan.walk()
        )

    def test_order_by_unsorted_output_pays_a_sort(self, catalog):
        # SQO's HG output is unordered, so ORDER BY costs a sort.
        base = optimize_dqo(
            plan_query(
                "SELECT A, COUNT(*) FROM R JOIN S ON ID = R_ID GROUP BY A",
                catalog,
            ),
            catalog,
            property_scope=PropertyScope.ORDERS,
            max_granularity=sqo_config().max_granularity,
        )
        ordered = optimize_dqo(
            plan_query(
                "SELECT A, COUNT(*) FROM R JOIN S ON ID = R_ID GROUP BY A "
                "ORDER BY A",
                catalog,
            ),
            catalog,
            property_scope=PropertyScope.ORDERS,
            max_granularity=sqo_config().max_granularity,
        )
        assert ordered.cost > base.cost

    def test_renamed_plans_execute(self, catalog):
        sql = (
            "SELECT A AS grp, COUNT(*) AS c FROM R JOIN S ON ID = R_ID "
            "GROUP BY A ORDER BY grp LIMIT 5"
        )
        logical = plan_query(sql, catalog)
        result = optimize_dqo(logical, catalog)
        output = execute(to_operator(result.plan, catalog))
        truth = evaluate_naive(logical, catalog)
        assert output.equals(truth)
        assert output.schema.names == ("grp", "c")


class TestConfigSurface:
    def test_is_deep(self):
        assert dqo_config().is_deep
        assert not sqo_config().is_deep

    def test_overrides(self):
        config = dqo_config(consider_commutation=True, prune_dominated=False)
        assert config.consider_commutation
        assert not config.prune_dominated
        assert config.property_scope is PropertyScope.FULL
