"""Ablation: Algorithmic Views on/off (§3).

Measures (a) end-to-end execution of the dense-unsorted §4.3 query with
and without a prebuilt SPH view artifact being available to waive the
join's build phase, and (b) the plan-cost delta the optimiser attributes
to the view. The view's artifact is the join's memoised build side, so
the with-AVs run must erect none.
"""

import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import optimize_dqo, to_operator
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import execute
from repro.engine.operators import joins as join_operators
from repro.sql import plan_query

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


@pytest.fixture(scope="module")
def setting():
    scenario = make_join_scenario(
        n_r=100_000,
        n_s=200_000,
        num_groups=20_000,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    )
    catalog = scenario.build_catalog()
    registry = AVRegistry(
        [materialize_view(catalog, ViewKind.SPH_ARRAY, "R", "ID")]
    )
    return catalog, registry


@pytest.mark.parametrize("with_views", [False, True], ids=["no-AVs", "with-AVs"])
def test_optimise_and_execute(benchmark, monkeypatch, setting, with_views):
    catalog, registry = setting
    logical = plan_query(QUERY, catalog)
    erected = []
    erect = join_operators.build_side

    def counted(*args):
        erected.append(args[1])
        return erect(*args)

    monkeypatch.setattr(join_operators, "build_side", counted)

    def optimise_and_run():
        result = optimize_dqo(
            logical, catalog, views=registry if with_views else None
        )
        return execute(to_operator(result.plan, catalog))

    benchmark.group = "AVs ablation (optimise + execute)"
    table = benchmark(optimise_and_run)
    # Uniform FK references leave a few R.A values unreferenced.
    assert 0.9 * 20_000 <= table.num_rows <= 20_000
    if with_views:
        # The join read the view's artifact and erected nothing.
        __, build = catalog.table("R").column("ID").memo["build_side"]
        assert build is registry.get(ViewKind.SPH_ARRAY, "R", "ID").artifact
        assert erected == []


def test_view_credit_equals_build_phase(setting):
    catalog, registry = setting
    logical = plan_query(QUERY, catalog)
    without = optimize_dqo(logical, catalog)
    with_views = optimize_dqo(logical, catalog, views=registry)
    # SPHJ build phase = |R| = 100,000 cost units.
    assert without.cost - with_views.cost == pytest.approx(100_000.0)
