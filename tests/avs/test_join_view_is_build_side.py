"""A join-level Algorithmic View is the build side its join reads.

``materialize_view`` erects a ``HASH_TABLE``, ``SPH_ARRAY`` or
``SORTED_KEYS`` view through the function ``Join`` memoises its build
side with, so the view's artifact *is* the base column's ``build_side``
entry: a join with the view's algorithm over a scan of that column
erects nothing on its first run, and neither does the plan the DP
credits with the view's build phase.
"""

import numpy as np
import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import optimize_dqo, to_operator
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import Join, JoinAlgorithm, TableScan, execute
from repro.engine.kernels.joins import join
from repro.engine.operators import joins as join_operators
from repro.sql import plan_query

# A disk table's column memoises nothing; the views here seed a memo.
pytestmark = pytest.mark.usefixtures("memory_storage")

#: the join whose build side each join-level view kind is.
VIEW_JOIN = {
    ViewKind.HASH_TABLE: JoinAlgorithm.HJ,
    ViewKind.SPH_ARRAY: JoinAlgorithm.SPHJ,
    ViewKind.SORTED_KEYS: JoinAlgorithm.BSJ,
}
QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


@pytest.fixture
def build_calls(monkeypatch):
    """The algorithm of every build side erected from here on."""
    calls = []
    erect = join_operators.build_side

    def counted(*args):
        calls.append(args[1])
        return erect(*args)

    monkeypatch.setattr(join_operators, "build_side", counted)
    return calls


def dense_unsorted():
    return make_join_scenario(
        n_r=4_000,
        n_s=12_000,
        num_groups=400,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    )


@pytest.mark.parametrize("kind", list(VIEW_JOIN), ids=lambda kind: kind.name)
def test_join_reads_the_view_artifact(kind, build_calls):
    scenario = dense_unsorted()
    catalog = scenario.build_catalog()
    algorithm = VIEW_JOIN[kind]
    view = materialize_view(catalog, kind, "R", "ID")
    assert build_calls == [algorithm]
    operator = Join(
        TableScan(catalog.table("R").qualified("R")),
        TableScan(catalog.table("S").qualified("S")),
        "R.ID",
        "S.R_ID",
        algorithm,
    )
    matches = operator.matches()
    assert build_calls == [algorithm]
    assert matches.build is view.artifact
    fresh = join(scenario.r["ID"], scenario.s["R_ID"], algorithm)
    assert np.array_equal(matches.pairs.left_indices, fresh.left_indices)
    assert np.array_equal(matches.pairs.right_indices, fresh.right_indices)


def test_credited_plan_erects_nothing(build_calls):
    scenario = dense_unsorted()
    catalog = scenario.build_catalog()
    registry = AVRegistry([materialize_view(catalog, ViewKind.SPH_ARRAY, "R", "ID")])
    logical = plan_query(QUERY, catalog)
    plain = optimize_dqo(logical, catalog)
    credited = optimize_dqo(logical, catalog, views=registry)
    # The view waives SPHJ's build phase, |R| cost units.
    assert plain.cost - credited.cost == 4_000
    (joined,) = [node for node in credited.plan.walk() if node.op == "join"]
    assert joined.option.algorithm is JoinAlgorithm.SPHJ
    del build_calls[:]
    keys, counts = scenario.expected_groups()
    # The credited plan and the plain plan return numpy's groups.
    for result in (credited, plain):
        table = execute(to_operator(result.plan, catalog))
        order = np.argsort(table["R.A"])
        assert np.array_equal(table["R.A"][order], keys)
        assert np.array_equal(table["count"][order], counts)
    assert build_calls == []
    __, build = catalog.table("R").column("ID").memo["build_side"]
    assert build is registry.get(ViewKind.SPH_ARRAY, "R", "ID").artifact


@pytest.mark.parametrize("kind", list(ViewKind), ids=lambda kind: kind.name)
def test_dp_and_avsp_credit_the_same_joins_for_a_view(kind):
    """The joins whose build phase a view waives are the same in the DP
    (a plan space over a catalog with the view) and in the AVSP."""
    from repro.avs.selection import _JOIN_VIEW
    from repro.avs.view import declare_view
    from repro.core.cost import PaperCostModel
    from repro.core.optimizer import dqo_config, extract_query
    from repro.core.optimizer.space import PlanSpace
    from repro.errors import ViewError

    catalog = dense_unsorted().build_catalog()
    try:
        view = declare_view(catalog, kind, "R", "ID")
    except ViewError:
        pytest.skip(f"{kind.name} is not declarable over R.ID")
    space = PlanSpace(
        extract_query(plan_query(QUERY, catalog)),
        catalog,
        PaperCostModel(),
        dqo_config(views=AVRegistry([view])),
        workers=1,
    )
    dp = {
        algorithm
        for sides in space.orientations.values()
        for side in sides
        if side.build_key == "R.ID"
        for algorithm in side.credited
    }
    avsp = {
        algorithm for algorithm, credited in _JOIN_VIEW.items() if credited is kind
    }
    assert dp == avsp
