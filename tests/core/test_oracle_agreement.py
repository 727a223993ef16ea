"""The DP against the exhaustive oracle, over the whole configuration grid.

Both read the same candidate generators (``repro.core.optimizer.space``),
so what is under test is the *search*: in every cell (a) the DP's verdict
costs exactly what the cheapest plan of the unpruned space costs, and
(b) switching pruning off makes the DP carry exactly the oracle's
multiset of complete plans — no candidate lost, none invented, none
priced differently.
"""

import dataclasses
from collections import Counter

import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import DynamicProgrammingOptimizer, SearchStats, dqo_config, sqo_config
from repro.core.optimizer import enumerate_exhaustive
from repro.core.plan import to_operator
from repro.datagen import Density, Sortedness, make_join_scenario, make_star_scenario
from repro.datagen.star import DimensionSpec
from repro.engine.executor import explain_analyze
from repro.errors import OptimizationError
from repro.obs.search import SearchTrace
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Table
from repro.storage.disk import BufferManager, is_disk_table, set_buffer_manager

FILTERED = (
    "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID "
    "WHERE S.R_ID < 9000 GROUP BY R.A"
)


#: grouped on a key of the join's probe input, which the engine groups
#: in parallel where the plan says so (a build-side key never is).
PROBE_KEYED = "SELECT S.B, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY S.B"


def scenario(r_sort=Sortedness.UNSORTED, s_sort=Sortedness.UNSORTED,
             density=Density.SPARSE, **sizes):
    # Large enough that a sparse probe-side key groups in parallel at four
    # workers, on either backend (test_grid_keeps_a_parallel_grouping), so
    # the grid also checks non-serial verdicts; the search itself never
    # looks at the rows.
    sizes = dict(n_r=20_000, n_s=50_000, num_groups=2_000, seed=3) | sizes
    return make_join_scenario(
        r_sortedness=r_sort, s_sortedness=s_sort, density=density, **sizes
    )


def layout(*args, **sizes):
    return scenario(*args, **sizes).build_catalog()


def unpruned_costs(logical, catalog, config) -> Counter:
    """Costs of every complete (pre-decoration) plan the DP generates
    with pruning off, read from its own decision journal."""
    trace = SearchTrace(capacity_per_class=1 << 20)
    DynamicProgrammingOptimizer(
        catalog,
        config=dataclasses.replace(config, prune_dominated=False),
        trace=trace,
    ).optimize(logical)
    return Counter(
        round(event.cost, 6)
        for event in trace.events("group_by")
        if event.kind == "generated"
    )


def assert_agreement(sql, catalog, config, same_space=True) -> float:
    logical = plan_query(sql, catalog)
    verdict = DynamicProgrammingOptimizer(catalog, config=config).optimize(logical)
    stats = SearchStats()
    plans = enumerate_exhaustive(logical, catalog, config=config, stats=stats)
    assert stats.generated == stats.retained == len(plans)  # it never prunes
    assert len({plan.description for plan in plans}) == len(plans)
    assert 0 < verdict.cost == pytest.approx(min(plan.cost for plan in plans))
    if same_space:
        oracle = Counter(round(plan.cost, 6) for plan in plans)
        assert unpruned_costs(logical, catalog, config) == oracle
    return verdict.cost


@pytest.mark.parametrize("make_config", [sqo_config, dqo_config])
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("density", list(Density))
@pytest.mark.parametrize("s_sort", list(Sortedness))
@pytest.mark.parametrize("r_sort", list(Sortedness))
def test_figure5_grid(r_sort, s_sort, density, workers, backend, make_config,
                      paper_query):
    config = make_config(workers=workers, backend=backend)
    assert_agreement(paper_query, layout(r_sort, s_sort, density), config)


@pytest.mark.usefixtures("fork_pool")
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("r_sort", list(Sortedness))
def test_grid_keeps_a_parallel_grouping(r_sort, backend):
    """S.B made sparse (no perfect hash) groups in parallel at four
    workers; the oracle agrees, and the engine runs it in parallel."""
    joined = scenario(r_sort)
    sparse = {"R_ID": joined.s["R_ID"], "B": joined.s["B"] * 1_000}
    catalog = dataclasses.replace(joined, s=Table.from_arrays(sparse)).build_catalog()
    config = dqo_config(workers=4, backend=backend)
    assert_agreement(PROBE_KEYED, catalog, config)
    plan = DynamicProgrammingOptimizer(catalog, config=config).optimize(
        plan_query(PROBE_KEYED, catalog)
    ).plan
    grouping = next(node for node in plan.walk() if node.op == "group_by")
    assert grouping.label == {"thread": "HG/parallel", "process": "HG/parallel@process"}[
        backend
    ]
    with scoped_settings(workers=4, backend=backend):
        analyzed = explain_analyze(to_operator(plan, catalog))
    stats = next(node for node in analyzed.root.walk() if node.name == "GroupBy")
    assert stats.parallel_degree > 1


def test_filtered_and_commuted():
    config = dqo_config(workers=4, backend="process", consider_commutation=True)
    assert_agreement(FILTERED, layout(Sortedness.SORTED), config)


def test_trailing_order_by_is_priced(paper_query):
    # Decoration follows grouping, so the journal's group_by class holds
    # pre-sort costs: only the verdict is comparable here.
    config = dqo_config(workers=2)
    assert_agreement(paper_query + " ORDER BY R.A", layout(), config, same_space=False)


def test_view_credit_reaches_both_sides(paper_query, memory_storage):
    catalog = layout(density=Density.DENSE, n_r=45_000, n_s=90_000, num_groups=20_000)
    views = AVRegistry([materialize_view(catalog, ViewKind.SPH_ARRAY, "R", "ID")])
    assert assert_agreement(paper_query, catalog, dqo_config(views=views)) == 180_000


def test_btree_access_path(memory_storage):
    catalog = layout(Sortedness.SORTED)
    views = AVRegistry([materialize_view(catalog, ViewKind.BTREE, "S", "R_ID")])
    assert_agreement(FILTERED, catalog, dqo_config(views=views))


def test_disk_resident_catalog(configured, tmp_path):
    configured(storage="disk", spill_dir=str(tmp_path), segment_rows=4096)
    set_buffer_manager(BufferManager(budget_bytes=8 * 1024 * 1024))
    try:
        catalog = layout(Sortedness.SORTED)
        assert is_disk_table(catalog.table("S"))
        assert_agreement(FILTERED, catalog, dqo_config(workers=4))
    finally:
        set_buffer_manager(None)


@pytest.fixture(scope="module")
def star3():
    """A fact table and two dimensions (one sorted dense, one unsorted
    sparse): the smallest shape with a multi-join search."""
    return make_star_scenario(
        fact_rows=4_000,
        dimensions=[
            DimensionSpec(800, 80),
            DimensionSpec(
                1_200, 120, sortedness=Sortedness.UNSORTED, density=Density.SPARSE
            ),
        ],
    )


@pytest.mark.parametrize("group_dimension", [0, 1])
@pytest.mark.parametrize(
    "make_config",
    [
        dqo_config,
        sqo_config,
        lambda: dqo_config(workers=2, backend="thread"),
        lambda: dqo_config(consider_commutation=True),
    ],
    ids=["dqo", "sqo", "dqo-thread2", "dqo-commuted"],
)
def test_three_relation_star(star3, make_config, group_dimension):
    assert_agreement(
        star3.join_query(group_dimension), star3.build_catalog(), make_config()
    )


def test_more_than_three_relations_are_refused():
    catalog = layout()
    logical = plan_query(
        "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID "
        "JOIN S AS T ON R.ID = T.R_ID JOIN S AS U ON R.ID = U.R_ID GROUP BY R.A",
        catalog,
    )
    with pytest.raises(OptimizationError, match="at most 3 relations"):
        enumerate_exhaustive(logical, catalog)
