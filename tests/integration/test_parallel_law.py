"""Parallel work runs where the plan says so, and nowhere else.

Every golden case's query (``test_golden_plans.py``: the four section 4.3
layouts, six star queries, three disk query classes) and the four
layouts again at 62 500 x 500 000 rows are planned at two workers, on
threads and on processes, and run under EXPLAIN ANALYZE with the same
settings. Two laws hold on every node:

* its measured parallel degree is > 1 exactly when its plan label
  carries ``/parallel``;
* no ``/parallel`` group-by sits on a join whose build input holds its
  key: the engine groups that build input once, serially.

A hand-built group-by names no loop mode, so it runs serially at any
worker count, however many rows it groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimizer.base import dqo_config
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.core.plan import to_operator
from repro.engine import count_star
from repro.engine.executor import explain_analyze
from repro.engine.operators import GroupBy, Join, TableScan
from repro.obs import capture_observability
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Table
from test_golden_plans import FIG5_LAYOUTS, FIG5_QUERY, cases, datagen, memory_catalog

pytestmark = pytest.mark.usefixtures("fork_pool")

#: ``fig5_workers2``'s (|R|, |S|, distinct R.A).
WORKERS2_SIZES = (62_500, 500_000, 20_000)


@pytest.fixture(scope="module")
def every_case(tmp_path_factory):
    """``[(label, catalog, query)]``: the golden cases, then the section
    4.3 layouts at ``WORKERS2_SIZES``."""
    with scoped_settings(storage="memory"):
        found = list(cases(tmp_path_factory.mktemp("law")))
        for index, (layout, (sorted_, dense)) in enumerate(FIG5_LAYOUTS.items()):
            tables = datagen.join_tables(
                np.random.default_rng([1, index]), *WORKERS2_SIZES, sorted_, dense
            )
            catalog = memory_catalog(tables, [("S", "R_ID", "R", "ID")])
            found.append((f"fig5_workers2/{layout}", catalog, FIG5_QUERY))
    return found


def operators(operator):
    """Pre-order walk of an executable operator tree."""
    yield operator
    for child in operator.children:
        yield from operators(child)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_work_runs_where_the_plan_says(every_case, backend):
    violations = []
    for label, catalog, query in every_case:
        config = dqo_config(workers=2, backend=backend)
        plan = DynamicProgrammingOptimizer(
            catalog, config=config, plan_cache=PlanCache()
        ).optimize(plan_query(query.sql(), catalog)).plan
        root = to_operator(plan, catalog)
        with scoped_settings(workers=2, backend=backend):
            analyzed = explain_analyze(root)
        walks = zip(plan.walk(), operators(root), analyzed.root.walk(), strict=True)
        for node, operator, stats in walks:
            assert stats.plan_op == node.op, label
            planned = "/parallel" in node.label
            if planned != (stats.parallel_degree > 1):
                violations.append(
                    f"{label}: {node.label} ran at degree {stats.parallel_degree}"
                )
            if (
                planned
                and isinstance(operator, GroupBy)
                and isinstance(operator.children[0], Join)
                and node.decision.keys[0]
                in operator.children[0].children[0].output_schema
            ):
                violations.append(f"{label}: {node.label} groups a join's build input")
    assert not violations, "\n".join(violations)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_hand_built_group_by_runs_serially(backend):
    keys = np.random.default_rng(41).integers(0, 500, 69_536)
    operator = GroupBy(TableScan(Table.from_arrays({"k": keys})), "k", [count_star("n")])
    with scoped_settings(workers=2, backend=backend):
        with capture_observability() as (metrics, __):
            analyzed = explain_analyze(operator)
    assert analyzed.root.parallel_degree <= 1
    assert metrics.snapshot().get("parallel.morsels", 0) == 0
