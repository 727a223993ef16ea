"""Every plan of the oracle's space executes and agrees with the DP's pick.

The optimiser may pick any plan of its space for some catalog or cost
calibration, so each one must return the same rows, not only the plans
the DP picks today. Over the four Figure-5 layouts (both relations
sorted or both unsorted, dense or sparse keys) at reduced size, every
distinct plan :func:`enumerate_exhaustive` composes is lowered (with its
runtime precondition checks on) and executed, serially and at two thread
workers; its rows, sorted by the group key, equal the DP pick's, and
the DP pick's equal the group sizes numpy computes from the generated
arrays (``JoinScenario.expected_groups``), which no route can change.

Each plan runs three times over tables nothing was memoised on: cold,
then with its build structures memoised and the probe column's first
probe recorded, then with the probe dictionary HJ and BSJ look their
keys up by. Every run must return the same rows.
"""

import numpy as np
import pytest

from repro.core import DynamicProgrammingOptimizer, dqo_config
from repro.core.optimizer import enumerate_exhaustive
from repro.core.plan import to_operator
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import execute
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Catalog, Column, ForeignKey, Table

pytestmark = pytest.mark.usefixtures("memory_storage")


def rows_by_key(table) -> list[tuple]:
    return sorted(zip(*(table[name].tolist() for name in table.schema.names)))


def fresh_catalog(scenario) -> Catalog:
    """The scenario's relations as new tables over the same arrays, so
    no build structure is memoised on them yet."""
    catalog = Catalog()
    for name, table in (("R", scenario.r), ("S", scenario.s)):
        columns = (Column(c.name, c.values, c.dtype) for c in table.columns())
        catalog.register(name, Table(columns))
    catalog.add_foreign_key(ForeignKey("S", "R_ID", "R", "ID"))
    return catalog


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread2"])
@pytest.mark.parametrize("density", list(Density), ids=lambda d: d.name.lower())
@pytest.mark.parametrize("sortedness", list(Sortedness), ids=lambda s: s.name.lower())
def test_every_oracle_plan_returns_the_dp_picks_rows(sortedness, density, workers, paper_query):
    scenario = make_join_scenario(
        2_000,
        12_000,
        400,
        r_sortedness=sortedness,
        s_sortedness=sortedness,
        density=density,
        seed=4,
    )
    catalog = scenario.build_catalog()
    config = dqo_config(workers=workers, backend="thread")
    logical = plan_query(paper_query, catalog)
    pick = DynamicProgrammingOptimizer(catalog, config=config).optimize(logical).plan
    plans = enumerate_exhaustive(logical, catalog, config=config)
    assert len({plan.description for plan in plans}) == len(plans) > 1
    with scoped_settings(workers=workers, backend="thread"):
        expected = rows_by_key(execute(to_operator(pick, catalog)))
        assert expected
        keys, counts = scenario.expected_groups()
        assert expected == list(zip(keys.tolist(), counts.tolist()))
        for plan in plans:
            tables = fresh_catalog(scenario)
            for run in ("cold", "first touch", "dictionary"):
                result = execute(to_operator(plan.plan, tables))
                assert rows_by_key(result) == expected, (plan.description, run)
    keys = np.array([row[0] for row in expected])
    assert np.unique(keys).size == keys.size
