"""Every plan of the oracle's space executes and agrees with the DP's pick.

The optimiser may pick any plan of its space for some catalog or cost
calibration, so each one must return the same rows, not only the plans
the DP picks today. Over the four Figure-5 layouts (both relations
sorted or both unsorted, dense or sparse keys) at reduced size, every
distinct plan :func:`enumerate_exhaustive` composes is lowered (with its
runtime precondition checks on) and executed, serially and at two thread
workers; its rows, sorted by the group key, equal the DP pick's.
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

pytestmark = pytest.mark.usefixtures("memory_storage")


def rows_by_key(table) -> list[tuple]:
    return sorted(zip(*(table[name].tolist() for name in table.schema.names)))


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread2"])
@pytest.mark.parametrize("density", list(Density), ids=lambda d: d.name.lower())
@pytest.mark.parametrize("sortedness", list(Sortedness), ids=lambda s: s.name.lower())
def test_every_oracle_plan_returns_the_dp_picks_rows(sortedness, density, workers, paper_query):
    catalog = make_join_scenario(
        2_000,
        12_000,
        400,
        r_sortedness=sortedness,
        s_sortedness=sortedness,
        density=density,
        seed=4,
    ).build_catalog()
    config = dqo_config(workers=workers, backend="thread")
    logical = plan_query(paper_query, catalog)
    pick = DynamicProgrammingOptimizer(catalog, config=config).optimize(logical).plan
    plans = enumerate_exhaustive(logical, catalog, config=config)
    assert len({plan.description for plan in plans}) == len(plans) > 1
    with scoped_settings(workers=workers, backend="thread"):
        expected = rows_by_key(execute(to_operator(pick, catalog)))
        assert expected
        for plan in plans:
            result = execute(to_operator(plan.plan, catalog))
            assert rows_by_key(result) == expected, plan.description
    keys = np.array([row[0] for row in expected])
    assert np.unique(keys).size == keys.size
