"""Density must not survive a join whose input a filter left sparse.

A star query whose filter keeps a sliver of the fact table used to die
with ``PreconditionError``: the optimiser kept ``dense(Dg.A)`` through
every join "under the FK assumption" and chose SPHG for a grouping key
of which only a handful of values were left. Every filter template runs
through the service at three selectivities and is compared with the
naive evaluator.
"""

import numpy as np
import pytest

from repro.core.optimizer.rules import stays_dense
from repro.datagen import DimensionSpec, make_star_scenario
from repro.datagen.grouping import Density, Sortedness
from repro.indexes.perfect_hash import MIN_DENSITY
from repro.logical.naive import evaluate_naive
from repro.service.session import QueryService
from repro.sql import plan_query

FACT_ROWS = 5_000
DIMENSIONS = [
    DimensionSpec(rows=2_000, num_groups=200),
    DimensionSpec(rows=3_000, num_groups=300, sortedness=Sortedness.UNSORTED),
    DimensionSpec(rows=2_500, num_groups=250, density=Density.SPARSE),
]


@pytest.fixture(scope="module")
def star():
    scenario = make_star_scenario(FACT_ROWS, DIMENSIONS, seed=5)
    catalog = scenario.build_catalog()
    service = QueryService(catalog)
    yield scenario, catalog, service
    service.shutdown()


def literal_keeping(values: np.ndarray, share: float) -> int:
    """``c`` such that ``value < c`` keeps about ``share`` of ``values``."""
    ordered = np.sort(values)
    return int(ordered[int(share * (ordered.size - 1))]) + 1


def filters(scenario, template: str, group: int, share: float) -> list[str]:
    """The WHERE clauses of one template (one per filtered column)."""
    if template == "fact_measure":
        return [f"FACT.M < {literal_keeping(scenario.fact['M'], share)}"]
    if template == "fact_foreign_key":
        return [
            f"FACT.D{j}_ID < {literal_keeping(scenario.fact[f'D{j}_ID'], share)}"
            for j in range(scenario.num_dimensions)
        ]
    # Fact rows reference a dimension's rows evenly, so a share of its
    # rows is about the same share of the fact's.
    values = scenario.dimensions[group]["A"]
    return [f"D{group}.A < {literal_keeping(values, share)}"]


@pytest.mark.parametrize("share", [0.001, 0.01, 0.3])
@pytest.mark.parametrize(
    "template", ["fact_measure", "fact_foreign_key", "group_attribute"]
)
def test_filtered_star_matches_naive_evaluation(star, template, share):
    scenario, catalog, service = star
    for group in range(scenario.num_dimensions):
        base = scenario.join_query(group)
        head, tail = base.split(" GROUP BY ")
        for where in filters(scenario, template, group, share):
            sql = f"{head} WHERE {where} GROUP BY {tail}"
            key = f"D{group}.A"
            got = service.execute(sql).table.sort_by([key])
            expected = evaluate_naive(plan_query(sql, catalog), catalog)
            assert got.equals(expected.sort_by([key])), sql


def test_density_threshold_is_the_kernel_guards():
    """The optimiser drops density exactly where the expected share of
    surviving values falls below what the SPH guard accepts."""
    domain = 1_000.0
    threshold = -np.log(1.0 - MIN_DENSITY) * domain
    assert stays_dense(domain, threshold * 1.01)
    assert not stays_dense(domain, threshold * 0.99)
    assert stays_dense(domain, 50 * domain)
    assert not stays_dense(0.0, 10.0)
