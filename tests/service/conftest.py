"""Service-layer fixtures: small and governance-scale catalogs."""

from __future__ import annotations

import pytest

from repro.datagen import Density, Sortedness, make_join_scenario
from repro.service.session import QueryService


@pytest.fixture
def service(join_catalog):
    """An in-process query service over the small §4.3 catalog."""
    svc = QueryService(join_catalog)
    yield svc
    svc.shutdown()


@pytest.fixture(scope="session")
def big_catalog():
    """A governance-scale catalog: the join probes >= 1M rows, so a
    query that gathers its pairs (a SUM over an S column) runs long
    enough for deadlines and cancellation to fire mid-flight; a warm
    COUNT looks nothing up and is done in a few ms. Session-scoped —
    building it costs real seconds."""
    scenario = make_join_scenario(
        n_r=100_000,
        n_s=1_200_000,
        num_groups=100,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=11,
    )
    return scenario.build_catalog()
