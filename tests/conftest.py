"""Shared fixtures: small deterministic datasets and catalogs.

Tests configure by value: a fixture that needs other settings installs
``replace(get_settings(), ...)`` with :func:`repro.settings.set_settings`
and puts the previous value back, and ``_settings_unchanged`` fails any
test that leaves the process-wide settings different from how it found
them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datagen import Density, Sortedness, make_grouping_dataset, make_join_scenario
from repro.settings import get_settings, set_settings
from repro.storage import Catalog, Table


@pytest.fixture(autouse=True)
def _settings_unchanged():
    before = get_settings()
    yield
    after = get_settings()
    if after != before:
        set_settings(before)
        pytest.fail(f"test left the process-wide settings changed: {after} != {before}")


@pytest.fixture
def configured():
    """``configured(**changes)`` installs process-wide settings with
    ``changes`` applied for the rest of the test — visible on every
    thread, server connections included — and restores them after."""
    restore = []

    def apply(**changes):
        restore.append(set_settings(replace(get_settings(), **changes)))

    yield apply
    for previous in reversed(restore):
        set_settings(previous)


@pytest.fixture
def memory_storage(configured):
    """Pin the in-memory storage path for this test.

    Used by paper-exact cost assertions (Table 2 has no I/O terms, so
    ``REPRO_STORAGE=disk`` legitimately shifts costs) and by tests of
    in-memory-only machinery (shared-memory column store, overlay array
    sharing) whose semantics do not apply to spilled tables.
    """
    configured(storage="memory")


@pytest.fixture(scope="module")
def fork_pool():
    """Cheap fork workers for the requesting module's process-pool tests
    (the production default is ``spawn``), and the zero-leak contract on
    the way out: no ``repro_shm_*`` entry survives in ``/dev/shm``."""
    from repro.engine.procpool import leaked_segments, shutdown_process_pool

    previous = set_settings(replace(get_settings(), proc_start="fork"))
    shutdown_process_pool()
    yield
    shutdown_process_pool()
    set_settings(previous)
    assert leaked_segments() == []


@pytest.fixture
def rng():
    """A deterministic RNG for ad-hoc data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_table():
    """A tiny two-column table with known contents."""
    return Table.from_arrays(
        {
            "k": np.array([3, 1, 2, 1, 3, 3], dtype=np.int64),
            "v": np.array([10, 20, 30, 40, 50, 60], dtype=np.int64),
        }
    )


@pytest.fixture
def grouping_datasets():
    """All four §4.1 dataset configurations at test scale."""
    return {
        (sortedness, density): make_grouping_dataset(
            5_000, 40, sortedness=sortedness, density=density, seed=7
        )
        for sortedness in Sortedness
        for density in Density
    }


@pytest.fixture
def join_catalog():
    """A reduced-size §4.3 scenario catalog (R sorted, S sorted, dense)."""
    scenario = make_join_scenario(n_r=1_000, n_s=2_500, num_groups=100, seed=5)
    return scenario.build_catalog()


@pytest.fixture
def paper_query():
    """The §4.3 query, verbatim."""
    return "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
