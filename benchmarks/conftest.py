"""Shared benchmark configuration.

Benchmark scale is reduced relative to the paper's 100M rows (DESIGN.md
substitution #2) but large enough that the Figure 4 shapes are stable.
Override with ``REPRO_BENCH_ROWS``.
"""

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.reporting import write_json_artifact
from repro.settings import get_settings, set_settings

#: rows per grouping benchmark (paper: 100,000,000).
BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "1000000"))


@pytest.fixture(scope="session")
def bench_rows():
    return BENCH_ROWS


@pytest.fixture
def bench_artifact():
    """Write a machine-readable JSON record of a benchmark run.

    Returns ``record(name, timings, metrics=None, meta=None)``. When
    ``REPRO_BENCH_ARTIFACTS`` names a directory, the record is written
    there as ``<name>.json`` (slashes become underscores) and the path
    is returned; otherwise the call is a no-op returning None, so
    benchmarks can record unconditionally.
    """

    def record(name, timings, metrics=None, meta=None):
        directory = os.environ.get("REPRO_BENCH_ARTIFACTS")
        if not directory:
            return None
        filename = name.replace("/", "_").replace(" ", "_") + ".json"
        return write_json_artifact(
            Path(directory) / filename, name, timings, metrics, meta
        )

    return record


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
