"""Extension bench: the parallel scaling curve (serial / thread / process).

Times the same >= 1M-row grouping workload on all three execution
strategies: serial through the ``GroupBy`` operator, and eight range
shards plus a merge (``partitioned_group_by``, the kernel a parallel
group-by runs) on the thread morsel pool and on the process pool with
shared-memory columns, at 1/2/4 workers, and records the full curve as
one JSON artifact. The speed-up claims (thread >= 1.5x
and process >= 2x over serial for 4-worker grouping) are asserted only
on hosts that actually have >= 4 cores; the artifact carries an explicit
``speedup_assertion`` marker so a skipped assertion can never read as a
passing one. Bit-identity against the serial operator and a zero-leak
``/dev/shm`` sweep (the ``fork_pool`` fixture) are asserted
unconditionally.

The curve is a timing, not a law: it retires with ROADMAP item 7, which
deletes the process backend.
"""

import os

import numpy as np
import pytest

from repro._util.timer import time_callable
from repro.datagen import Density, Sortedness, make_grouping_dataset
from repro.engine import count_star, execute, sum_of
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.parallel import partitioned_group_by
from repro.engine.operators import GroupBy, TableScan

pytestmark = pytest.mark.usefixtures("fork_pool")

ROWS = 1_000_000
GROUPS = 10_000
SHARDS = 8
WORKER_COUNTS = [1, 2, 4]
#: speedup floors asserted for 4-worker grouping on >= 4 cores.
SPEEDUP_FLOORS = {"thread": 1.5, "process": 2.0}
AGGREGATES = [count_star(), sum_of("value")]


@pytest.fixture(scope="module")
def table():
    return make_grouping_dataset(
        ROWS,
        GROUPS,
        Sortedness.UNSORTED,
        Density.DENSE,
        seed=0,
    ).to_table()


def grouped(table):
    """SPHG through the operator, serially."""
    return execute(
        GroupBy(
            TableScan(table),
            "key",
            AGGREGATES,
            algorithm=GroupingAlgorithm.SPHG,
            num_distinct_hint=GROUPS,
        ),
        workers=1,
    )


def sharded(table, workers, backend):
    """The same SPHG in ``SHARDS`` range shards on ``workers`` workers of
    ``backend``, merged: ``{column: array}``, keys ascending."""
    keys, columns, __ = partitioned_group_by(
        table["key"],
        {"value": table["value"]},
        AGGREGATES,
        GroupingAlgorithm.SPHG,
        SHARDS,
        GROUPS,
        backend,
        workers,
    )
    return {"key": keys, **columns}


def test_parallel_routes_identity(table):
    """Before any timing claim: both backends return the serial rows
    (up to the merge's key sort)."""
    serial = grouped(table).sort_by(["key"])
    for backend in ("thread", "process"):
        merged = sharded(table, 2, backend)
        for name in serial.schema.names:
            assert np.array_equal(merged[name], serial[name]), (backend, name)


def test_scaling_curve_serial_thread_process(table, bench_artifact):
    """The scaling claim: serial vs thread pool vs process pool at 1/2/4
    workers on the same >= 1M-row workloads."""
    cores = os.cpu_count() or 1
    timings: dict = {}

    timings["grouping/serial"] = time_callable(
        lambda: grouped(table), repeats=3, warmup=1
    )
    for workers in WORKER_COUNTS:
        for backend in ("thread", "process"):
            timings[f"grouping/{backend}{workers}"] = time_callable(
                lambda w=workers, b=backend: sharded(table, w, b),
                repeats=3, warmup=1,
            )

    speedups = {
        f"grouping/{backend}{workers}": (
            timings["grouping/serial"].best
            / timings[f"grouping/{backend}{workers}"].best
        )
        for backend in ("thread", "process")
        for workers in WORKER_COUNTS
    }
    for label, speedup in sorted(speedups.items()):
        print(f"  speedup {label}: {speedup:.2f}x")
    bench_artifact(
        "procpool/scaling",
        timings,
        meta={
            "rows": table.num_rows,
            "cpu_count": cores,
            "workers": WORKER_COUNTS,
            "speedups": speedups,
            # Whether the floors below were actually asserted on this
            # host — so an artifact from a starved CI runner can't be
            # mistaken for a passing perf claim.
            "speedup_assertion": (
                "enforced" if cores >= 4 else f"skipped: {cores} cores"
            ),
        },
    )
    if cores >= 4:
        for backend, floor in SPEEDUP_FLOORS.items():
            speedup = speedups[f"grouping/{backend}4"]
            assert speedup >= floor, (
                f"expected >= {floor}x {backend}-backend grouping speedup at "
                f"4 workers on a {cores}-core host, got {speedup:.2f}x"
            )
    # One worker does the same kernel work plus a merge (and, on the
    # process pool, segment publication): neither may collapse.
    assert speedups["grouping/thread1"] > 1 / 3.0
    assert speedups["grouping/process1"] > 1 / 5.0
