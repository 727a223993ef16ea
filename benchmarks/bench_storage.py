"""Extension bench: out-of-core scans — cold, warm, and in-memory.

Times the same aggregation query three ways on a dataset at least twice
the buffer budget: a *cold* disk run (pool invalidated before every
repeat, so every segment pays the read), a *warm* disk run (pool
pre-seeded by an untimed pass, re-reading only what the budget cannot
hold), and the fully in-memory path. The cold-vs-warm record is written
as a JSON artifact (CI uploads it) via ``REPRO_BENCH_ARTIFACTS``. The
memory/disk identity and the zone-map segment counts are tier-1 laws
(``tests/engine/test_segment_scan.py``); the curve moves into the
``perf/`` ledger with ROADMAP item 22(b).
"""

import numpy as np
import pytest

from repro._util.timer import time_callable
from repro.engine import GroupBy, count_star, execute
from repro.engine.operators import SegmentScan, TableScan
from repro.storage import Table
from repro.storage.disk import BufferManager, write_table

GROUPS = 512
#: pool budget; the dataset below is sized to at least 2x this.
BUDGET_BYTES = 4 * 1024 * 1024
SEGMENT_ROWS = 65_536
ROWS = 1_000_000


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    rng = np.random.default_rng(3)
    table = Table.from_arrays(
        {
            "k": np.arange(ROWS, dtype=np.int64),
            "g": rng.integers(0, GROUPS, ROWS),
            "v": rng.integers(0, 1_000, ROWS),
        }
    )
    assert table.memory_bytes() >= 2 * BUDGET_BYTES
    pool = BufferManager(budget_bytes=BUDGET_BYTES)
    disk = write_table(
        table,
        str(tmp_path_factory.mktemp("bench_storage") / "T"),
        segment_rows=SEGMENT_ROWS,
        buffer=pool,
    )
    return table, disk, pool


def aggregate(scan):
    return execute(GroupBy(scan, "g", [count_star("n")]))


class TestColdWarmMemory:
    def test_cold_warm_memory_curve(self, setting, bench_artifact):
        table, disk, pool = setting
        timings = {}

        def cold_run():
            pool.invalidate(disk.uid)
            return aggregate(SegmentScan(disk))

        timings["storage/scan_cold"] = time_callable(
            cold_run, repeats=3, warmup=1
        )
        aggregate(SegmentScan(disk))  # seed what the budget can hold
        timings["storage/scan_warm"] = time_callable(
            lambda: aggregate(SegmentScan(disk)), repeats=3, warmup=1
        )
        timings["storage/scan_memory"] = time_callable(
            lambda: aggregate(TableScan(table)), repeats=3, warmup=1
        )

        for label, timing in timings.items():
            print(f"  {label}: {timing.best_ms:.2f}ms")
        stats = pool.stats()
        bench_artifact(
            "storage/cold_vs_warm",
            timings,
            meta={
                "rows": table.num_rows,
                "segments": disk.num_segments,
                "budget_bytes": BUDGET_BYTES,
                "decoded_bytes": disk.decoded_bytes(),
                "bytes_on_disk": disk.bytes_on_disk(),
                "buffer": stats,
            },
        )
        # The pool held its hard budget through every run.
        assert stats["resident_bytes"] <= BUDGET_BYTES
