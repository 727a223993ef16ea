"""Emit ``BENCH_baseline.json`` — the perf-trajectory seed artifact.

Measures the same quantities as ``bench_obs_overhead.py`` (execute()
with observability disabled/enabled, ``explain_analyze``) and
``bench_figure4.py`` (grouping kernel best-times per panel/algorithm)
into one :func:`repro.bench.reporting.write_json_artifact` record, so
``python -m repro.bench.compare BENCH_baseline.json current.json`` has a
committed baseline to gate against. A metrics snapshot from the
instrumented run (including the ``optimizer.qerror`` histogram) rides
along in the artifact.

Absolute times are machine-dependent — regenerate the baseline on the
machine that will run the gate::

    python benchmarks/make_baseline.py --rows 300000 --out BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from repro import (
    Density,
    Sortedness,
    disable_observability,
    execute,
    make_grouping_dataset,
    make_join_scenario,
    optimize_dqo,
    plan_query,
    to_operator,
)
from repro._util.timer import time_callable
from repro.bench.figure4 import applicable_algorithms
from repro.bench.reporting import write_json_artifact
from repro.engine import GroupingAlgorithm, group_by
from repro.engine.executor import explain_analyze
from repro.obs import FeedbackStore, capture_observability, merge_snapshots

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
PANELS = [
    (Sortedness.SORTED, Density.DENSE),
    (Sortedness.SORTED, Density.SPARSE),
    (Sortedness.UNSORTED, Density.DENSE),
    (Sortedness.UNSORTED, Density.SPARSE),
]
GROUPS = 10_000


def measure_obs_overhead(timings: dict) -> dict:
    """The ``bench_obs_overhead.py`` quantities; returns the metrics
    snapshot of the instrumented run."""
    disable_observability()
    scenario = make_join_scenario(
        n_r=45_000,
        n_s=90_000,
        num_groups=20_000,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    )
    catalog = scenario.build_catalog()
    plan = to_operator(optimize_dqo(plan_query(QUERY, catalog), catalog).plan, catalog)

    timings["obs/seed_to_table"] = time_callable(
        lambda: plan.to_table(), repeats=9, warmup=2
    )
    timings["obs/execute_disabled"] = time_callable(
        lambda: execute(plan), repeats=9, warmup=2
    )
    feedback = FeedbackStore()
    with capture_observability() as (metrics, __):
        timings["obs/execute_enabled"] = time_callable(
            lambda: execute(plan), repeats=5, warmup=1
        )
        timings["obs/explain_analyze"] = time_callable(
            lambda: explain_analyze(plan, feedback=feedback).table,
            repeats=5,
            warmup=1,
        )
        snapshot = metrics.snapshot()
    print(feedback.render())
    return snapshot


def measure_figure4(timings: dict, rows: int) -> None:
    """Best-time per (panel, algorithm) at the paper's mid-range group
    count — the ``bench_figure4.py`` grid."""
    for sortedness, density in PANELS:
        dataset = make_grouping_dataset(
            rows, GROUPS, sortedness=sortedness, density=density, seed=0
        )
        for algorithm in applicable_algorithms(sortedness, density):
            label = f"figure4/{sortedness.value}-{density.value}/{algorithm.name}"
            timings[label] = time_callable(
                lambda a=algorithm: group_by(
                    dataset.keys,
                    dataset.payload,
                    a,
                    num_distinct_hint=GROUPS,
                ),
                repeats=3,
                warmup=1,
            )
            print(f"  {label}: {timings[label].best_ms:.2f}ms")


def measure_parallel(timings: dict, rows: int) -> None:
    """Serial vs morsel-parallel kernel times at 1/2/4 workers — the
    thread half of ``bench_procpool.py``'s scaling curve, at the kernel
    API (speedups are host-core-dependent; the baseline records absolute
    times)."""
    from repro.engine.kernels.parallel import parallel_group_by

    dataset = make_grouping_dataset(
        rows, GROUPS, sortedness=Sortedness.UNSORTED, density=Density.DENSE,
        seed=0,
    )
    timings["parallel/grouping_serial"] = time_callable(
        lambda: group_by(
            dataset.keys, dataset.payload, GroupingAlgorithm.SPHG,
            num_distinct_hint=GROUPS,
        ),
        repeats=3, warmup=1,
    )
    for workers in (1, 2, 4):
        label = f"parallel/grouping_workers{workers}"
        timings[label] = time_callable(
            lambda w=workers: parallel_group_by(
                dataset.keys, dataset.payload, GroupingAlgorithm.SPHG,
                shards=8, num_distinct_hint=GROUPS, workers=w,
            ),
            repeats=3, warmup=1,
        )
        print(f"  {label}: {timings[label].best_ms:.2f}ms")


def measure_storage(timings: dict) -> None:
    """Cold/warm out-of-core scans vs the in-memory path — the
    ``bench_storage.py`` quantities, at baseline scale (a 4 MiB pool
    against a ~12 MiB table, so warm runs still evict)."""
    import tempfile

    import numpy as np

    from repro.engine import GroupBy, count_star
    from repro.engine.operators import SegmentScan, TableScan
    from repro.storage import Table
    from repro.storage.disk import BufferManager, write_table

    rows = 500_000
    rng = np.random.default_rng(3)
    table = Table.from_arrays(
        {
            "k": np.arange(rows, dtype=np.int64),
            "g": rng.integers(0, 512, rows),
            "v": rng.integers(0, 1_000, rows),
        }
    )
    pool = BufferManager(budget_bytes=4 * 1024 * 1024)
    with tempfile.TemporaryDirectory() as directory:
        disk = write_table(
            table, directory, segment_rows=65_536, buffer=pool
        )

        def aggregate(scan):
            return execute(GroupBy(scan, "g", [count_star("n")]))

        def cold_run():
            pool.invalidate(disk.uid)
            return aggregate(SegmentScan(disk))

        timings["storage/scan_cold"] = time_callable(
            cold_run, repeats=3, warmup=1
        )
        aggregate(SegmentScan(disk))
        timings["storage/scan_warm"] = time_callable(
            lambda: aggregate(SegmentScan(disk)), repeats=3, warmup=1
        )
        timings["storage/scan_memory"] = time_callable(
            lambda: aggregate(TableScan(table)), repeats=3, warmup=1
        )
        for label in ("storage/scan_cold", "storage/scan_warm", "storage/scan_memory"):
            print(f"  {label}: {timings[label].best_ms:.2f}ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows",
        type=int,
        default=300_000,
        help="rows per figure4 grouping dataset (default %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_baseline.json",
        help="output artifact path (default %(default)s)",
    )
    options = parser.parse_args(argv)

    timings: dict = {}
    print("measuring observability overhead quantities...")
    snapshot = measure_obs_overhead(timings)
    print(f"measuring figure4 grid at {options.rows:,} rows...")
    measure_figure4(timings, options.rows)
    print(f"measuring parallel kernels at {options.rows:,} rows...")
    measure_parallel(timings, options.rows)
    print("measuring out-of-core storage scans...")
    measure_storage(timings)

    path = write_json_artifact(
        options.out,
        "baseline",
        timings,
        metrics=merge_snapshots([snapshot]),
        meta={
            "figure4_rows": options.rows,
            "figure4_groups": GROUPS,
            "obs_rows_r": 45_000,
            "obs_rows_s": 90_000,
            "cpu_count": os.cpu_count(),
            "generated_by": "benchmarks/make_baseline.py",
        },
    )
    print(f"wrote {path} ({len(timings)} timing(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
