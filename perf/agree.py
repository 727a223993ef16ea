"""Compare two result sets: ``python -m perf.agree A B``.

A and B are each a ``results.json`` written by ``perf/run.py --out``,
or a directory searched for such files (several runs of one side). For
every (end-to-end metric, workload) pair the medians are compared
against the metric's bound in ``BENCHMARK.json``:

* ``within``      B's median is no worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, so the pair decides nothing.

``failed_share`` is ``worse`` on any increase. Per-layer metrics have
no bound; they are listed as ``same`` or ``differs``. Exits 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from perf import benchmark


def load(path: Path) -> dict:
    """{(workload, metric): [value per run]} of one side."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"perf.agree: no results.json under {path}")
    values = defaultdict(list)
    for file in files:
        for run in json.loads(file.read_text())["runs"]:
            for metric, cell in run["metrics"].items():
                values[run["workload"], metric].append(cell["value"])
            if not run["traced"]:
                values[run["workload"], "failed_share"].append(run["failed_share"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; with fewer than
    four runs the range (quartiles of two or three points are
    extrapolated), and 0 for one run."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(spec: dict, before: list[float], after: list[float]) -> tuple:
    """(relative change for the worse, spread, verdict) of one pair."""
    a, b = statistics.median(before), statistics.median(after)
    worse_by = (b - a if spec["better"] == "lower" else a - b) / abs(a) if a else 0.0
    noise = max(spread(before), spread(after))
    if noise > spec["bound"]:
        return worse_by, noise, "unresolved"
    return worse_by, noise, "worse" if worse_by > spec["bound"] else "within"


def compare(before: dict, after: dict) -> list[tuple]:
    rows = []
    contract = benchmark()
    for workload in (spec["name"] for spec in contract["workloads"]):
        for spec in contract["end_to_end"]:
            key = (workload, spec["name"])
            if key in before and key in after:
                a, b = before[key], after[key]
                rows.append((*key, a, b, spec["bound"], *verdict(spec, a, b)))
        key = (workload, "failed_share")
        if key in before and key in after:
            a, b = statistics.median(before[key]), statistics.median(after[key])
            rows.append((*key, before[key], after[key], 0.0, b - a, 0.0,
                         "worse" if b > a else "within"))
        for spec in contract["per_layer"]:
            key = (workload, spec["name"])
            if key in before and key in after:
                same = statistics.median(before[key]) == statistics.median(after[key])
                rows.append((*key, before[key], after[key], None, None, None,
                             "same" if same else "differs"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])))
    print(f"{'workload':14s} {'metric':34s} {'A median':>14s} {'B median':>14s} "
          f"{'worse by':>9s} {'bound':>7s} {'spread':>7s}  verdict")
    for workload, metric, a, b, bound, worse_by, noise, word in rows:
        cells = (
            f"{worse_by:+9.2%} {bound:7.0%} {noise:7.2%}" if bound is not None else " " * 25
        )
        print(f"{workload:14s} {metric:34s} {statistics.median(a):14.4f} "
              f"{statistics.median(b):14.4f} {cells}  {word}")
    worse = [row for row in rows if row[-1] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse, "
          f"{sum(row[-1] == 'unresolved' for row in rows)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
