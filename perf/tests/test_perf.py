"""Checks of the benchmark itself: ``python -m pytest perf/tests``.

One ``--smoke --traced`` run of the whole suite (tiny instances, a few
seconds) feeds most of the tests.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import agree, harness  # noqa: E402
from perf.reference import Query, evaluate, same_rows  # noqa: E402
from perf.workloads import WORKLOADS, ColdLoad  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [spec["name"] for spec in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """{(workload, traced): run record} of one smoke run of everything."""
    out = tmp_path_factory.mktemp("perf_smoke")
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    document = json.loads((out / "results.json").read_text())
    assert {"cpu_count", "python", "numpy", "git_commit", "seed", "normalisation"} <= set(
        document["host"]
    )
    for name in NAMES:
        spans = [
            json.loads(line)
            for line in (out / f"trace-{name}.jsonl").read_text().splitlines()
        ]
        assert spans and {"id", "parent", "op", "name", "start", "end"} == set(spans[0])
    return {(run["workload"], run["traced"]): run for run in document["runs"]}


def test_benchmark_json_names_the_workloads():
    assert NAMES == list(WORKLOADS)
    for spec in BENCHMARK["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why
        assert len(spec["why"]) <= 200 and "\n" not in spec["why"]
    assert any(spec["name"] == "setup_s" for spec in BENCHMARK["end_to_end"])


def test_every_metric_is_reported_with_its_unit(suite):
    for name in NAMES:
        for section, traced in (("end_to_end", False), ("per_layer", True)):
            metrics = suite[name, traced]["metrics"]
            assert set(metrics) == {spec["name"] for spec in BENCHMARK[section]}
            for spec in BENCHMARK[section]:
                assert metrics[spec["name"]]["unit"] == spec["unit"]
                assert np.isfinite(metrics[spec["name"]]["value"])
        for metric, cell in suite[name, False]["metrics"].items():
            assert cell["value"] > 0, (name, metric)


def test_each_layer_metric_moves_on_its_workload(suite):
    """The layer a workload was chosen for reports a non-zero number."""
    expected = {
        "fig5_warm": ["kernels.kernel_ms", "operators.execute_ms", "optimizer.dqo_speedup"],
        "fig5_workers2": ["backend.regret"],
        "adhoc_plan": ["dp.optimize_ms", "dp.generated", "plancache.hit_share", "sql.parse_ms"],
        "cold_load": ["stats.first_touch_ms"],
        "disk_scan": ["disk.scan_ms", "disk.segments_read", "disk.segments_skipped",
                      "disk.evictions", "disk.append_ms"],
        "served_mix": ["server.wire_ms", "server.serialize_ms"],
    }
    for name, metrics in expected.items():
        for metric in metrics:
            assert suite[name, True]["metrics"][metric]["value"] > 0, (name, metric)
    assert suite["fig5_warm", True]["metrics"]["disk.segments_read"]["value"] == 0
    assert suite["fig5_warm", True]["metrics"]["server.wire_ms"]["value"] == 0


def test_layer_self_times_cover_the_operation(suite):
    for name in NAMES:
        shares = suite[name, True]["layer_shares"]
        for per_class in shares.values():
            assert sum(per_class.values()) == pytest.approx(1.0, abs=0.1)


def test_percentiles_fall_inside_one_class(suite):
    """p50 and p90 lie >= 5 points from every class boundary: for the
    run's measured ordering of the classes, and for any other."""
    for name in NAMES:
        margins = suite[name, False]["percentile_margin"]
        assert margins["p50"] >= 5 and margins["p90"] >= 5, (name, margins)
        weights = list(WORKLOADS[name].classes.values())
        total = sum(weights)
        for size in range(1, len(weights)):
            for subset in itertools.combinations(weights, size):
                edge = 100.0 * sum(subset) / total
                assert abs(edge - 50) >= 5 and abs(edge - 90) >= 5, (name, subset)


def test_every_run_attempts_enough_and_none_fails(suite):
    """The reference agrees with the engine on a tiny instance of each
    query family: every checked operation of the smoke run matched."""
    for name in NAMES:
        for traced in (False, True):
            run = suite[name, traced]
            assert run["attempted"] >= harness.SMOKE_MIN_OPS
            assert run["failed"] == 0, (name, run["errors"])


def test_failing_query_class_is_kept_visible(suite):
    metrics = suite["adhoc_plan", True]["metrics"]
    assert 0 <= metrics["optimizer.selective_failed_share"]["value"] <= 1


def test_children_leave_nothing_behind(suite):
    for run in suite.values():
        assert run["leftovers"] == [], (run["workload"], run["leftovers"])
    assert not (ROOT / ".perf_work").exists()
    if os.path.isdir("/dev/shm"):
        assert not [entry for entry in os.listdir("/dev/shm") if "repro" in entry]


def test_reference_on_a_hand_computed_instance():
    tables = {
        "R": {"ID": np.array([30, 10, 20]), "A": np.array([2, 1, 1])},
        "S": {"R_ID": np.array([10, 30, 30, 20, 10]), "B": np.array([5, 6, 7, 8, 9])},
    }
    join = Query("S", ("R", "A"), (("R", "R_ID"),))
    assert join.sql() == (
        "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
    )
    keys, counts = evaluate(join, tables)
    assert keys.tolist() == [1, 2] and counts.tolist() == [3, 2]
    filtered = Query("S", ("R", "A"), (("R", "R_ID"),), filter=("R", "A", 2))
    assert [column.tolist() for column in evaluate(filtered, tables)] == [[1], [3]]
    summed = Query("S", ("S", "R_ID"), filter=("S", "B", 9), sum_column="B")
    assert summed.sql() == (
        "SELECT S.R_ID, SUM(S.B) FROM S WHERE S.B < 9 GROUP BY S.R_ID"
    )
    keys, sums = evaluate(summed, tables)
    assert keys.tolist() == [10, 20, 30] and sums.tolist() == [5, 8, 13]
    assert same_rows((keys, sums), [30, 10, 20], [13, 5, 8])
    assert not same_rows((keys, sums), [30, 10, 20], [13, 5, 9])
    assert not same_rows((keys, sums), [30, 10], [13, 5])


def test_corrupted_result_is_counted_as_failed(tmp_path):
    class Corrupting(ColdLoad):
        def run(self, op, client):
            result = super().run(op, client)
            keys, values = result.rows
            values = values.copy()
            values[0] += 1
            result.rows = (keys, values)
            return result

    workload = Corrupting(seed=0, scale=harness.SMOKE_SCALE, work_dir=str(tmp_path))
    workload.setup()
    try:
        records = harness.measure(workload, 0.0, harness.SMOKE_MIN_OPS, None)
    finally:
        workload.teardown()
    assert records and all(record.error == "Mismatch" for record in records)
    assert harness.cycle_statistics(records, workload)["queries_per_s"] == 0.0


def test_agree_verdicts(tmp_path):
    def document(p50: float, failed_share: float = 0.0) -> dict:
        runs = []
        for jitter in (0.99, 1.0, 1.01):
            runs.append(
                {
                    "workload": "fig5_warm",
                    "traced": False,
                    "failed_share": failed_share,
                    "metrics": {
                        "query_p50_ms": {"value": p50 * jitter, "unit": "ms"},
                        "queries_per_s": {"value": 1000 / (p50 * jitter), "unit": "1/s"},
                    },
                }
            )
        return {"runs": runs}

    def verdicts(before: dict, after: dict) -> dict:
        for name, content in (("a", before), ("b", after)):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / "results.json").write_text(json.dumps(content))
        rows = agree.compare(agree.load(tmp_path / "a"), agree.load(tmp_path / "b"))
        return {row[1]: row[-1] for row in rows}

    bound = next(
        spec["bound"] for spec in BENCHMARK["end_to_end"] if spec["name"] == "query_p50_ms"
    )
    slow = 50 * (1 + bound) * 1.2
    assert set(verdicts(document(50), document(52)).values()) == {"within"}
    slower = verdicts(document(50), document(slow))
    assert slower["query_p50_ms"] == "worse" and slower["queries_per_s"] == "worse"
    assert verdicts(document(50), document(50, 0.01))["failed_share"] == "worse"
    noisy = document(50)
    noisy["runs"][0]["metrics"]["query_p50_ms"]["value"] = 50 * (1 + 4 * bound)
    assert verdicts(noisy, document(slow))["query_p50_ms"] == "unresolved"
    for after, status in ((document(52), 0), (document(slow), 1)):
        verdicts(document(50), after)
        assert agree.main([str(tmp_path / "a"), str(tmp_path / "b")]) == status


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fig5_warm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
