"""Run the benchmark: ``python3 perf/run.py`` or ``python -m perf.run``.

Each workload runs in its own child process (``python -m perf.harness``)
with every ambient ``REPRO_*`` variable cleared. The driver's form is ::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` all six run; ``--traced`` runs both passes and
prints the tracing overhead; ``--smoke`` runs tiny instances; ``--out
DIR`` keeps ``results.json`` (with a host record) and the
``trace-<workload>.jsonl`` span files. Exits non-zero without a result
line when the program under ``src/`` is missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make ``perf`` importable
    sys.path.insert(0, str(ROOT))

from perf import benchmark  # noqa: E402 - needs the path entry above

#: scratch space inside the checkout; the child's TMPDIR points here too.
WORK_ROOT = ROOT / ".perf_work"
#: a child that has not finished by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_SECONDS = 170
SHARED_MEMORY = Path("/dev/shm")


def shared_segments() -> set[str]:
    try:
        return {entry for entry in os.listdir(SHARED_MEMORY) if "repro" in entry}
    except OSError:
        return set()


def group_ended(group: int, patience: float = 2.0) -> bool:
    """True once no process of the child's group is left. The child's
    helpers (multiprocessing's resource tracker) end a moment after it,
    so this waits up to ``patience`` seconds before giving up."""
    deadline = time.monotonic() + patience
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def run_child(workload, seed, seconds, trace, smoke, out_dir) -> dict:
    """One workload in a fresh interpreter; returns its result record,
    with what the child left behind listed under ``leftovers``."""
    work_dir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    environment = {
        name: value for name, value in os.environ.items() if not name.startswith("REPRO_")
    }
    environment.update(
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        TMPDIR=str(work_dir),
        # Set and dict iteration order must not differ between runs.
        PYTHONHASHSEED="0",
    )
    command = [sys.executable, "-m", "perf.harness", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    command += ["--work-dir", str(work_dir)] + (["--smoke"] if smoke else [])
    segments_before = shared_segments()
    # Its own process group, so that stray workers can be found and stopped.
    child = subprocess.Popen(command, env=environment, cwd=ROOT, start_new_session=True)
    try:
        status = child.wait(timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        status = None
    leftovers = []
    if status is None or not group_ended(child.pid):
        os.killpg(child.pid, signal.SIGKILL)
        leftovers.append("process")
    child.wait()
    for name in shared_segments() - segments_before:
        (SHARED_MEMORY / name).unlink(missing_ok=True)
        leftovers.append(f"shared memory {name}")
    try:
        if status != 0:
            raise SystemExit(f"perf: workload {workload} did not finish (status {status})")
        result = json.loads((work_dir / "result.json").read_text())
        (work_dir / "result.json").unlink()
        if trace:
            if out_dir is not None:
                shutil.move(work_dir / "trace.jsonl", out_dir / f"trace-{workload}.jsonl")
            else:
                (work_dir / "trace.jsonl").unlink()
        leftovers += [f"file {path.name}" for path in work_dir.iterdir()]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    result["leftovers"] = leftovers
    if leftovers:
        print(f"perf: {workload} left behind: {leftovers}")
    return result


def main(argv=None) -> int:
    contract = benchmark()
    workloads = [spec["name"] for spec in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="both passes")
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    parser.add_argument("--out", type=Path, help="directory for result files")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else workloads
    passes = (0, 1) if args.traced else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds

    results = {name: {} for name in names}
    for name in names:
        for trace in passes:
            results[name][trace] = run_child(
                name, args.seed, seconds, trace, args.smoke, args.out
            )
        if args.traced:
            plain = results[name][0]["metrics"]["queries_per_s"]["value"]
            traced = results[name][1]["metrics"]["trace.queries_per_s"]["value"]
            print(
                f"{name:14s} tracing overhead on queries_per_s: "
                f"{1.0 - traced / plain:+.4f} (traced {traced:.3f} / untraced {plain:.3f} 1/s)"
            )

    runs = [run for by_pass in results.values() for run in by_pass.values()]
    if args.out is not None:
        from perf.host import host_record

        document = {
            "host": host_record(ROOT, args.seed),
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "runs": runs,
        }
        (args.out / "results.json").write_text(json.dumps(document, indent=1))
    prefixed = len(names) > 1
    metrics = {
        (f"{run['workload']}/{metric}" if prefixed else metric): cell
        for run in runs
        for metric, cell in run["metrics"].items()
    }
    failed = sum(run["failed"] for run in runs)
    clean = not any(run["leftovers"] for run in runs)
    summary = {
        "correct": failed == 0 and clean,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
