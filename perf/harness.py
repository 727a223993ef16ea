"""One workload, measured inside this (child) process.

``python -m perf.harness`` is started by :mod:`perf.run` with a clean
environment. It sets the workload up (several times, reporting the
median as ``setup_s``), runs the seeded operation list in closed loop
for the requested seconds, checks every result against
:mod:`perf.reference`, and writes one JSON result file. With
``--trace 1`` the same loop also records the benchmark's spans, and the
layer probes run afterwards; the metrics are then the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perf import benchmark
from perf.trace import PROBE, SERVICE_EXECUTE, Tracer
from perf.workloads import WORKLOADS
from repro.core.optimizer.base import dqo_config, sqo_config
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.plan import to_operator
from repro.engine import execute, group_by, join
from repro.sql import plan_query

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: every run performs at least this many operations.
MIN_OPS = 100
#: ``--smoke`` divides table sizes and the operation count by twenty.
SMOKE_SCALE = 0.05
SMOKE_MIN_OPS = 5
#: repeats of each timed step of a layer probe (medians are reported).
PROBE_REPEATS = 3

#: service-reported stage -> the span it becomes, in lifecycle order.
STAGE_SPANS = {
    "queue": "service.admission:queue",
    "parse": "sql:plan_query",
    "plan_cache": "core.optimizer.plancache:lookup",
    "optimize": "core.optimizer.dp:optimize",
    "execute": "engine:execute",
    "serialize": "service.server:serialize",
}


@dataclass
class Record:
    """One attempted operation."""

    cls: str
    client: int
    index: int
    seconds: float
    #: None, an exception's type name, or "Mismatch".
    error: str | None
    stages: dict
    #: round trip minus the service's own wall seconds (wire workloads).
    wire: float | None


def record_spans(tracer: Tracer, workload, op_id: str, start, end, result) -> None:
    """The operation's span tree: the root, the benchmark's marks, and
    the service-reported stages laid end to end inside the span that
    wraps ``QueryService.execute``."""
    root = tracer.add(workload.root_span, start, end, op=op_id)
    host, cursor = root, start
    for name, mark_start, mark_end in result.marks:
        span = tracer.add(name, mark_start, mark_end, parent=root, op=op_id)
        if name == SERVICE_EXECUTE:
            host, cursor = span, mark_start
    for stage, name in STAGE_SPANS.items():
        if stage in result.stages:
            seconds = result.stages[stage]
            # The server serialises after the service has returned.
            parent = root if stage == "serialize" else host
            tracer.add(name, cursor, cursor + seconds, parent=parent, op=op_id)
            cursor += seconds


def client_loop(workload, client, seconds, min_ops, tracer, records) -> None:
    """Closed loop: the next operation starts when the last one's result
    has been checked. Stops at the first cycle boundary after both the
    time and the minimum count are reached, so every cycle is complete
    and the class shares are exact."""
    clock = time.perf_counter
    deadline = clock() + seconds
    for index, op in enumerate(workload.operations(client)):
        result, error = None, None
        start = clock()
        try:
            result = workload.run(op, client)
            end = clock()
        except Exception as raised:  # noqa: BLE001 - a failure is a data point
            end = clock()
            error = type(raised).__name__
        if result is not None:
            if result.interval is not None:
                start, end = result.interval
            if result.after is not None:
                result.after()
            if not workload.check(op, result):
                error = "Mismatch"
            if tracer is not None:
                op_id = f"{op.cls}#{client}.{index}"
                record_spans(tracer, workload, op_id, start, end, result)
        wire = None
        if result is not None and result.service_wall is not None:
            wire = (end - start) - result.service_wall
        records.append(
            Record(
                op.cls,
                client,
                index,
                end - start,
                error,
                result.stages if result is not None else {},
                wire,
            )
        )
        done = index + 1
        if client == 0 and done == min_ops:
            workload.on_checkpoint()
        if done >= min_ops and done % workload.cycle == 0 and clock() >= deadline:
            return


def measure(workload, seconds: float, min_ops: int, tracer) -> list[Record]:
    per_client = [[] for _ in range(workload.clients)]
    if workload.clients == 1:
        client_loop(workload, 0, seconds, min_ops, tracer, per_client[0])
    else:
        failures = []

        def guarded(client: int) -> None:
            try:
                client_loop(workload, client, seconds, min_ops, tracer, per_client[client])
            except BaseException as error:  # re-raised on the main thread
                failures.append(error)

        threads = [
            threading.Thread(target=guarded, args=(client,))
            for client in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
    return [record for records in per_client for record in records]


def cycle_statistics(records: list[Record], workload) -> dict[str, float]:
    """Throughput and latency percentiles, each computed per client and
    cycle and reported as the median over cycles. Every cycle holds the
    same class mix, so its numbers estimate the same quantities as the
    whole run's, and a burst of host noise shorter than half the run
    disturbs a minority of cycles and leaves the medians alone.

    Throughput of a cycle is its successful operations over its summed
    latencies (closed loop, no think time), times the clients; the
    percentiles are over the cycle's successful operations.
    """
    cycles = defaultdict(list)
    for record in records:
        cycles[record.client, record.index // workload.cycle].append(record)
    rates, p50s, p90s = [], [], []
    for cycle in cycles.values():
        good = [record.seconds for record in cycle if record.error is None]
        rates.append(len(good) / sum(record.seconds for record in cycle))
        if good:
            p50, p90 = np.percentile(good, [50, 90])
            p50s.append(p50)
            p90s.append(p90)
    return {
        "queries_per_s": float(np.median(rates)) * workload.clients,
        "query_p50_ms": float(np.median(p50s)) * 1e3 if p50s else 0.0,
        "query_p90_ms": float(np.median(p90s)) * 1e3 if p90s else 0.0,
    }


def class_table(records: list[Record], workload) -> dict:
    """Per operation class: count, failures and latency percentiles."""
    table = {}
    for cls, weight in workload.classes.items():
        mine = [r for r in records if r.cls == cls]
        good = [r.seconds for r in mine if r.error is None]
        p50, p90 = np.percentile(good, [50, 90]) * 1e3 if good else (0.0, 0.0)
        table[cls] = {
            "share": weight / workload.cycle,
            "count": len(mine),
            "failed": len(mine) - len(good),
            "p50_ms": float(p50),
            "p90_ms": float(p90),
        }
    return table


def percentile_margins(classes: dict) -> dict:
    """How many points the p50 and p90 ranks lie from the nearest
    boundary between classes, ordered by their measured medians."""
    rank, boundaries = 0.0, []
    for row in sorted(classes.values(), key=lambda row: row["p50_ms"])[:-1]:
        rank += 100.0 * row["share"]
        boundaries.append(rank)
    return {
        name: min((abs(rank - edge) for edge in boundaries), default=50.0)
        for name, rank in (("p50", 50.0), ("p90", 90.0))
    }


def peak_rss_mib() -> float:
    """High-water resident set of this process plus that of its (reaped)
    worker children, in MiB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(records, workload, setup_seconds) -> dict[str, float]:
    return {
        **cycle_statistics(records, workload),
        "setup_s": float(np.median(setup_seconds)),
        "peak_rss_mb": peak_rss_mib(),
    }


def stage_ms(records, stage: str, summary=np.median) -> float:
    values = [r.stages[stage] for r in records if stage in r.stages]
    return float(summary(values)) * 1e3 if values else 0.0


def walk(node):
    """A plan node or a physical operator, then everything below it."""
    yield node
    for child in node.children:
        yield from walk(child)


def kernel_seconds(sample, plan):
    """``repro.engine.join`` / ``group_by`` alone, on the sample's raw
    arrays, with the algorithms the plan names. Returns (seconds, input
    rows), or None for shapes this probe does not cover (several joins,
    a filter below a join)."""
    query, tables = sample.query, sample.tables
    fact = tables[query.fact]
    nodes = list(walk(plan))
    grouping = next(node for node in nodes if node.op == "group_by")
    clock = time.perf_counter
    if not query.joins:
        keys = fact[query.group[1]]
        values = fact[query.sum_column] if query.sum_column else None
        if query.filter is not None:
            mask = fact[query.filter[1]] < query.filter[2]
            keys = keys[mask]
            values = values[mask] if values is not None else None
        started = clock()
        group_by(keys, values, grouping.grouping_algorithm)
        return clock() - started, len(fact[query.group[1]])
    if len(query.joins) > 1 or query.filter is not None:
        return None
    dimension, foreign_key = query.joins[0]
    joining = next(node for node in nodes if node.op == "join")
    started = clock()
    joined = join(
        tables[dimension]["ID"], fact[foreign_key], joining.join_algorithm
    )
    seconds = clock() - started
    keys = tables[dimension][query.group[1]][joined.left_indices]
    started = clock()
    group_by(keys, None, grouping.grouping_algorithm)
    return seconds + clock() - started, len(fact[foreign_key])


def probe_layers(workload, tracer: Tracer) -> tuple[dict, dict]:
    """Call each layer's public functions directly on the workload's
    (catalog, query) samples, with a span around each call: the parser,
    the DP with warm statistics and no plan cache, lowering + execution
    of the deep, the shallow and (for parallel samples) the serial plan,
    and the kernels alone. Returns (per-layer metrics, per-sample rows).
    """
    clock = time.perf_counter

    def timed(name, op_id, call):
        started = clock()
        value = call()
        ended = clock()
        tracer.add(name, started, ended, op=op_id)
        return value, ended - started

    def optimize(sample, logical, config, op_id):
        optimizer = DynamicProgrammingOptimizer(sample.catalog, config=config)
        runs = [
            timed("core.optimizer.dp:optimize", op_id, lambda: optimizer.optimize(logical))
            for _ in range(PROBE_REPEATS)
        ]
        return runs[0][0], float(np.median([seconds for _, seconds in runs]))

    def run_plan(sample, plan, workers, op_id):
        """Median seconds of lowering + executing ``plan``; also the
        segments its scans read and skipped in one execution."""
        seconds = []
        for _ in range(PROBE_REPEATS):
            operator, lowering = timed(
                "core.plan:to_operator",
                op_id,
                lambda: to_operator(plan, sample.catalog, validate=False),
            )
            _, running = timed(
                "engine:execute", op_id, lambda: execute(operator, workers=workers)
            )
            seconds.append(lowering + running)
        io = [sum(c) for c in zip(*(o.io_counters() for o in walk(operator)))]
        return float(np.median(seconds)), io[0], io[1]

    serial_cache = {}
    rows = {}
    for sample in workload.samples():
        op_id = f"{PROBE}#{sample.label}"
        logical, _ = timed(
            "sql:plan_query", op_id, lambda: plan_query(sample.query.sql(), sample.catalog)
        )
        key = (id(sample.catalog), sample.query)
        if key not in serial_cache:
            deep, optimize_s = optimize(sample, logical, dqo_config(), op_id)
            shallow, _ = optimize(sample, logical, sqo_config(), op_id)
            deep_s, read, skipped = run_plan(sample, deep.plan, 1, op_id)
            shallow_s, _, _ = run_plan(sample, shallow.plan, 1, op_id)
            kernel = [kernel_seconds(sample, deep.plan) for _ in range(PROBE_REPEATS)]
            serial_cache[key] = {
                "optimize_ms": optimize_s * 1e3,
                "generated": deep.stats.generated,
                "serial_execute_ms": deep_s * 1e3,
                "dqo_speedup": shallow_s / deep_s,
                "segments_read": read,
                "segments_skipped": skipped,
                "plan": deep.plan.explain().splitlines()[0].strip(),
            }
            if kernel[0] is not None:
                serial_cache[key]["kernel_ms"] = (
                    float(np.median([seconds for seconds, _ in kernel])) * 1e3
                )
                serial_cache[key]["kernel_rows"] = kernel[0][1]
        row = dict(serial_cache[key], weight=sample.weight)
        row["execute_ms"] = row["serial_execute_ms"]
        if sample.workers > 1:
            config = dqo_config(workers=sample.workers, backend=sample.backend)
            chosen, optimize_s = optimize(sample, logical, config, op_id)
            chosen_s, _, _ = run_plan(sample, chosen.plan, sample.workers, op_id)
            row.update(
                optimize_ms=optimize_s * 1e3,
                generated=chosen.stats.generated,
                execute_ms=chosen_s * 1e3,
                regret=chosen_s * 1e3 / row["serial_execute_ms"],
                plan=chosen.plan.explain().splitlines()[0].strip(),
            )
        rows[sample.label] = row

    def mean(column: str, over=None) -> float:
        chosen = [r for r in (over if over is not None else rows.values()) if column in r]
        weight = sum(r["weight"] for r in chosen)
        return sum(r[column] * r["weight"] for r in chosen) / weight if weight else 0.0

    with_kernel = [r for r in rows.values() if "kernel_ms" in r]
    kernel_ms = mean("kernel_ms")
    metrics = {
        "dp.optimize_ms": mean("optimize_ms"),
        "dp.generated": sum(r["generated"] for r in rows.values()),
        "optimizer.dqo_speedup": mean("dqo_speedup"),
        "operators.execute_ms": mean("execute_ms"),
        "kernels.kernel_ms": kernel_ms,
        "kernels.rows_per_s": (
            mean("kernel_rows") / (kernel_ms / 1e3) if kernel_ms else 0.0
        ),
        "operators.overhead_share": (
            1.0 - kernel_ms / mean("serial_execute_ms", with_kernel) if kernel_ms else 0.0
        ),
        "backend.regret": mean("regret"),
        "disk.segments_read": sum(r["segments_read"] for r in rows.values()),
        "disk.segments_skipped": sum(r["segments_skipped"] for r in rows.values()),
    }
    return metrics, rows


def per_layer(records, workload, tracer, min_ops) -> tuple[dict, dict]:
    """Every per-layer metric of BENCHMARK.json; 0 where the workload
    does not exercise the layer."""
    metrics = {spec["name"]: 0.0 for spec in benchmark()["per_layer"]}
    good = [r for r in records if r.error is None]
    # Exact with one client: the first ``min_ops`` operations are the
    # same on every run of one seed.
    counted = [r for r in records if r.client == 0 and r.index < min_ops]
    hits = sum("plan_cache" in r.stages for r in counted)
    lookups = hits + sum("optimize" in r.stages for r in counted)
    wire = [r.wire for r in good if r.wire is not None]
    metrics.update(
        {
            "trace.queries_per_s": cycle_statistics(records, workload)["queries_per_s"],
            "sql.parse_ms": stage_ms(good, "parse"),
            "plancache.lookup_ms": stage_ms(good, "plan_cache"),
            "plancache.hit_share": hits / lookups if lookups else 0.0,
            "admission.queue_ms": stage_ms(good, "queue", lambda v: np.percentile(v, 90)),
            # Means: the wire's time sits in the minority class that
            # returns many rows, which a median over the mix hides.
            "server.serialize_ms": stage_ms(good, "serialize", np.mean),
            "server.wire_ms": float(np.mean(wire)) * 1e3 if wire else 0.0,
        }
    )
    probed, samples = probe_layers(workload, tracer)
    metrics.update(probed)
    metrics.update(workload.layer_extras(tracer, records))
    return metrics, samples


def run_workload(name, seed, seconds, traced, smoke, work_dir) -> dict:
    """Set up, measure, tear down; returns the result record. With
    ``traced`` the spans are written to ``<work_dir>/trace.jsonl``."""
    scale, min_ops = (SMOKE_SCALE, SMOKE_MIN_OPS) if smoke else (1.0, MIN_OPS)
    workload = WORKLOADS[name](seed, scale, work_dir)
    setup_seconds = []
    for repeat in range(1 if traced or smoke else SETUP_REPEATS):
        if repeat:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - started)
    tracer = Tracer() if traced else None
    samples, shares = {}, {}
    try:
        records = measure(workload, seconds, min_ops, tracer)
        if traced:
            values, samples = per_layer(records, workload, tracer, min_ops)
            shares = tracer.layer_shares()
    finally:
        workload.teardown()
    if not traced:
        # After teardown: the worker processes are reaped and counted.
        values = end_to_end(records, workload, setup_seconds)
    if tracer is not None:
        tracer.write(Path(work_dir) / "trace.jsonl")
    units = {
        spec["name"]: spec["unit"]
        for spec in benchmark()["per_layer" if traced else "end_to_end"]
    }
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    errors = defaultdict(int)
    for record in records:
        if record.error:
            errors[record.error] += 1
    classes = class_table(records, workload)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(traced),
        "smoke": bool(smoke),
        "attempted": len(records),
        "failed": sum(errors.values()),
        "failed_share": sum(errors.values()) / len(records),
        "errors": dict(errors),
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in values.items()
        },
        "classes": classes,
        "percentile_margin": percentile_margins(classes),
        "setup_seconds": setup_seconds,
        "layer_shares": shares,
        "samples": samples,
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the per-class rows."""
    name = result["workload"]
    good = result["attempted"] - result["failed"]
    for metric, cell in result["metrics"].items():
        print(f"{name:14s} {metric:34s} {cell['value']:14.4f} {cell['unit']}")
    print(
        f"{name:14s} {'failed_share':34s} {result['failed_share']:14.4f} ratio"
        f"  ({result['failed']} of {result['attempted']} attempted, "
        f"percentiles over {good} successful; errors {result['errors']})"
    )
    for cls, row in result["classes"].items():
        print(
            f"  class {cls:24s} n={row['count']:<5d} failed={row['failed']:<3d} "
            f"p50={row['p50_ms']:9.3f} ms  p90={row['p90_ms']:9.3f} ms"
        )
    for cls, shares in result["layer_shares"].items():
        cells = "  ".join(f"{layer}={share:.3f}" for layer, share in shares.items())
        print(f"  self-time shares {cls}: {cells}")
    for label, row in result["samples"].items():
        cells = "  ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in row.items()
        )
        print(f"  sample {label}: {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--work-dir", required=True, help="scratch directory; result.json goes here"
    )
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.smoke, args.work_dir
    )
    report(result)
    (Path(args.work_dir) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
