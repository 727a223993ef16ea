"""Observability overhead: disabled instrumentation must be (near) free.

The contract of `repro.obs` is zero-cost-by-default: with the global
registry and tracer disabled, `execute()` must run within 5% of the
seed's bare `root.to_table()` loop. The *enabled* path has a budget
too: a full profile capture (metrics + tracing + per-operator
instrumentation + memory accounting, bundled by `capture_profile`)
must stay within 15% of bare execution. Both modes land in the
artifact record
(`REPRO_BENCH_ARTIFACTS=dir pytest benchmarks/bench_obs_overhead.py`).
The budgets are timings, not laws: they move into the `perf/` ledger as
interleaved ratios with ROADMAP item 22(b).
"""

import gc
import statistics

from repro import (
    Density,
    Sortedness,
    capture_observability,
    capture_profile,
    disable_observability,
    execute,
    make_join_scenario,
    optimize_dqo,
    plan_query,
    to_operator,
)
from repro._util.timer import Timer, TimingResult, time_callable
from repro.engine.executor import explain_analyze
from repro.obs import qerror_summary, walk_operator_nodes

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
#: overhead budget for the disabled path (fraction of baseline best time).
MAX_DISABLED_OVERHEAD = 0.05
#: overhead budget for a full profile capture over bare execution.
MAX_ENABLED_OVERHEAD = 0.15
#: budget for a *disabled* sentinel riding on a logged execute loop.
MAX_SENTINEL_DISABLED_OVERHEAD = 0.05
#: budget for a live sentinel (incremental tail + detection per query).
MAX_SENTINEL_ENABLED_OVERHEAD = 0.15
#: budget for an installed-but-disabled search trace on the optimiser.
MAX_TRACE_DISABLED_OVERHEAD = 0.05
#: budget for a live search trace journaling every frontier event.
MAX_TRACE_ENABLED_OVERHEAD = 0.15


def _paired_overheads(arms, rounds, warmup, reps=3):
    """Time callables interleaved round-robin; return per-arm results
    plus each arm's overhead versus the first (baseline) arm.

    Three defences against a noisy-neighbour box. Interleaving with
    per-round *paired* deltas (median taken across rounds): sequential
    best-of blocks let scheduler/frequency drift between the blocks
    masquerade as overhead, while a paired delta cancels whatever the
    machine was doing that round. Best-of-`reps` within each round:
    scheduler spikes are one-sided, so the per-round minimum rejects
    them before the pairing (a single-shot delta on this box swings
    ±25% of a 20ms workload; best-of-3 pairs land within ~1ms). And a
    `gc.collect()` before every timed call: allocation-triggered
    collections otherwise alias onto whichever arm happens to trip the
    threshold the heavier arms charged up.
    """
    results = [TimingResult() for _ in arms]
    for round_index in range(rounds + warmup):
        for fn, result in zip(arms, results):
            best = None
            value = None
            for _ in range(reps):
                gc.collect()
                with Timer() as timer:
                    value = fn()
                if best is None or timer.elapsed < best:
                    best = timer.elapsed
            if round_index >= warmup:
                result.samples.append(best)
                result.last_result = value
    base = results[0].median
    overheads = [
        statistics.median(
            sample - b
            for sample, b in zip(result.samples, results[0].samples)
        )
        / base
        for result in results
    ]
    return results, overheads


def _build_plan():
    # Ten times the paper's sizes: since joins materialise late the
    # paper-size query takes under 2 ms, and a relative budget on that
    # measures the capture's fixed ~0.3 ms, not its per-row cost.
    scenario = make_join_scenario(
        n_r=450_000,
        n_s=900_000,
        num_groups=20_000,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    )
    catalog = scenario.build_catalog()
    logical = plan_query(QUERY, catalog)
    return to_operator(optimize_dqo(logical, catalog).plan, catalog)


def test_disabled_observability_overhead(bench_artifact):
    disable_observability()
    plan = _build_plan()

    (baseline, via_execute, profiled), (_, overhead, enabled_overhead) = (
        _paired_overheads(
            [
                lambda: plan.to_table(),
                lambda: execute(plan),
                lambda: capture_profile(plan, query=QUERY),
            ],
            rounds=9,
            warmup=2,
        )
    )

    runs = []
    with capture_observability() as (metrics, tracer):
        enabled = time_callable(lambda: execute(plan), repeats=5, warmup=1)
        analyzed = time_callable(
            lambda: runs.append(explain_analyze(plan)) or runs[-1].table,
            repeats=5,
            warmup=1,
        )
        snapshot = metrics.snapshot()

    bench_artifact(
        "obs_overhead",
        {
            "seed_to_table": baseline,
            "execute_disabled": via_execute,
            "execute_enabled": enabled,
            "explain_analyze": analyzed,
            "capture_profile": profiled,
        },
        metrics=snapshot,
        meta={
            "rows_r": 45_000,
            "rows_s": 90_000,
            "disabled_overhead": overhead,
            "enabled_overhead": enabled_overhead,
            "qerror_summary": qerror_summary(
                node
                for run in runs
                for node in walk_operator_nodes(run.profile.operators)
            ),
        },
    )

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-observability execute() is {overhead:.1%} slower than "
        f"bare to_table() (budget {MAX_DISABLED_OVERHEAD:.0%}); median "
        f"{via_execute.median * 1e3:.2f}ms vs {baseline.median * 1e3:.2f}ms"
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
        f"full profile capture is {enabled_overhead:.1%} slower than bare "
        f"to_table() (budget {MAX_ENABLED_OVERHEAD:.0%}); median "
        f"{profiled.median * 1e3:.2f}ms vs {baseline.median * 1e3:.2f}ms"
    )
    # Sanity: the instrumented run still computes the same result shape.
    assert analyzed.last_result.num_rows == via_execute.last_result.num_rows
    assert profiled.last_result.rows_out == via_execute.last_result.num_rows


def test_search_trace_overhead(bench_artifact):
    """The search observatory's contract: an *installed but disabled*
    trace must not slow the optimiser (the hook is checked once per
    optimise call), and a live trace — journaling every frontier event
    into bounded ring buffers — stays within 15% of an untraced deep
    enumeration."""
    from repro.core import disable_plan_cache, enable_plan_cache
    from repro.datagen import make_star_scenario
    from repro.datagen.star import DimensionSpec
    from repro.obs.search import SearchTrace, set_search_trace

    disable_observability()
    # A five-dimension star: the DP enumerates ~1.5k candidates over a
    # six-way join, so one search runs tens of milliseconds — long
    # enough that a percentage budget measures the trace, not timer
    # jitter (a ~1ms two-way search has ±5% run-to-run noise).
    star = make_star_scenario(
        fact_rows=20_000,
        dimensions=[
            DimensionSpec(
                1_000,
                100,
                sortedness=(
                    Sortedness.UNSORTED if index % 2 else Sortedness.SORTED
                ),
            )
            for index in range(5)
        ],
    )
    catalog = star.build_catalog()
    logical = plan_query(star.join_query(0), catalog)
    off_trace = SearchTrace()
    off_trace.enabled = False
    live_trace = SearchTrace()

    def searched_with(trace):
        def run():
            set_search_trace(trace)
            return optimize_dqo(logical, catalog)

        return run

    # A cache hit enumerates nothing: every repeat must search afresh.
    disable_plan_cache()
    try:
        (
            (baseline, disabled, enabled),
            (_, disabled_overhead, enabled_overhead),
        ) = _paired_overheads(
            [
                searched_with(None),
                searched_with(off_trace),
                searched_with(live_trace),
            ],
            rounds=9,
            warmup=2,
        )
        summary = live_trace.summary()
    finally:
        set_search_trace(None)
        enable_plan_cache()

    bench_artifact(
        "search_trace_overhead",
        {
            "optimize_untraced": baseline,
            "optimize_trace_disabled": disabled,
            "optimize_trace_enabled": enabled,
        },
        meta={
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "trace_summary": summary,
        },
    )

    assert disabled_overhead < MAX_TRACE_DISABLED_OVERHEAD, (
        f"disabled search trace adds {disabled_overhead:.1%} to the "
        f"optimiser (budget {MAX_TRACE_DISABLED_OVERHEAD:.0%}); median "
        f"{disabled.median * 1e3:.2f}ms vs {baseline.median * 1e3:.2f}ms"
    )
    assert enabled_overhead < MAX_TRACE_ENABLED_OVERHEAD, (
        f"live search trace adds {enabled_overhead:.1%} to the "
        f"optimiser (budget {MAX_TRACE_ENABLED_OVERHEAD:.0%}); median "
        f"{enabled.median * 1e3:.2f}ms vs {baseline.median * 1e3:.2f}ms"
    )
    # The traced searches really journaled the enumeration.
    assert summary.get("generated", 0) > 0
    # Identical plans with and without the trace attached.
    assert (
        enabled.last_result.plan_fingerprint
        == baseline.last_result.plan_fingerprint
    )


def test_sentinel_overhead(bench_artifact, tmp_path):
    """The regression sentinel's tail must be cheap: a disabled sentinel
    adds (near) nothing to a logged execute loop, and a live one —
    incremental read + detection per query — stays within 15%."""
    from repro.obs.querylog import QueryLog, set_query_log
    from repro.obs.sentinel import Sentinel, SentinelConfig, SentinelThread

    disable_observability()
    plan = _build_plan()
    log = QueryLog(tmp_path / "bench_log.jsonl")
    set_query_log(log)
    try:
        off_thread = SentinelThread(
            log, Sentinel(config=SentinelConfig(enabled=False))
        )
        live_thread = SentinelThread(log, Sentinel())

        def run_with_disabled_sentinel():
            result = execute(plan)
            off_thread.tick()
            return result

        def run_with_live_sentinel():
            result = execute(plan)
            live_thread.tick()
            return result

        (
            (baseline, disabled, enabled),
            (_, disabled_overhead, enabled_overhead),
        ) = _paired_overheads(
            [
                lambda: execute(plan),
                run_with_disabled_sentinel,
                run_with_live_sentinel,
            ],
            rounds=9,
            warmup=2,
        )
    finally:
        set_query_log(None)

    bench_artifact(
        "sentinel_overhead",
        {
            "execute_logged": baseline,
            "execute_sentinel_disabled": disabled,
            "execute_sentinel_enabled": enabled,
        },
        meta={
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "ticks": live_thread.ticks,
        },
    )

    assert disabled_overhead < MAX_SENTINEL_DISABLED_OVERHEAD, (
        f"disabled sentinel adds {disabled_overhead:.1%} to a logged "
        f"execute loop (budget {MAX_SENTINEL_DISABLED_OVERHEAD:.0%})"
    )
    assert enabled_overhead < MAX_SENTINEL_ENABLED_OVERHEAD, (
        f"live sentinel adds {enabled_overhead:.1%} to a logged "
        f"execute loop (budget {MAX_SENTINEL_ENABLED_OVERHEAD:.0%})"
    )
    assert enabled.last_result.num_rows == baseline.last_result.num_rows
