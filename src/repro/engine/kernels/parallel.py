"""Morsel-parallel grouping (Figure 3e's "parallel load").

Figure 3(e) unnests grouping into *SPH + parallel load*; the MOLECULE-level
``loop`` parameter of the physiological lattice chooses serial vs parallel.
This module implements the parallel variant the way morsel-driven engines
do ([14] Leis et al.): rows are cut into contiguous ranges
(:func:`~repro.engine.parallel.morsel_boundaries`) and a pool — threads or
processes (:func:`~repro.engine.parallel.run_tasks`) — runs the pieces.

The work done per piece is the ``group_partial`` task, written once and
registered by name so either pool runs the same function: a slice of
key + aggregate-input arrays -> partial aggregate arrays, merged by
:func:`merge_partials`. Both backends return the serial kernel's bits up
to key order (the merge sorts). Joins have no parallel form: every join
runs the serial kernel.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import (
    AggregateFunction,
    AggregateSpec,
    compute_aggregate,
    count_star,
    sum_of,
)
from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    GroupingResult,
    KeyOrder,
    aggregate_groups,
    group_by,
)
from repro.engine.parallel import (
    MorselReport,
    morsel_boundaries,
    run_tasks,
    task,
)
from repro.errors import ExecutionError, PreconditionError


def decompose_partials(aggregates: list[AggregateSpec]) -> list[AggregateSpec]:
    """Aggregates rewritten for partial (shard-local) runs.

    AVG is decomposed into partial SUM and COUNT columns (suffixes
    ``@sum`` / ``@count``) so partials merge losslessly; everything else
    is already decomposable as-is.
    """
    partial_specs: list[AggregateSpec] = []
    for spec in aggregates:
        if spec.function is AggregateFunction.AVG:
            partial_specs += [
                sum_of(spec.column, f"{spec.alias}@sum"),
                count_star(f"{spec.alias}@count"),
            ]
        else:
            partial_specs.append(spec)
    return partial_specs


@task("group_partial")
def group_partial_task(payload: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Group rows ``[start, stop)`` serially: ``(group keys, {alias:
    per-group array})`` for the (already decomposed) ``aggregates``."""
    start, stop = payload["start"], payload["stop"]
    assignment, columns = aggregate_groups(
        payload["keys"][start:stop],
        {name: array[start:stop] for name, array in payload["inputs"].items()},
        payload["aggregates"],
        payload["algorithm"],
        payload["num_distinct_hint"],
    )
    return assignment.group_keys, columns


def merge_partials(
    partials: list[tuple[np.ndarray, dict[str, np.ndarray]]],
    aggregates: list[AggregateSpec],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Merge :func:`group_partial_task` outputs into one result per group.

    :param partials: at least one ``(group keys, columns)`` pair computed
        for ``decompose_partials(aggregates)``.
    :returns: the distinct keys ascending (the merge itself sorts) and
        one array per aggregate alias.

    COUNT and SUM are distributive, MIN and MAX idempotent, AVG is the
    merged ``@sum`` over the merged ``@count``. Partials merge through
    the same SUM as the serial path, exact on integers wherever the true
    sum fits int64, so an integer SUM is the same on every route. Float
    partial sums stay float64 here: whoever owns the output type casts
    once, after the merge, exactly as the serial path casts once at its
    end.
    """
    merged_keys, inverse = np.unique(
        np.concatenate([keys for keys, __ in partials]), return_inverse=True
    )

    def gather(alias: str) -> np.ndarray:
        return np.concatenate([columns[alias] for __, columns in partials])

    def total(alias: str) -> np.ndarray:
        return compute_aggregate(
            sum_of(alias), inverse, merged_keys.size, gather(alias)
        )

    merged: dict[str, np.ndarray] = {}
    for spec in aggregates:
        if spec.function in (AggregateFunction.COUNT, AggregateFunction.SUM):
            merged[spec.alias] = total(spec.alias)
        elif spec.function in (AggregateFunction.MIN, AggregateFunction.MAX):
            least = spec.function is AggregateFunction.MIN
            bound = np.iinfo(np.int64).max if least else np.iinfo(np.int64).min
            out = np.full(merged_keys.size, bound, dtype=np.int64)
            (np.minimum if least else np.maximum).at(out, inverse, gather(spec.alias))
            merged[spec.alias] = out
        elif spec.function is AggregateFunction.AVG:
            merged[spec.alias] = total(f"{spec.alias}@sum") / total(
                f"{spec.alias}@count"
            )
        else:
            raise ExecutionError(f"cannot merge partials of {spec.function!r}")
    return merged_keys, merged


def partitioned_group_by(
    keys: np.ndarray,
    inputs: dict[str, np.ndarray],
    aggregates: list[AggregateSpec],
    algorithm: GroupingAlgorithm,
    parts: int,
    num_distinct_hint: int | None = None,
    backend: str = "thread",
    workers: int | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray], MorselReport]:
    """Group through ``parts`` contiguous shards plus a merge. A group
    may span shards; the merge re-combines its partials (so OG over
    sorted input stays correct).

    :param inputs: aggregate input columns by name, row-aligned with
        the non-empty ``keys``.
    :returns: ``(group keys ascending, {alias: array}, report)``; the
        report's ``results`` are the partials.
    :raises PreconditionError: when the algorithm's precondition fails
        on some piece.
    """
    bounds = morsel_boundaries(keys.size, parts)
    report = run_tasks(
        "group_partial",
        {
            "keys": keys,
            "inputs": inputs,
            "aggregates": decompose_partials(aggregates),
            "algorithm": algorithm,
            "num_distinct_hint": num_distinct_hint,
        },
        [{"start": start, "stop": stop} for start, stop in bounds],
        backend,
        workers,
    )
    merged_keys, merged = merge_partials(report.results, aggregates)
    return merged_keys, merged, report


def parallel_group_by(
    keys: np.ndarray,
    values: np.ndarray | None,
    algorithm: GroupingAlgorithm,
    shards: int = 4,
    num_distinct_hint: int | None = None,
    workers: int | None = None,
    backend: str = "thread",
) -> GroupingResult:
    """COUNT + SUM through :func:`partitioned_group_by` — the parallel
    twin of :func:`~repro.engine.kernels.grouping.group_by` that the
    Figure 4 benchmarks time.

    :param values: SUM input per row, or None for COUNT-only.
    :param shards: number of pieces; 1 degenerates to the serial kernel.
    :param workers: workers to schedule pieces on; defaults to
        :func:`repro.settings.get_settings`'s (1 = run the pieces inline,
        serially).
    :raises PreconditionError: if ``shards`` < 1, or see
        :func:`partitioned_group_by`.
    """
    if shards < 1:
        raise PreconditionError(f"shards must be >= 1, got {shards}")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if shards == 1 or keys.size == 0:
        return group_by(keys, values, algorithm, num_distinct_hint=num_distinct_hint)
    aggregates, inputs = [count_star("counts")], {}
    if values is not None:
        aggregates.append(sum_of("values", "sums"))
        inputs["values"] = np.asarray(values)
    merged_keys, merged, __ = partitioned_group_by(
        keys,
        inputs,
        aggregates,
        algorithm,
        shards,
        num_distinct_hint,
        backend,
        workers,
    )
    return GroupingResult(
        keys=merged_keys,
        counts=merged["counts"],
        sums=merged.get("sums", np.zeros(merged_keys.size, dtype=np.int64)),
        key_order=KeyOrder.SORTED,
    )
