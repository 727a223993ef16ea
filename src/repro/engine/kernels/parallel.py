"""Morsel-parallel grouping and join kernels (Figure 3e's "parallel load").

Figure 3(e) unnests grouping into *SPH + parallel load*; the MOLECULE-level
``loop`` parameter of the physiological lattice chooses serial vs parallel.
This module implements the parallel variants the way morsel-driven engines
do ([14] Leis et al.): the input splits into shards (morsels), each shard
runs independently on the shared worker pool
(:mod:`repro.engine.parallel`), and the results are combined:

* **grouping** — each shard is grouped with the chosen algorithm and the
  decomposable partial aggregates (§2.1) are merged exactly;
* **join** — the build-side structure is erected once, then read-only
  shared across workers that probe contiguous probe shards; the
  probe-major outputs concatenate back in shard order, so the result is
  bit-identical to the serial kernel's.

The numpy kernels release the GIL, so on a multi-core host the shards
genuinely overlap; with one worker (the default) everything runs inline
on the calling thread, preserving serial behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    GroupingResult,
    KeyOrder,
    group_by,
)
from repro.engine.kernels.joins import (
    JoinAlgorithm,
    JoinOutputOrder,
    JoinResult,
    build_side,
    join,
)
from repro.engine.parallel import morsel_boundaries, run_morsels
from repro.errors import PreconditionError
from repro.indexes.hash_table import murmur3_finalizer

#: join algorithms whose probe phase shards safely: the build structure is
#: read-only during probing and output is probe-major, so concatenating
#: shard outputs reproduces the serial result exactly. OJ/SOJ interleave
#: both inputs and fall back to the serial kernel.
PARALLEL_PROBE_ALGORITHMS = frozenset(
    {JoinAlgorithm.HJ, JoinAlgorithm.SPHJ, JoinAlgorithm.BSJ}
)

#: grouping algorithms an exchange partition can run locally. Hash
#: partitioning destroys both clusteredness (OG) and key-domain density
#: (SPHG), so only the order-insensitive families survive repartitioning.
EXCHANGE_GROUPING_ALGORITHMS = frozenset(
    {GroupingAlgorithm.HG, GroupingAlgorithm.SOG, GroupingAlgorithm.BSG}
)

#: join algorithms an exchange partition can run locally. Partition-local
#: HJ and BSJ both emit build-row-ascending ties, which is what makes the
#: restored probe order bit-identical to the serial kernels; SPHJ fails
#: on the sparse per-partition domains, OJ/SOJ need pre-sorted inputs.
EXCHANGE_JOIN_ALGORITHMS = frozenset({JoinAlgorithm.HJ, JoinAlgorithm.BSJ})


def merge_partials(partials: list[GroupingResult]) -> GroupingResult:
    """Merge per-shard grouping results into one.

    COUNT and SUM are distributive, so merging is grouping the
    concatenated partial rows again, summing both aggregates. The merged
    result is key-sorted (the merge itself sorts).

    Integer counts and sums merge with exact int64 ``np.add.at`` — a
    float64 detour (e.g. ``np.bincount`` weights) would silently round
    partial sums at magnitudes >= 2**53.
    """
    non_empty = [partial for partial in partials if partial.num_groups]
    if not non_empty:
        return GroupingResult(
            keys=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            sums=np.empty(0, dtype=np.int64),
            key_order=KeyOrder.SORTED,
        )
    all_keys = np.concatenate([partial.keys for partial in non_empty])
    all_counts = np.concatenate([partial.counts for partial in non_empty])
    all_sums = np.concatenate([partial.sums for partial in non_empty])
    merged_keys, inverse = np.unique(all_keys, return_inverse=True)
    counts = np.zeros(merged_keys.size, dtype=np.int64)
    np.add.at(counts, inverse, all_counts.astype(np.int64))
    if np.issubdtype(all_sums.dtype, np.integer):
        sums_out = np.zeros(merged_keys.size, dtype=np.int64)
        np.add.at(sums_out, inverse, all_sums.astype(np.int64))
    else:
        sums_out = np.bincount(
            inverse, weights=all_sums, minlength=merged_keys.size
        )
    return GroupingResult(
        keys=merged_keys.astype(np.int64),
        counts=counts,
        sums=sums_out,
        key_order=KeyOrder.SORTED,
    )


def parallel_group_by(
    keys: np.ndarray,
    values: np.ndarray | None,
    algorithm: GroupingAlgorithm,
    shards: int = 4,
    num_distinct_hint: int | None = None,
    workers: int | None = None,
) -> GroupingResult:
    """Group via independent shard-local runs plus a merge.

    :param keys: grouping key per row.
    :param values: SUM input per row, or None.
    :param algorithm: the per-shard implementation.
    :param shards: number of morsels; 1 degenerates to the serial kernel.
    :param num_distinct_hint: known global NDV (sizes per-shard HG tables).
    :param workers: worker threads to schedule shards on; defaults to the
        process-wide :func:`repro.engine.parallel.get_executor_config`
        value (1 = run the shards inline, serially).
    :raises PreconditionError: if ``shards`` < 1, or the per-shard
        algorithm's own precondition fails on some shard (note: sharding
        *preserves* clusteredness only within shards — a run crossing a
        shard boundary splits into two partial groups, which the merge
        re-combines, so OG over sorted input remains correct).
    """
    if shards < 1:
        raise PreconditionError(f"shards must be >= 1, got {shards}")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if shards == 1 or keys.size == 0:
        return group_by(
            keys, values, algorithm, num_distinct_hint=num_distinct_hint
        )

    def shard_task(start: int, stop: int):
        shard_values = values[start:stop] if values is not None else None
        return group_by(
            keys[start:stop],
            shard_values,
            algorithm,
            num_distinct_hint=num_distinct_hint,
        )

    tasks = [
        (lambda s=start, e=stop: shard_task(s, e))
        for start, stop in morsel_boundaries(keys.size, shards)
    ]
    report = run_morsels(tasks, workers=workers)
    return merge_partials(report.results)


def parallel_join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    algorithm: JoinAlgorithm,
    shards: int = 4,
    num_distinct_hint: int | None = None,
    workers: int | None = None,
    on_report=None,
) -> JoinResult:
    """Shared-build, sharded-probe join: the morsel-parallel join form.

    The build side's structure (hash table / SPH array / sorted array)
    is erected once on the calling thread; probe morsels then scan it
    read-only in parallel. Because HJ/SPHJ/BSJ expand matches
    probe-major, concatenating the shard outputs in shard order yields
    exactly the serial kernel's output.

    OJ and SOJ merge both inputs in lockstep — there is no read-only
    shared structure to probe — so they fall back to the serial kernel.

    :param on_report: optional callback receiving the scheduling
        :class:`~repro.engine.parallel.MorselReport` (operators use it to
        attribute per-node parallelism degree and worker busy time).
    :raises PreconditionError: if ``shards`` < 1, or the underlying
        kernel's precondition fails (e.g. SPHJ over a sparse domain).
    """
    if shards < 1:
        raise PreconditionError(f"shards must be >= 1, got {shards}")
    if algorithm not in PARALLEL_PROBE_ALGORITHMS:
        return join(
            build_keys,
            probe_keys,
            algorithm,
            num_distinct_hint=num_distinct_hint,
        )
    build_keys = np.ascontiguousarray(build_keys, dtype=np.int64)
    probe_keys = np.ascontiguousarray(probe_keys, dtype=np.int64)
    if shards == 1 or build_keys.size == 0 or probe_keys.size == 0:
        return join(
            build_keys,
            probe_keys,
            algorithm,
            num_distinct_hint=num_distinct_hint,
        )

    build = build_side(build_keys, algorithm, num_distinct_hint)

    def probe_shard(start: int, stop: int):
        left, probe_out = build.probe(probe_keys[start:stop])
        return left, probe_out + np.int64(start)

    bounds = morsel_boundaries(probe_keys.size, shards)
    tasks = [
        (lambda s=start, e=stop: probe_shard(s, e)) for start, stop in bounds
    ]
    report = run_morsels(tasks, workers=workers)
    if on_report is not None:
        on_report(report)
    left_parts = [left for left, __ in report.results]
    right_parts = [right for __, right in report.results]
    return JoinResult(
        left_indices=np.concatenate(left_parts)
        if left_parts
        else np.empty(0, dtype=np.int64),
        right_indices=np.concatenate(right_parts)
        if right_parts
        else np.empty(0, dtype=np.int64),
        output_order=JoinOutputOrder.PROBE_ORDER,
        structure_bytes=build.structure_bytes,
    )


# ---------------------------------------------------------------------------
# exchange (hash repartition) kernels


def hash_partition(
    keys: np.ndarray, partitions: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Stable hash partitioning: the Exchange operator's shuffle.

    Rows are assigned ``murmur3(key) % partitions`` and stably reordered
    so each partition is one contiguous run; equal keys always land in
    the same partition, and within a partition the original row order is
    preserved (the bit-identity invariant of the exchange kernels).

    :returns: ``(order, bounds)`` — the permutation to apply to every
        row-aligned array, and per-partition ``[start, stop)`` ranges
        into the permuted arrays (empty partitions yield empty ranges).
    """
    if partitions < 1:
        raise PreconditionError(f"partitions must be >= 1, got {partitions}")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    assignment = (murmur3_finalizer(keys) % np.uint64(partitions)).astype(
        np.int64
    )
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment, minlength=partitions)
    edges = np.concatenate([[0], np.cumsum(counts)])
    bounds = [
        (int(edges[i]), int(edges[i + 1])) for i in range(partitions)
    ]
    return order, bounds


def exchange_group_by(
    keys: np.ndarray,
    values: np.ndarray | None,
    algorithm: GroupingAlgorithm,
    workers: int | None = None,
    num_distinct_hint: int | None = None,
    backend: str = "thread",
    on_report=None,
) -> GroupingResult:
    """Grouping through an exchange: hash-partition, group each partition
    locally, concatenate the disjoint partials through the sorting merge.

    Unlike the sharding loop of :func:`parallel_group_by`, partitions are
    disjoint in key space, so the merge never combines partial groups —
    it only interleaves sorted key runs. The payoff the cost model sees:
    no ``workers x num_groups`` merge blow-up at huge NDV.

    :raises PreconditionError: for algorithms repartitioning breaks
        (see :data:`EXCHANGE_GROUPING_ALGORITHMS`).
    """
    if algorithm not in EXCHANGE_GROUPING_ALGORITHMS:
        raise PreconditionError(
            f"exchange grouping cannot run {algorithm.value!r} locally: "
            "hash partitioning destroys clusteredness and density"
        )
    from repro.engine.parallel import get_executor_config

    if workers is None:
        workers = get_executor_config().workers
    workers = max(int(workers), 1)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if workers == 1 or keys.size == 0:
        return group_by(keys, values, algorithm, num_distinct_hint=num_distinct_hint)
    order, bounds = hash_partition(keys, workers)
    part_keys = keys[order]
    part_values = (
        np.ascontiguousarray(values)[order] if values is not None else None
    )
    if backend == "process":
        from repro.engine.procpool import get_shared_store, run_process_tasks

        store = get_shared_store()
        keys_ref = store.publish(part_keys)
        values_ref = (
            store.publish(part_values) if part_values is not None else None
        )
        tasks = [
            (
                "group",
                {
                    "keys": keys_ref,
                    "values": values_ref,
                    "start": start,
                    "stop": stop,
                    "algorithm": algorithm.value,
                    "num_distinct_hint": num_distinct_hint,
                },
            )
            for start, stop in bounds
            if stop > start
        ]
        report = run_process_tasks(tasks, workers=workers)
        partials = [
            GroupingResult(
                keys=r["keys"],
                counts=r["counts"],
                sums=r["sums"],
                key_order=KeyOrder(r["key_order"]),
            )
            for r in report.results
        ]
    else:
        tasks = [
            (
                lambda s=start, e=stop: group_by(
                    part_keys[s:e],
                    part_values[s:e] if part_values is not None else None,
                    algorithm,
                    num_distinct_hint=num_distinct_hint,
                )
            )
            for start, stop in bounds
            if stop > start
        ]
        report = run_morsels(tasks, workers=workers)
        partials = report.results
    if on_report is not None:
        on_report(report)
    return merge_partials(partials)


def exchange_join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    algorithm: JoinAlgorithm,
    workers: int | None = None,
    num_distinct_hint: int | None = None,
    backend: str = "thread",
    on_report=None,
) -> JoinResult:
    """Join through an exchange: hash-partition *both* sides, join each
    partition locally with the serial kernel, then restore probe order.

    Equal keys co-locate, so the partition-local joins are exhaustive;
    carrying global row ids through the partition permutations and
    stable-sorting the concatenated matches by global probe row restores
    the serial kernels' probe-major output bit-for-bit (ties stay
    build-ascending: all matches of one probe row live in one partition,
    where the local kernel already emits them ascending). Unlike the
    shared-build :func:`parallel_join`, the *build* phase parallelises
    too — the niche the cost model prices it for.

    :raises PreconditionError: for algorithms repartitioning breaks
        (see :data:`EXCHANGE_JOIN_ALGORITHMS`).
    """
    if algorithm not in EXCHANGE_JOIN_ALGORITHMS:
        raise PreconditionError(
            f"exchange join cannot run {algorithm.value!r} locally: "
            "partitioning breaks its precondition or tie order"
        )
    from repro.engine.parallel import get_executor_config

    if workers is None:
        workers = get_executor_config().workers
    workers = max(int(workers), 1)
    build_keys = np.ascontiguousarray(build_keys, dtype=np.int64)
    probe_keys = np.ascontiguousarray(probe_keys, dtype=np.int64)
    if workers == 1 or build_keys.size == 0 or probe_keys.size == 0:
        return join(
            build_keys, probe_keys, algorithm, num_distinct_hint=num_distinct_hint
        )
    build_order, build_bounds = hash_partition(build_keys, workers)
    probe_order, probe_bounds = hash_partition(probe_keys, workers)
    part_build = build_keys[build_order]
    part_probe = probe_keys[probe_order]
    ranges = [
        (bs, be, ps, pe)
        for (bs, be), (ps, pe) in zip(build_bounds, probe_bounds)
        # A partition with no build rows matches nothing; one with no
        # probe rows emits nothing. Either way there is no work.
        if pe > ps and be > bs
    ]
    if backend == "process":
        from repro.engine.procpool import get_shared_store, run_process_tasks

        store = get_shared_store()
        build_ref = store.publish(part_build)
        probe_ref = store.publish(part_probe)
        tasks = [
            (
                "join_partition",
                {
                    "build": build_ref,
                    "probe": probe_ref,
                    "build_start": bs,
                    "build_stop": be,
                    "probe_start": ps,
                    "probe_stop": pe,
                    "algorithm": algorithm.value,
                    "num_distinct_hint": num_distinct_hint,
                },
            )
            for bs, be, ps, pe in ranges
        ]
        report = run_process_tasks(tasks, workers=workers)
        locals_ = [(r["left"], r["right"]) for r in report.results]
    else:
        tasks = [
            (
                lambda b0=bs, b1=be, p0=ps, p1=pe: (
                    lambda r: (r.left_indices, r.right_indices)
                )(
                    join(
                        part_build[b0:b1],
                        part_probe[p0:p1],
                        algorithm,
                        num_distinct_hint=num_distinct_hint,
                    )
                )
            )
            for bs, be, ps, pe in ranges
        ]
        report = run_morsels(tasks, workers=workers)
        locals_ = report.results
    if on_report is not None:
        on_report(report)
    left_parts = []
    right_parts = []
    structure = int(
        build_order.nbytes
        + probe_order.nbytes
        + part_build.nbytes
        + part_probe.nbytes
    )
    for (bs, be, ps, pe), (left_local, right_local) in zip(ranges, locals_):
        left_parts.append(build_order[bs + left_local])
        right_parts.append(probe_order[ps + right_local])
    if left_parts:
        left_all = np.concatenate(left_parts)
        right_all = np.concatenate(right_parts)
    else:
        left_all = np.empty(0, dtype=np.int64)
        right_all = np.empty(0, dtype=np.int64)
    restore = np.argsort(right_all, kind="stable")
    return JoinResult(
        left_indices=left_all[restore].astype(np.int64),
        right_indices=right_all[restore].astype(np.int64),
        output_order=JoinOutputOrder.PROBE_ORDER,
        structure_bytes=structure,
    )
