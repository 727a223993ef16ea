"""The group-by physical operator, parameterised by the §4.1 algorithm.

One operator class, five behaviours: the ``algorithm`` constructor argument
selects among HG / SPHG / OG / SOG / BSG. This is deliberate — the paper's
point is that "physical grouping operator" hides an algorithm choice; here
that choice is an explicit, optimiser-visible parameter rather than five
unrelated operators.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import (
    AggregateFunction,
    AggregateSpec,
    compute_aggregate,
)
from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    KeyOrder,
    binary_search_slots,
    hash_slots,
    order_slots,
    perfect_hash_slots,
    sort_order_slots,
)
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    MaterialisedOperator,
    PhysicalOperator,
)
from repro.engine.kernels.parallel import EXCHANGE_GROUPING_ALGORITHMS
from repro.engine.operators.scan import TableScan
from repro.engine.parallel import (
    BACKENDS,
    get_executor_config,
    morsel_boundaries,
    run_morsels,
)
from repro.errors import ExecutionError
from repro.service.context import check_active_context
from repro.storage.dtypes import DataType
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.table import Table


def decompose_partials(aggregates: list[AggregateSpec]) -> list[AggregateSpec]:
    """Aggregates rewritten for partial (shard/partition-local) runs.

    AVG is decomposed into partial SUM and COUNT columns (suffixes
    ``@sum`` / ``@count``) so partials merge losslessly; everything else
    is already decomposable as-is.
    """
    partial_specs: list[AggregateSpec] = []
    for spec in aggregates:
        if spec.function is AggregateFunction.AVG:
            partial_specs.append(
                AggregateSpec(
                    AggregateFunction.SUM, spec.column, f"{spec.alias}@sum"
                )
            )
            partial_specs.append(
                AggregateSpec(
                    AggregateFunction.COUNT, None, f"{spec.alias}@count"
                )
            )
        else:
            partial_specs.append(spec)
    return partial_specs


def group_partial(
    table: Table,
    key: str,
    aggregates: list[AggregateSpec],
    algorithm,
    num_distinct_hint: int | None = None,
) -> Table:
    """Group one shard/partition serially into a partial-aggregate table.

    This is the per-morsel unit of work shared by the thread pool and the
    process workers (:mod:`repro.engine.procpool` ships it table slices
    rebuilt from shared memory); ``aggregates`` must already be
    decomposed (:func:`decompose_partials`). ``algorithm`` accepts the
    enum or its string value (process payloads carry the value).
    """
    if not isinstance(algorithm, GroupingAlgorithm):
        algorithm = GroupingAlgorithm(algorithm)
    partial = GroupBy(
        TableScan(table),
        key=key,
        aggregates=list(aggregates),
        algorithm=algorithm,
        num_distinct_hint=num_distinct_hint,
        # A partial is already one unit of parallel work: pinning serial
        # stops it re-sharding (unbounded recursion under a small
        # min_parallel_rows setting).
        parallel=False,
    )
    return partial.to_table()


def _partial_bytes(partial) -> int:
    """Working-set bytes of one partial result (a Table from the thread
    path, a plain {name: array} dict from the process path)."""
    if hasattr(partial, "memory_bytes"):
        return partial.memory_bytes()
    return sum(array.nbytes for array in partial.values())


class GroupBy(MaterialisedOperator):
    """Group rows by one key column and evaluate aggregates.

    :param child: input operator.
    :param key: grouping key column name.
    :param aggregates: the aggregates to compute per group.
    :param algorithm: which §4.1 implementation performs the grouping.
    :param num_distinct_hint: known NDV (the paper assumes it known).
    :param validate: verify the algorithm's precondition at runtime.
    :param shards: morsel count for the Figure 3(e) parallel-load variant:
        with ``shards > 1`` the input splits into shards, each grouped
        independently on the shared worker pool
        (:mod:`repro.engine.parallel`), and the decomposable partial
        aggregates are merged. The merged output is key-sorted.
    :param parallel: the optimiser's MOLECULE-level ``loop`` decision.
        ``True`` forces morsel-parallel execution (one shard per
        configured worker), ``False`` forces the serial path, and
        ``None`` (default) auto-parallelises large inputs when the
        process-wide :class:`~repro.engine.parallel.ExecutorConfig` has
        more than one worker.
    :param exchange: the MACROMOLECULE-level repartition decision.
        ``True`` hash-partitions the input on the key, groups each
        (disjoint) partition locally, and concatenates — only HG/SOG/BSG
        survive partitioning (OG loses clusteredness, SPHG density).
    :param backend: which pool runs the parallel work: ``"thread"``,
        ``"process"`` (shared-memory workers,
        :mod:`repro.engine.procpool`), or ``None`` (default) to follow
        the process-wide executor configuration.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        key: str,
        aggregates: list[AggregateSpec],
        algorithm: GroupingAlgorithm = GroupingAlgorithm.HG,
        num_distinct_hint: int | None = None,
        validate: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
        parallel: bool | None = None,
        exchange: bool = False,
        backend: str | None = None,
    ) -> None:
        super().__init__(children=[child])
        schema = child.output_schema
        if key not in schema:
            raise ExecutionError(f"grouping key {key!r} not in input schema")
        for spec in aggregates:
            if spec.column is not None and spec.column not in schema:
                raise ExecutionError(
                    f"aggregate input column {spec.column!r} not in schema"
                )
        aliases = [key] + [spec.alias for spec in aggregates]
        if len(set(aliases)) != len(aliases):
            raise ExecutionError(f"duplicate output column names: {aliases}")
        self._key = key
        self._aggregates = list(aggregates)
        self._algorithm = algorithm
        self._num_distinct_hint = num_distinct_hint
        self._validate = validate
        self._chunk_size = chunk_size
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
        if exchange and algorithm not in EXCHANGE_GROUPING_ALGORITHMS:
            raise ExecutionError(
                f"exchange grouping supports "
                f"{sorted(a.value for a in EXCHANGE_GROUPING_ALGORITHMS)}, "
                f"not {algorithm.value!r}"
            )
        if backend is not None and backend not in BACKENDS:
            raise ExecutionError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self._shards = shards
        self._parallel = parallel
        self._exchange = bool(exchange)
        self._backend = backend

    @property
    def output_schema(self) -> Schema:
        key_dtype = self.children[0].output_schema[self._key].dtype
        specs = [ColumnSpec(self._key, key_dtype)]
        specs.extend(
            ColumnSpec(spec.alias, spec.output_dtype) for spec in self._aggregates
        )
        return Schema(specs)

    @property
    def algorithm(self) -> GroupingAlgorithm:
        """The selected grouping implementation."""
        return self._algorithm

    @property
    def output_key_order(self) -> KeyOrder:
        """The key order this operator's output will exhibit — the plan
        property the optimiser propagates (without running the operator)."""
        if self._algorithm is GroupingAlgorithm.HG:
            return KeyOrder.UNSPECIFIED
        if self._algorithm is GroupingAlgorithm.OG:
            # Sorted only if the input was sorted; clustered input yields
            # first-occurrence order. Statically we can only promise that.
            return KeyOrder.FIRST_OCCURRENCE
        return KeyOrder.SORTED

    def _effective_shards(self, num_rows: int) -> int:
        """Morsel count for this execution: the explicit ``shards``
        argument wins; otherwise the ``parallel`` mode consults the
        process-wide executor configuration."""
        if self._shards > 1:
            return self._shards
        config = get_executor_config()
        if self._parallel is False or config.workers <= 1:
            return 1
        if self._parallel is None and num_rows < config.min_parallel_rows:
            return 1
        return config.workers

    def _effective_backend(self) -> str:
        """Which pool parallel work runs on: the pinned ``backend``
        argument, else the process-wide executor configuration."""
        return self._backend or get_executor_config().backend

    def _materialise(self) -> Table:
        table = self.children[0].to_table()
        check_active_context()
        workers = get_executor_config().workers
        if self._exchange and table.num_rows and workers > 1:
            return self._exchange_grouped(table, workers)
        shards = self._effective_shards(table.num_rows)
        if shards > 1 and table.num_rows:
            return self._sharded_grouped(table, shards)
        keys = table[self._key]
        if self._algorithm is GroupingAlgorithm.HG:
            assignment = hash_slots(keys, self._num_distinct_hint)
        elif self._algorithm is GroupingAlgorithm.SPHG:
            assignment = perfect_hash_slots(keys)
        elif self._algorithm is GroupingAlgorithm.OG:
            assignment = order_slots(keys, validate=self._validate)
        elif self._algorithm is GroupingAlgorithm.SOG:
            assignment = sort_order_slots(keys)
        elif self._algorithm is GroupingAlgorithm.BSG:
            assignment = binary_search_slots(keys)
        else:
            raise ExecutionError(f"unknown algorithm {self._algorithm!r}")
        key_dtype = self.output_schema[self._key].dtype
        data: dict[str, np.ndarray] = {
            self._key: assignment.group_keys.astype(key_dtype.numpy_dtype)
        }
        for spec in self._aggregates:
            values = table[spec.column] if spec.column is not None else None
            data[spec.alias] = compute_aggregate(
                spec, assignment.slots, assignment.num_groups, values
            )
        result = Table.from_arrays(
            data, dtypes={s.name: s.dtype for s in self.output_schema}
        )
        # Working set: the materialised input, the slot assignment with
        # its algorithm structure (HG's hash table vs SPHG's dense array
        # — the Table 1 contrast), and the group-state output arrays.
        self._note_memory(
            table.memory_bytes()
            + assignment.memory_bytes()
            + result.memory_bytes()
        )
        return result

    def _group_slice(self, table: Table) -> Table:
        """Group one shard into a partial-aggregate table."""
        return group_partial(
            table,
            self._key,
            decompose_partials(self._aggregates),
            self._algorithm,
            self._num_distinct_hint,
        )

    def _partial_tables(self, table: Table, boundaries):
        """Run the partial grouping of each ``(start, stop)`` slice on the
        effective backend; returns ``(partials, MorselReport)``."""
        if self._effective_backend() == "process":
            return self._process_partials(table, boundaries)
        tasks = [
            (lambda s=start, e=stop: self._group_slice(table.slice(s, e)))
            for start, stop in boundaries
        ]
        report = run_morsels(tasks)
        return report.results, report

    def _process_partials(self, table: Table, boundaries):
        """Partial grouping on the shared-memory process pool: publish the
        needed columns once, ship only (start, stop) bounds per morsel."""
        from repro.engine.procpool import get_shared_store, run_process_tasks

        store = get_shared_store()
        partial_specs = decompose_partials(self._aggregates)
        needed = [self._key] + sorted(
            {
                spec.column
                for spec in partial_specs
                if spec.column is not None and spec.column != self._key
            }
        )
        # ascontiguousarray may copy (sliced inputs): the keepalive list
        # holds those copies until the batch has drained, since the store
        # unlinks a published segment when its source array is collected.
        keepalive = [np.ascontiguousarray(table[name]) for name in needed]
        base = {
            "columns": {
                name: store.publish(array)
                for name, array in zip(needed, keepalive)
            },
            "key": self._key,
            "aggregates": [
                (spec.function.value, spec.column, spec.alias)
                for spec in partial_specs
            ],
            "algorithm": self._algorithm.value,
            "num_distinct_hint": self._num_distinct_hint,
        }
        tasks = [
            ("group_table", {**base, "start": start, "stop": stop})
            for start, stop in boundaries
        ]
        report = run_process_tasks(tasks)
        del keepalive
        return report.results, report

    def _sharded_grouped(self, table: Table, shards: int) -> Table:
        boundaries = morsel_boundaries(table.num_rows, shards)
        partials, report = self._partial_tables(table, boundaries)
        self._note_parallelism(report.workers_used, report.busy_seconds)
        merged = self._merge_partials(partials)
        self._note_memory(
            table.memory_bytes()
            + sum(_partial_bytes(part) for part in partials)
            + merged.memory_bytes()
        )
        return merged

    def _exchange_grouped(self, table: Table, partitions: int) -> Table:
        """The repartitioning path: hash-partition rows on the key, group
        each partition locally (partitions are key-disjoint, so partials
        share no groups), and merge. Output is key-sorted, same as the
        sharded path's merge."""
        from repro.engine.kernels.parallel import hash_partition

        order, bounds = hash_partition(table[self._key], partitions)
        permuted = table.take(order)
        boundaries = [(start, stop) for start, stop in bounds if stop > start]
        partials, report = self._partial_tables(permuted, boundaries)
        self._note_parallelism(report.workers_used, report.busy_seconds)
        merged = self._merge_partials(partials)
        self._note_memory(
            table.memory_bytes()
            + permuted.memory_bytes()
            + sum(_partial_bytes(part) for part in partials)
            + merged.memory_bytes()
        )
        return merged

    def _merge_partials(self, partials: list[Table]) -> Table:
        all_keys = np.concatenate([part[self._key] for part in partials])
        merged_keys, inverse = np.unique(all_keys, return_inverse=True)
        key_dtype = self.output_schema[self._key].dtype
        data: dict[str, np.ndarray] = {
            self._key: merged_keys.astype(key_dtype.numpy_dtype)
        }

        def gather(column: str) -> np.ndarray:
            return np.concatenate([part[column] for part in partials])

        def exact_sum(values: np.ndarray) -> np.ndarray:
            # Integer partials merge with exact int64 scatter-adds; a
            # float64 detour (bincount weights) would round >= 2**53.
            if np.issubdtype(values.dtype, np.integer):
                out = np.zeros(merged_keys.size, dtype=np.int64)
                np.add.at(out, inverse, values.astype(np.int64))
                return out
            return np.bincount(
                inverse,
                weights=values.astype(np.float64),
                minlength=merged_keys.size,
            )

        for spec in self._aggregates:
            if spec.function in (AggregateFunction.COUNT, AggregateFunction.SUM):
                data[spec.alias] = exact_sum(gather(spec.alias))
            elif spec.function is AggregateFunction.MIN:
                out = np.full(
                    merged_keys.size, np.iinfo(np.int64).max, dtype=np.int64
                )
                np.minimum.at(out, inverse, gather(spec.alias).astype(np.int64))
                data[spec.alias] = out
            elif spec.function is AggregateFunction.MAX:
                out = np.full(
                    merged_keys.size, np.iinfo(np.int64).min, dtype=np.int64
                )
                np.maximum.at(out, inverse, gather(spec.alias).astype(np.int64))
                data[spec.alias] = out
            elif spec.function is AggregateFunction.AVG:
                sums = exact_sum(gather(f"{spec.alias}@sum"))
                counts = exact_sum(gather(f"{spec.alias}@count"))
                data[spec.alias] = sums / counts
            else:
                raise ExecutionError(
                    f"cannot merge partials of {spec.function!r}"
                )
        return Table.from_arrays(
            data, dtypes={s.name: s.dtype for s in self.output_schema}
        )

    def describe(self) -> str:
        aggs = ", ".join(
            f"{spec.function.value.upper()}({spec.column or '*'}) AS {spec.alias}"
            for spec in self._aggregates
        )
        if self._exchange:
            loop = ", loop=exchange"
        elif self._shards > 1:
            loop = f", shards={self._shards}"
        elif self._parallel:
            loop = ", loop=parallel"
        else:
            loop = ""
        if self._backend == "process":
            loop += ", backend=process"
        return (
            f"GroupBy(key={self._key}, impl={self._algorithm.value}{loop}, "
            f"[{aggs}])"
        )
