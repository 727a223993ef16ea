"""The group-by physical operator, parameterised by the §4.1 algorithm.

One operator class, five behaviours: the ``algorithm`` constructor argument
selects among HG / SPHG / OG / SOG / BSG. This is deliberate — the paper's
point is that "physical grouping operator" hides an algorithm choice; here
that choice is an explicit, optimiser-visible parameter rather than five
unrelated operators.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import AggregateFunction, AggregateSpec, compute_aggregate
from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    KeyOrder,
    aggregate_groups,
    assign_slots,
)
from repro.engine.kernels.parallel import (
    EXCHANGE_GROUPING_ALGORITHMS,
    partitioned_group_by,
)
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    MaterialisedOperator,
    PhysicalOperator,
    memoised,
)
from repro.engine.operators.joins import Join, JoinMatches
from repro.engine.parallel import MIN_PARALLEL_ROWS
from repro.errors import ExecutionError, PreconditionError
from repro.service.context import check_active_context
from repro.settings import check, get_settings
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.table import Table

#: grouping algorithms whose slot assignment has no precondition on row
#: order, so they may run over a join's build input instead of its output
#: (OG needs the *output* clustered, which the build input does not show).
BUILD_SIDE_GROUPING = frozenset(
    {
        GroupingAlgorithm.HG,
        GroupingAlgorithm.SPHG,
        GroupingAlgorithm.SOG,
        GroupingAlgorithm.BSG,
    }
)


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
        :class:`~repro.settings.Settings` in force have more than one
        worker.
    :param exchange: the MACROMOLECULE-level repartition decision.
        ``True`` hash-partitions the input on the key, groups each
        (disjoint) partition locally, and concatenates — only HG/SOG/BSG
        survive partitioning (OG loses clusteredness, SPHG density).
    :param backend: which pool runs the parallel work: ``"thread"``,
        ``"process"`` (shared-memory workers,
        :mod:`repro.engine.procpool`), or ``None`` (default) to follow
        the settings in force.

    None of ``shards``, ``parallel`` or ``exchange`` splits anything
    when the child is a :class:`Join` and the key is a column of its
    build input (HG/SPHG/SOG/BSG), which covers every Figure 5 plan:
    the slots are assigned once over the build input, serially, and
    where the execution would have had more than one part the surviving
    groups are sorted by key, the order a merge of parts returns
    (:meth:`_group_matches`). Only when that route declines does the
    gathered output split as described above.
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
        self._shards = shards
        self._parallel = parallel
        self._exchange = bool(exchange)
        self._backend = None if backend is None else check("backend", backend)

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

    def _parts(self, num_rows: int) -> int:
        """Pieces this execution groups through (1 = the serial kernel).
        An exchange makes one partition per worker; otherwise the
        explicit ``shards`` argument wins, and the ``parallel`` mode
        consults the settings in force."""
        workers = get_settings().workers
        if self._exchange and workers > 1:
            return workers
        if self._shards > 1:
            return self._shards
        if self._parallel is False or workers <= 1:
            return 1
        if self._parallel is None and num_rows < MIN_PARALLEL_ROWS:
            return 1
        return workers

    def _materialise(self) -> Table:
        child = self.children[0]
        # A group-by on a key of a join's build input assigns its slots
        # there, before the join multiplies the rows, on every route; the
        # join's row count may still decide against the build side.
        if (
            isinstance(child, Join)
            and self._algorithm in BUILD_SIDE_GROUPING
            and self._key in child.children[0].output_schema
        ):
            matches = child.matches()
            check_active_context()
            result = self._group_matches(matches)
            if result is not None:
                return result
            table = child.gather(matches)
        else:
            table = child.to_table()
        check_active_context()
        keys = table[self._key]
        inputs = {
            spec.column: table[spec.column]
            for spec in self._aggregates
            if spec.column is not None
        }
        settings = get_settings()
        exchange = self._exchange and settings.workers > 1
        parts = self._parts(table.num_rows)
        if parts > 1 and table.num_rows:
            group_keys, columns, report = partitioned_group_by(
                keys,
                inputs,
                self._aggregates,
                self._algorithm,
                parts,
                "hash" if exchange else "range",
                self._num_distinct_hint,
                self._backend or settings.backend,
            )
            self._note_parallelism(report.workers_used, report.busy_seconds)
            # Working set beyond input and output: the partials, plus the
            # permuted copy of the needed columns an exchange makes.
            scratch = sum(
                part_keys.nbytes + sum(array.nbytes for array in part.values())
                for part_keys, part in report.results
            )
            if exchange:
                scratch += keys.nbytes + sum(a.nbytes for a in inputs.values())
        else:
            assignment, columns = aggregate_groups(
                keys,
                inputs,
                self._aggregates,
                self._algorithm,
                self._num_distinct_hint,
                self._validate,
            )
            group_keys = assignment.group_keys
            # The slot assignment with its algorithm structure (HG's hash
            # table vs SPHG's dense array — the Table 1 contrast).
            scratch = assignment.memory_bytes()
        result = self._output(group_keys, columns)
        self._note_memory(table.memory_bytes() + scratch + result.memory_bytes())
        return result

    def _group_matches(self, matches: JoinMatches) -> Table | None:
        """Group a join's output without gathering its key column.

        Slots are assigned over the build input's key column, once per
        build row. A group's COUNT is the sum of its build rows' match
        counts; groups with none (build keys nobody matched) are dropped.
        For the other aggregates each output row reads its slot through
        the build-side match indices, and its input through the indices
        of the input column's side. Returns None, and the caller groups the
        gathered output, when the build input has more rows than the
        join emitted, or when SPHG finds the build keys too sparse (the
        matched keys alone may still be dense).

        Where the output would have been grouped in parts (a parallel or
        exchange route), the groups come back sorted by key, as the
        parts' merge returns them: the optimiser relies on that order and
        drops an ``ORDER BY`` on the key for these routes.
        """
        pairs = matches.pairs
        if matches.left.num_rows > pairs.num_rows:
            return None
        column = matches.left.column(self._key)
        try:
            # Memoised on the build input's key column: an unchanged base
            # column's assignment is reused by every later query.
            assignment = memoised(
                column,
                "slots",
                (self._algorithm, self._num_distinct_hint),
                lambda: assign_slots(
                    column.values, self._algorithm, self._num_distinct_hint
                ),
            )
        except PreconditionError:
            if self._algorithm is GroupingAlgorithm.SPHG:
                return None
            raise
        build_slots, group_keys = assignment.slots, assignment.group_keys
        row_matches = np.bincount(pairs.left_indices, minlength=build_slots.size)
        counts = np.bincount(
            build_slots, weights=row_matches, minlength=group_keys.size
        ).astype(np.int64)
        matched = counts > 0
        if not matched.all():
            # A dropped group's build rows are in no match, so the slot
            # they are renumbered to here is never read.
            build_slots = (np.cumsum(matched) - 1)[build_slots]
            group_keys, counts = group_keys[matched], counts[matched]
        values = {
            spec.column: matches.column(spec.column)
            for spec in self._aggregates
            if spec.function is not AggregateFunction.COUNT
        }
        slots = build_slots[pairs.left_indices] if values else None
        columns = {
            spec.alias: counts
            if spec.function is AggregateFunction.COUNT
            else compute_aggregate(spec, slots, group_keys.size, values[spec.column])
            for spec in self._aggregates
        }
        if self._parts(pairs.num_rows) > 1:
            order = np.argsort(group_keys, kind="stable")
            group_keys = group_keys[order]
            columns = {alias: column[order] for alias, column in columns.items()}
        result = self._output(group_keys, columns)
        scratch = (
            assignment.memory_bytes()
            + row_matches.nbytes
            + (0 if slots is None else slots.nbytes)
            + sum(array.nbytes for array in values.values())
        )
        self._note_memory(
            matches.left.memory_bytes() + scratch + result.memory_bytes()
        )
        return result

    def _output(self, group_keys: np.ndarray, columns: dict[str, np.ndarray]) -> Table:
        """The one cast to the output types (a float SUM truncates here,
        after any merge — so every route truncates the same total)."""
        return Table.from_arrays(
            {self._key: group_keys, **columns},
            dtypes={s.name: s.dtype for s in self.output_schema},
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
