"""The group-by physical operator, parameterised by the §4.1 algorithm.

One operator class, five behaviours: the ``algorithm`` constructor argument
selects among HG / SPHG / OG / SOG / BSG. This is deliberate — the paper's
point is that "physical grouping operator" hides an algorithm choice; here
that choice is an explicit, optimiser-visible parameter rather than five
unrelated operators.
"""

from __future__ import annotations

import numpy as np

from repro._util.arrays import is_nondecreasing
from repro.engine.aggregates import AggregateFunction, AggregateSpec, compute_aggregate
from repro.engine.kernels.grouping import GroupingAlgorithm, aggregate_groups
from repro.engine.kernels.parallel import partitioned_group_by
from repro.engine.operators.base import MaterialisedOperator, PhysicalOperator
from repro.engine.operators.joins import Join, JoinMatches, memoised_encoding
from repro.errors import ExecutionError
from repro.indexes.perfect_hash import MIN_DENSITY
from repro.service.context import check_active_context
from repro.settings import check, get_settings
from repro.storage.schema import ColumnSpec, Schema
from repro.storage.table import Table

class GroupBy(MaterialisedOperator):
    """Group rows by one key column and evaluate aggregates.

    :param child: input operator.
    :param key: grouping key column name.
    :param aggregates: the aggregates to compute per group.
    :param algorithm: which §4.1 implementation performs the grouping.
    :param num_distinct_hint: known NDV (the paper assumes it known).
    :param validate: verify the algorithm's precondition at runtime.
    :param parallel: the optimiser's MOLECULE-level ``loop`` decision,
        the Figure 3(e) parallel load. ``True`` splits the input into one
        range shard per worker of the :class:`~repro.settings.Settings`
        in force, groups each on the shared worker pool
        (:mod:`repro.engine.parallel`) and merges the decomposable
        partial aggregates; the merged output is key-sorted. ``False``
        (default) groups serially, at any worker count.
    :param backend: which pool runs the parallel work: ``"thread"``,
        ``"process"`` (shared-memory workers,
        :mod:`repro.engine.procpool`), or ``None`` (default) to follow
        the settings in force.

    ``parallel`` splits nothing when the child is a :class:`Join` and the
    key is a column of its build input, which covers every Figure 5 plan:
    the slots are assigned once over the build input, serially
    (:meth:`_group_matches`), and the optimiser plans no parallel
    grouping there. Only when that route declines does the gathered
    output split as described above.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        key: str,
        aggregates: list[AggregateSpec],
        algorithm: GroupingAlgorithm = GroupingAlgorithm.HG,
        num_distinct_hint: int | None = None,
        validate: bool = False,
        parallel: bool = False,
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
        self._parallel = parallel
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

    def _materialise(self) -> Table:
        child = self.children[0]
        # A group-by on a key of a join's build input assigns its slots
        # there, before the join multiplies the rows, on every route; the
        # join's row count may still decide against the build side.
        if isinstance(child, Join) and self._key in child.children[0].output_schema:
            # Only an aggregate other than COUNT reads values through the
            # pairs; COUNTs alone are counted off the probe's slots.
            counted = all(
                spec.function is AggregateFunction.COUNT for spec in self._aggregates
            )
            matches = child.matches(pairs=not counted)
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
        parts = get_settings().workers if self._parallel else 1
        if parts > 1 and table.num_rows:
            group_keys, columns, report = partitioned_group_by(
                keys,
                inputs,
                self._aggregates,
                self._algorithm,
                parts,
                self._num_distinct_hint,
                self._backend or get_settings().backend,
            )
            self._note_parallelism(report.workers_used, report.busy_seconds)
            # Working set beyond input and output: the partials.
            scratch = sum(
                part_keys.nbytes + sum(array.nbytes for array in part.values())
                for part_keys, part in report.results
            )
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

        Groups are per build row: the build key column's memoised
        ``encoding`` (:func:`memoised_encoding`; its dictionary entries
        are the groups, its codes the build rows' groups). COUNTs are
        counted off the probe's slots
        (:meth:`BuildSide.group_counts`; SOJ and an empty input count
        their pairs); groups with none (build keys nobody matched) are
        dropped. When every aggregate is a COUNT, the join was asked for
        no pairs. For the other aggregates each output row reads its
        group through the build-side match indices, and its input
        through the indices of the input column's side. Returns None,
        and the caller groups the gathered output, when the build input
        has more rows than the join matched (decided before the key
        column's memo is read), when SPHG finds the build keys too
        sparse (the matched keys alone may still be dense), or when OG
        finds them out of order. The groups leave ascending: for OG the
        order OG over a key-sorted output gives, the only one plans use,
        and for HG one order its unspecified order allows.
        """
        if matches.left.num_rows > matches.num_rows:
            return None
        encoded = memoised_encoding(matches.left.column(self._key))
        row_groups, group_keys = encoded.codes, encoded.dictionary
        algorithm = self._algorithm
        # Order-preserving codes are sorted exactly when the column is.
        if algorithm is GroupingAlgorithm.OG and not is_nondecreasing(row_groups):
            return None
        if algorithm is GroupingAlgorithm.SPHG and group_keys.size:
            span = int(group_keys[-1]) - int(group_keys[0]) + 1
            if group_keys.size < MIN_DENSITY * span:
                return None
        if matches.build is None:
            counts = np.bincount(
                row_groups[matches.pairs.left_indices], minlength=group_keys.size
            )
        else:
            counts, __ = matches.build.group_counts(
                matches.slots, matches.encoded, row_groups, group_keys.size
            )
        values = {
            spec.column: matches.column(spec.column)
            for spec in self._aggregates
            if spec.function is not AggregateFunction.COUNT
        }
        matched = counts > 0
        if not matched.all():
            if values:
                # A dropped group's build rows are in no match, so the
                # group they are renumbered to here is never read.
                row_groups = (np.cumsum(matched) - 1)[row_groups]
            group_keys, counts = group_keys[matched], counts[matched]
        slots = row_groups[matches.pairs.left_indices] if values else None
        columns = {
            spec.alias: counts
            if spec.function is AggregateFunction.COUNT
            else compute_aggregate(spec, slots, group_keys.size, values[spec.column])
            for spec in self._aggregates
        }
        result = self._output(group_keys, columns)
        scratch = (
            encoded.memory_bytes()
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
        loop = ""
        if self._parallel:
            backend = self._backend or get_settings().backend
            loop = f", loop=parallel, backend={backend}"
        return (
            f"GroupBy(key={self._key}, impl={self._algorithm.value}{loop}, "
            f"[{aggs}])"
        )
