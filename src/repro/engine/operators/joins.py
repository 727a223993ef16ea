"""The equi-join physical operator, parameterised by the Table 2 algorithm.

Like :class:`repro.engine.operators.grouping.GroupBy`, this is one operator
class with the implementation family as an explicit parameter. The build
side is the left child, the probe side the right child — fixed sides, as
assumed by the Figure 5 reconstruction (DESIGN.md substitution #5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, Collection

import numpy as np

from repro._util.arrays import is_nondecreasing, run_count
from repro.engine.kernels.joins import (
    BuildSide,
    JoinAlgorithm,
    JoinOutputOrder,
    JoinResult,
    build_side,
    check_merge_inputs,
    join,
)
from repro.service.context import check_active_context
from repro.engine.operators.base import (
    MaterialisedOperator,
    PhysicalOperator,
    kept_columns,
    memoised,
)
from repro.errors import ExecutionError
from repro.storage.column import Column
from repro.storage.dictionary import DictionaryEncoded, dictionary_encode
from repro.storage.schema import Schema
from repro.storage.table import Table


def memoised_build_side(column: Column, algorithm: JoinAlgorithm) -> BuildSide | None:
    """``algorithm``'s build side over ``column``, erected on its first
    use and memoised on the column: an unchanged base column's is reused
    by every later query, and a join-level Algorithmic View is this
    entry, erected ahead of the first query. None for SOJ, which sorts
    both inputs instead."""
    if algorithm is JoinAlgorithm.SOJ:
        return None
    return memoised(
        column,
        "build_side",
        (algorithm,),
        lambda: build_side(
            np.ascontiguousarray(column.values, dtype=np.int64), algorithm
        ),
    )


def memoised_encoding(
    column: Column,
    admit: Callable[[Column], bool] = lambda column: True,
    second_touch: bool = False,
) -> DictionaryEncoded | None:
    """``column``'s one ``encoding``, :func:`dictionary_encode` of its
    values, built on its first use (its second with ``second_touch``)
    and memoised on the column: every later reader, a join's probe, a
    build-side group-by or a dictionary view, reads the same object.
    ``admit(column)`` is asked before a build only; a column it refuses
    stores nothing and is asked again on its next read. The entry is
    keyed ``()``: no reader's algorithm or hint changes the encoding."""
    return memoised(
        column,
        "encoding",
        (),
        lambda: dictionary_encode(column.values) if admit(column) else None,
        second_touch=second_touch,
    )


def probe_slots(
    build: BuildSide,
    column: Column,
    encoded: DictionaryEncoded | None,
    standing: bool,
) -> np.ndarray:
    """The slot in ``build`` of each row of the probe ``column`` or, with
    the column's ``encoded`` form, of each of its distinct values. The
    latter is the column's ``lookup``, a fact about two base columns:
    it is memoised on the probe column,
    keyed on the build side by weak reference and compared by identity.
    The key needs no encoding: a column's ``encoding`` is never replaced
    once built. Only a ``standing`` build side, one its column held
    before this join read it, gets an entry: a filter's or a join's
    output is a fresh column read once, so a lookup keyed on its build
    side could never hit, and would evict the base column's."""
    if encoded is None:
        return build.slots(column.values)
    if not standing:
        return build.slots(encoded.dictionary)
    return memoised(
        column,
        "lookup",
        (weakref.ref(build),),
        lambda: build.slots(encoded.dictionary),
    )


@dataclass(frozen=True)
class JoinMatches:
    """A join before its gather: both inputs, the probe's lookups into
    the build side, the number of matches and, if the parent asked for
    them, the index :attr:`pairs`."""

    left: Table
    right: Table
    #: the build side over the left key; None for SOJ and an empty input.
    build: BuildSide | None
    #: the right key column's memoised encoding; None = probe row by row.
    encoded: DictionaryEncoded | None
    #: the build-side slot of each probe row, or of each distinct value
    #: of ``encoded``; None without a build side.
    slots: np.ndarray | None
    #: the matching ``(build row, probe row)`` index pairs; None when
    #: the parent counts the matches off the slots instead.
    pairs: JoinResult | None
    #: rows of the join's output: the matches, emitted or not.
    num_rows: int

    def column(self, name: str) -> np.ndarray:
        """Input column ``name`` read through the match indices of its
        side: one value per output row."""
        if name in self.left.schema:
            return self.left[name][self.pairs.left_indices]
        return self.right[name][self.pairs.right_indices]

    def memory_bytes(self) -> int:
        """Bytes of both inputs, the build structure, the slots and the
        pairs."""
        nbytes = self.left.memory_bytes() + self.right.memory_bytes()
        if self.pairs is not None:
            nbytes += self.pairs.memory_bytes()
        elif self.build is not None:
            nbytes += self.build.structure_bytes
        if self.slots is not None:
            nbytes += self.slots.nbytes
        return nbytes


class Join(MaterialisedOperator):
    """Inner equi-join: ``left.left_key = right.right_key``.

    Output schema is the concatenation of both input schemas (narrowed to
    ``columns`` when given); the caller must pre-qualify ambiguous column
    names (see :meth:`Table.qualified`).

    What depends on base columns alone is memoised on them (DESIGN.md
    "Build structures are facts about a column"): the build side over
    the left key; the right key column's ``encoding``, through which
    HJ, SPHJ, BSJ and OJ look each distinct value up once; and
    that ``lookup`` itself (:func:`probe_slots`). The pairs are the
    row-by-row probe's, in its order.

    :param columns: the columns an ancestor reads. Only those are
        gathered through the match indices; ``None`` (default) gathers
        every column of both inputs. Names the inputs do not have are
        ignored, and a relation always keeps at least one column (it
        carries the row count).

    Every join runs the serial kernel on the calling thread, whatever
    the worker count: parallel work belongs to the grouping above it.
    """

    HAND_OVERS = ("to_table", "matches")
    STEPS = ("gather",)

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
        algorithm: JoinAlgorithm = JoinAlgorithm.HJ,
        validate: bool = False,
        columns: Collection[str] | None = None,
    ) -> None:
        super().__init__(children=[left, right])
        if left_key not in left.output_schema:
            raise ExecutionError(f"left key {left_key!r} not in left schema")
        if right_key not in right.output_schema:
            raise ExecutionError(f"right key {right_key!r} not in right schema")
        overlap = set(left.output_schema.names) & set(right.output_schema.names)
        if overlap:
            raise ExecutionError(
                f"join inputs share column name(s) {sorted(overlap)}; "
                "qualify them first"
            )
        self._left_key = left_key
        self._right_key = right_key
        self._algorithm = algorithm
        self._validate = validate
        schema = left.output_schema.concat(right.output_schema)
        self._schema = schema.project(kept_columns(schema.names, columns))

    @property
    def output_schema(self) -> Schema:
        return self._schema

    @property
    def algorithm(self) -> JoinAlgorithm:
        """The selected join implementation."""
        return self._algorithm

    @property
    def output_order(self) -> JoinOutputOrder:
        """The row-order guarantee of this join's output — the plan
        property the optimiser propagates."""
        if self._algorithm in (JoinAlgorithm.OJ, JoinAlgorithm.SOJ):
            return JoinOutputOrder.KEY_SORTED
        return JoinOutputOrder.PROBE_ORDER

    def matches(self, pairs: bool = True) -> JoinMatches:
        """Everything the join computes before it gathers: both
        materialised inputs, the build side, the probe's encoding and
        lookups, the number of matches and, if asked for, the index
        ``pairs``. A parent that reads the inputs through the pairs
        itself, or counts the matches off the slots (a group-by on a
        build-side key), takes these instead of :meth:`to_table`."""
        left_table = self.children[0].to_table()
        right_table = self.children[1].to_table()
        check_active_context()
        build_keys = left_table[self._left_key]
        probe_keys = right_table[self._right_key]
        if self._validate and self._algorithm is JoinAlgorithm.OJ:
            check_merge_inputs(build_keys, probe_keys)
        build_column = left_table.column(self._left_key)
        standing = build_column.memo.get("build_side")
        build = (
            memoised_build_side(build_column, self._algorithm)
            if build_keys.size and probe_keys.size
            else None
        )
        encoded = None if build is None else self._probe_encoding(right_table)
        slots = found = None
        if build is None:
            # SOJ and an empty input: the kernel's join, counted off its
            # pairs.
            found = join(build_keys, probe_keys, self._algorithm)
            total = found.num_rows
        else:
            # Each probe row, or each distinct value of the probe
            # column's encoding, is looked up once; the pairs, or the
            # parent's counts, are read off those slots.
            slots = probe_slots(
                build,
                right_table.column(self._right_key),
                encoded,
                standing is not None and standing[1] is build,
            )
            if pairs:
                found = self._pairs(build, slots, encoded)
                total = found.num_rows
            else:
                total = build.num_matches(slots, right_table.num_rows, encoded)
        matches = JoinMatches(
            left_table, right_table, build, encoded, slots, found, total
        )
        # Working set: both materialised inputs, the build-side structure
        # and the matches.
        self._note_memory(matches.memory_bytes())
        return matches

    def _pairs(
        self,
        build: BuildSide,
        slots: np.ndarray,
        encoded: DictionaryEncoded | None,
    ) -> JoinResult:
        """The matching pairs of a probe whose keys have ``slots``."""
        return JoinResult(
            *build.pairs(slots, encoded), self.output_order, build.structure_bytes
        )

    def _probe_encoding(self, right_table: Table) -> DictionaryEncoded | None:
        """The right key column's shared ``encoding``
        (:func:`memoised_encoding`). OJ builds it on the column's first
        probe, and only over a non-decreasing column; HJ, SPHJ and BSJ
        on its second. None before that, and for a column over half
        distinct, whose entry could outgrow it: HJ, SPHJ and BSJ decide
        that on the statistics, OJ on the runs, before any encoding. The
        kernel then probes row by row."""
        column = right_table.column(self._right_key)
        if self._algorithm is JoinAlgorithm.OJ:
            return memoised_encoding(column, _few_runs)
        return memoised_encoding(column, _few_distinct, second_touch=True)

    def gather(self, matches: JoinMatches) -> Table:
        """The join's output table. Late materialisation: only the
        columns an ancestor reads are gathered through the match
        indices. Matches handed over without their pairs (a group-by
        that counted, then declined) are paired off their slots first."""
        if matches.pairs is None:
            pairs = self._pairs(matches.build, matches.slots, matches.encoded)
            matches = replace(matches, pairs=pairs)
        data = {name: matches.column(name) for name in self._schema.names}
        output = Table.from_arrays(
            data, dtypes={s.name: s.dtype for s in self._schema}
        )
        # Working set: the matches and the gathered output.
        self._note_memory(matches.memory_bytes() + output.memory_bytes())
        return output

    def _materialise(self) -> Table:
        return self.gather(self.matches())

    def describe(self) -> str:
        return (
            f"Join({self._left_key} = {self._right_key}, "
            f"impl={self._algorithm.value})"
        )


def _few_distinct(column: Column) -> bool:
    """At most half of the column's rows are distinct, by its statistics."""
    return column.statistics.distinct * 2 <= len(column)


def _few_runs(column: Column) -> bool:
    """The column is non-decreasing, in at most half as many runs as rows."""
    values = column.values
    return is_nondecreasing(values) and run_count(values) * 2 <= values.size
