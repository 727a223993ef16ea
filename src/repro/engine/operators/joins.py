"""The equi-join physical operator, parameterised by the Table 2 algorithm.

Like :class:`repro.engine.operators.grouping.GroupBy`, this is one operator
class with the implementation family as an explicit parameter. The build
side is the left child, the probe side the right child — fixed sides, as
assumed by the Figure 5 reconstruction (DESIGN.md substitution #5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection

import numpy as np

from repro._util.arrays import runs_of
from repro.engine.kernels.joins import (
    BuildSide,
    JoinAlgorithm,
    JoinOutputOrder,
    JoinResult,
    build_side,
    join,
    matches_through_codes,
)
from repro.service.context import check_active_context
from repro.engine.operators.base import (
    DEFAULT_CHUNK_SIZE,
    MaterialisedOperator,
    PhysicalOperator,
    kept_columns,
    memoised,
)
from repro.errors import ExecutionError
from repro.indexes.perfect_hash import MIN_DENSITY
from repro.storage.dictionary import DictionaryEncoded, dictionary_encode
from repro.storage.schema import Schema
from repro.storage.table import Table


@dataclass(frozen=True)
class JoinMatches:
    """A join before its gather: both inputs and the matching pairs."""

    left: Table
    right: Table
    pairs: JoinResult

    @property
    def num_rows(self) -> int:
        """Rows of the join's output."""
        return self.pairs.num_rows

    def column(self, name: str) -> np.ndarray:
        """Input column ``name`` read through the match indices of its
        side: one value per output row."""
        if name in self.left.schema:
            return self.left[name][self.pairs.left_indices]
        return self.right[name][self.pairs.right_indices]

    def memory_bytes(self) -> int:
        """Bytes of both inputs plus the pairs and the build structure."""
        return (
            self.left.memory_bytes()
            + self.right.memory_bytes()
            + self.pairs.memory_bytes()
        )


class Join(MaterialisedOperator):
    """Inner equi-join: ``left.left_key = right.right_key``.

    Output schema is the concatenation of both input schemas (narrowed to
    ``columns`` when given); the caller must pre-qualify ambiguous column
    names (see :meth:`Table.qualified`).

    What depends on one base column alone is memoised on it (DESIGN.md
    "Build structures are facts about a column"): the build side over
    the left key, OJ's probe run starts, and the dictionary of the right
    key HJ and BSJ probe by from the column's second probe on. With it,
    each distinct probe key is looked up once, on whichever route the
    join takes, and the rows take their key's matches through the codes;
    the pairs are the row-by-row probe's, in its order.

    :param columns: the columns an ancestor reads. Only those are
        gathered through the match indices; ``None`` (default) gathers
        every column of both inputs. Names the inputs do not have are
        ignored, and a relation always keeps at least one column (it
        carries the row count).

    Every join runs the serial kernel on the calling thread, whatever
    the worker count: parallel work belongs to the grouping above it.
    """

    HAND_OVERS = ("to_table", "matches")

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
        algorithm: JoinAlgorithm = JoinAlgorithm.HJ,
        num_distinct_hint: int | None = None,
        validate: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
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
        self._num_distinct_hint = num_distinct_hint
        self._validate = validate
        self._chunk_size = chunk_size
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

    def matches(self) -> JoinMatches:
        """Everything the join computes before it gathers: both
        materialised inputs and the matching index pairs. A parent that
        reads the inputs through the pairs itself (a group-by on a
        build-side key) takes these instead of :meth:`to_table`."""
        left_table = self.children[0].to_table()
        right_table = self.children[1].to_table()
        check_active_context()
        build_keys = left_table[self._left_key]
        probe_keys = right_table[self._right_key]
        build = (
            self._build_side(left_table)
            if build_keys.size and probe_keys.size
            else None
        )
        dictionary = None if build is None else self._probe_dictionary(right_table)
        if dictionary is not None:
            # Look each distinct probe key up once; the rows follow below.
            probe_keys = dictionary.dictionary
        result = join(
            build_keys,
            probe_keys,
            self._algorithm,
            num_distinct_hint=self._num_distinct_hint,
            validate=self._validate,
            build=build,
            run_starts=None if build is None else self._run_starts(right_table),
        )
        if dictionary is not None:
            result = matches_through_codes(
                result,
                dictionary.codes,
                dictionary.cardinality,
                distinct=build.offsets is None,
            )
        matches = JoinMatches(left_table, right_table, result)
        # Working set: both materialised inputs, the kernel's build-side
        # structure plus match-index arrays.
        self._note_memory(matches.memory_bytes())
        return matches

    def _build_side(self, left_table: Table) -> BuildSide | None:
        """The build side over the left key column, erected on its first
        use and memoised on the column: an unchanged base column's is
        reused by every later query. None for SOJ, which sorts both
        inputs instead."""
        if self._algorithm is JoinAlgorithm.SOJ:
            return None
        column = left_table.column(self._left_key)
        options = (self._num_distinct_hint, "murmur3", MIN_DENSITY)
        return memoised(
            column,
            "build_side",
            (self._algorithm, *options),
            lambda: build_side(
                np.ascontiguousarray(column.values, dtype=np.int64),
                self._algorithm,
                *options,
            ),
        )

    def _run_starts(self, right_table: Table) -> np.ndarray | None:
        """Where each run of equal right keys starts (OJ looks each run up
        once), found on their first use and memoised on the column like
        the build side. None for every other algorithm."""
        if self._algorithm is not JoinAlgorithm.OJ:
            return None
        column = right_table.column(self._right_key)
        # Stored in the narrowest type that indexes the column (uint32
        # below 2**32 rows): the memo outlives the query.
        index_type = np.min_scalar_type(column.values.size)
        return memoised(
            column, "runs", (), lambda: runs_of(column.values)[0].astype(index_type)
        )

    def _probe_dictionary(self, right_table: Table) -> DictionaryEncoded | None:
        """The probe key column's sorted distinct values and each row's
        code, memoised on the column from its second probe on. HJ and
        BSJ then look each distinct key up once instead of once per row.
        None on a column's first probe, for a column with more than half
        as many distinct values as rows (declined on its statistics,
        never encoded), and for every other algorithm: SPHJ's lookup is a
        gather already, and OJ looks its runs up."""
        if self._algorithm not in (JoinAlgorithm.HJ, JoinAlgorithm.BSJ):
            return None
        column = right_table.column(self._right_key)

        def encode() -> DictionaryEncoded | None:
            if column.statistics.distinct * 2 > len(column):
                return None
            encoded = dictionary_encode(column.values)
            # The memo outlives the query: codes in the narrowest type
            # that holds them (uint16 below 65 536 distinct keys).
            code_type = np.min_scalar_type(encoded.cardinality)
            return replace(encoded, codes=encoded.codes.astype(code_type))

        return memoised(column, "dictionary", (), encode, second_touch=True)

    def gather(self, matches: JoinMatches) -> Table:
        """The join's output table. Late materialisation: only the
        columns an ancestor reads are gathered through the match
        indices."""
        data = {name: matches.column(name) for name in self._schema.names}
        return Table.from_arrays(
            data, dtypes={s.name: s.dtype for s in self._schema}
        )

    def _materialise(self) -> Table:
        matches = self.matches()
        output = self.gather(matches)
        # Working set: the matches and the gathered output.
        self._note_memory(matches.memory_bytes() + output.memory_bytes())
        return output

    def describe(self) -> str:
        return (
            f"Join({self._left_key} = {self._right_key}, "
            f"impl={self._algorithm.value})"
        )
