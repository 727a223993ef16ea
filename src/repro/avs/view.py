"""Algorithmic Views (§3).

An Algorithmic View is a *precomputed granule*: not a precomputed query
result (that is a materialised view) but a precomputed piece of an
algorithm — a hash table already built, a perfect-hash array already laid
out, a sorted key directory, a sorted projection. §3: *"AVs can be
precomputed for any level, not only 'physical' operators. Like that AVs
can be used as building blocks for DQO at query time."*

Six concrete kinds are materialisable here, one per substrate; the
:class:`~repro.core.granularity.Granularity` tag records which Table 1
level the precomputed granule lives at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.granularity import Granularity
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm
from repro.engine.operators.joins import memoised_build_side, memoised_encoding
from repro.errors import PreconditionError, ViewError
from repro.indexes.perfect_hash import StaticPerfectHash
from repro.storage.catalog import Catalog
from repro.storage.dictionary import DictionaryEncoded, code_column
from repro.storage.table import Table


class ViewKind(enum.Enum):
    """The materialisable Algorithmic View kinds."""

    #: HJ's build side (a hash table) over a column — waives HJ's build
    #: phase.
    HASH_TABLE = "hash_table"
    #: SPHJ's build side (a static-perfect-hash array) — waives SPHJ's
    #: build phase (dense only).
    SPH_ARRAY = "sph_array"
    #: BSJ's build side (the sorted distinct keys) — waives BSJ's build
    #: phase, and the DP also credits BSG's directory build with it.
    SORTED_KEYS = "sorted_keys"
    #: a sorted copy of the table — order for free (an "index view").
    SORTED_PROJECTION = "sorted_projection"
    #: a dictionary-encoded copy of the table: the column's values become
    #: dense codes 0..NDV-1, making SPH applicable on a sparse domain —
    #: §2.1's "the keys of a dictionary-compressed column are a natural
    #: candidate for [SPH] and can directly be used".
    DICTIONARY = "dictionary"
    #: an unclustered index from column values to row positions — §1's
    #: access-path alternative ("unclustered B-tree vs scan"). It is the
    #: column's sorted permutation: BSJ's build side, the same entry a
    #: ``SORTED_KEYS`` view or a BSJ join over the column reads.
    BTREE = "btree"


#: Table 1 level of the granule each kind precomputes.
VIEW_GRANULARITY: dict[ViewKind, Granularity] = {
    ViewKind.HASH_TABLE: Granularity.MACROMOLECULE,
    ViewKind.SPH_ARRAY: Granularity.MACROMOLECULE,
    ViewKind.SORTED_KEYS: Granularity.MACROMOLECULE,
    ViewKind.SORTED_PROJECTION: Granularity.ORGANELLE,
    ViewKind.DICTIONARY: Granularity.MACROMOLECULE,
    ViewKind.BTREE: Granularity.MACROMOLECULE,
}

#: The join whose build side each join-level kind precomputes: the
#: view's artifact is that join's memoised ``build_side`` entry on the
#: column, so the join reads it on its first run.
VIEW_JOIN: dict[ViewKind, JoinAlgorithm] = {
    ViewKind.HASH_TABLE: JoinAlgorithm.HJ,
    ViewKind.SPH_ARRAY: JoinAlgorithm.SPHJ,
    ViewKind.SORTED_KEYS: JoinAlgorithm.BSJ,
}

#: The join whose memoised build side each kind's artifact is: the
#: join-level kinds, and ``BTREE``, whose range scan reads BSJ's. A
#: ``BTREE`` view is not in :data:`VIEW_JOIN`: it credits no join build.
VIEW_BUILD_SIDE: dict[ViewKind, JoinAlgorithm] = {
    **VIEW_JOIN,
    ViewKind.BTREE: JoinAlgorithm.BSJ,
}


@dataclass(frozen=True)
class AlgorithmicView:
    """One materialised Algorithmic View."""

    kind: ViewKind
    table_name: str
    column: str
    #: offline construction cost in cost-model units (the AVSP budget
    #: currency).
    build_cost: float
    #: the actual precomputed structure; None for cost-only (planning)
    #: views used by the abstract AVSP evaluation.
    artifact: object = None

    @property
    def granularity(self) -> Granularity:
        """Which Table 1 level this view precomputes."""
        return VIEW_GRANULARITY[self.kind]

    @property
    def key(self) -> tuple[str, str, str]:
        """Registry key: (kind value, table, column)."""
        return (self.kind.value, self.table_name, self.column)

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"AV[{self.kind.value}]({self.table_name}.{self.column}) "
            f"level={self.granularity.name} build_cost={self.build_cost:,.0f}"
        )


def build_cost_of(
    kind: ViewKind,
    rows: float,
    num_distinct: float,
    cost_model: CostModel | None = None,
) -> float:
    """Offline construction cost of a view kind, per the cost model's
    build-phase accounting."""
    cost_model = cost_model or PaperCostModel()
    if kind in VIEW_JOIN:
        return cost_model.join_build_cost(VIEW_JOIN[kind], rows, 0.0, num_distinct)
    if kind is ViewKind.SORTED_PROJECTION:
        return cost_model.sort_cost(rows)
    if kind in (ViewKind.DICTIONARY, ViewKind.BTREE):
        # A sort plus one pass: the dictionary's encoding pass. A btree
        # view is one stable sort (BSJ's build side); its price is kept
        # so that no AVSP selection moves with the structure.
        return cost_model.sort_cost(rows) + rows
    raise ViewError(f"unknown view kind {kind!r}")


def declare_view(
    catalog: Catalog,
    kind: ViewKind,
    table_name: str,
    column: str,
    cost_model: CostModel | None = None,
) -> AlgorithmicView:
    """The view of ``kind`` over ``table_name.column`` with its build cost
    and no artifact: all an optimiser plans with, decided from the
    column's type and statistics, so a hypothetical view erects nothing.

    :raises ViewError: for a non-integer column under a kind whose
        artifact is a build side (int64 keys, :data:`VIEW_BUILD_SIDE`);
        for an SPH view over a sparse domain (§2.1's precondition).
    """
    table = catalog.table(table_name)
    base = table.column(column)
    stats = base.statistics
    if kind in VIEW_BUILD_SIDE and not base.dtype.is_integer:
        raise _refusal(
            kind, table_name, column, f"its keys are integers, not {base.dtype.value}"
        )
    if kind is ViewKind.SPH_ARRAY and stats.count:
        try:
            StaticPerfectHash(int(stats.minimum), int(stats.maximum), stats.distinct)
        except PreconditionError as error:
            raise _refusal(kind, table_name, column, error) from error
    return AlgorithmicView(
        kind=kind,
        table_name=table_name,
        column=column,
        build_cost=build_cost_of(kind, table.num_rows, stats.distinct, cost_model),
    )


def materialize_view(
    catalog: Catalog,
    kind: ViewKind,
    table_name: str,
    column: str,
    cost_model: CostModel | None = None,
) -> AlgorithmicView:
    """Actually build a :func:`declare_view`'s artifact from catalog data.

    A :data:`VIEW_BUILD_SIDE` kind's artifact is that join's build side,
    memoised on the base column: a join through it erects nothing, and
    a ``BTREE`` and a ``SORTED_KEYS`` view share one object. A later
    build under another algorithm replaces the column's entry (the view
    keeps its artifact).

    :raises ViewError: what :func:`declare_view` refuses; an SPH view
        over an empty column.
    """
    view = declare_view(catalog, kind, table_name, column, cost_model)
    table = catalog.table(table_name)
    if kind in VIEW_BUILD_SIDE:
        try:
            artifact: object = memoised_build_side(
                table.column(column), VIEW_BUILD_SIDE[kind]
            )
        except PreconditionError as error:
            raise _refusal(kind, table_name, column, error) from error
    elif kind is ViewKind.SORTED_PROJECTION:
        artifact = table.sort_by([column])
    else:
        artifact = DictionaryViewArtifact.build(table, column)
    return replace(view, artifact=artifact)


def _refusal(kind: ViewKind, table_name: str, column: str, reason) -> ViewError:
    return ViewError(
        f"cannot materialise {kind.name} view on {table_name}.{column}: {reason}"
    )


@dataclass(frozen=True)
class DictionaryViewArtifact:
    """A dictionary view's payload: the re-encoded table plus the codec.

    ``encoded_table`` is the source table with ``column`` replaced by its
    dense, order-preserving dictionary codes; ``encoding`` maps codes back
    to original values (used by the decode step the optimiser plants
    after a group-by over the encoded column). The encoding is the
    column's memoised ``encoding`` entry (:func:`memoised_encoding`), the
    object a join's probe or a build-side group-by over it reads.
    """

    column: str
    encoded_table: Table
    encoding: DictionaryEncoded

    @classmethod
    def build(cls, table: Table, column: str) -> "DictionaryViewArtifact":
        """Encode ``table``'s ``column`` and assemble the artifact."""
        source = table.column(column)
        encoding = memoised_encoding(source)
        codes = code_column(source, encoding)
        replaced = [
            codes if existing.name == column else existing
            for existing in table.columns()
        ]
        return cls(
            column=column, encoded_table=Table(replaced), encoding=encoding
        )
