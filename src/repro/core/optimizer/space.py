"""The plan space: which candidates one search step has, and what each costs.

Written once, read four times. Three pure generators over one per-search
:class:`PlanSpace` — :func:`access_paths`, :func:`join_candidates`,
:func:`grouping_candidates` — yield priced
:class:`~repro.core.optimizer.pruning.DPEntry` objects whose plan nodes
are built only if someone reads them, and
:func:`option_cost` alone decides whether an option is priced as serial
or parallel-loop, and on which backend. The DP folds the candidates into
Pareto frontiers, the greedy baseline into cheapest-only ones, the
exhaustive oracle composes them without any frontier, and ``EXPLAIN WHY`` prices its rival tables through :func:`option_cost`.
Nothing here inserts, prunes, journals or polls a deadline: that is
search policy and belongs to the readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.core.cost.cardinality import CardinalityEstimator, RelationEstimate
from repro.core.cost.model import CostModel
from repro.core.optimizer.base import (
    OptimizerConfig,
    PropertyScope,
    SearchStats,
)
from repro.core.optimizer.pruning import DPEntry
from repro.core.optimizer.query import JoinEdge, QuerySpec, ScanSpec
from repro.core.optimizer.rules import (
    GroupingOption,
    JoinOption,
    grouping_options,
    join_options,
)
from repro.core.plan import AccessPath, Implementation
from repro.core.properties import (
    Correlations,
    PropertyVector,
    correlations_from_table,
    properties_from_table,
)
from repro.engine.kernels.joins import JoinAlgorithm
from repro.errors import PlanError
from repro.storage.catalog import Catalog
from repro.storage.disk import conjunct_triple, is_disk_table

#: join algorithm -> the Algorithmic View kind whose presence on the build
#: side's (table, column) waives the build-phase cost (§3).
_JOIN_VIEW_KINDS = {
    JoinAlgorithm.HJ: "hash_table",
    JoinAlgorithm.SPHJ: "sph_array",
    JoinAlgorithm.BSJ: "sorted_keys",
    JoinAlgorithm.SOJ: "sorted_projection",
}


def option_cost(
    model: CostModel, option: JoinOption | GroupingOption, workers: int, *sizes: float
) -> float:
    """Local cost of running ``option`` in the mode it names.

    ``sizes`` are the cost model's inputs for the option's family:
    ``(build_rows, probe_rows, groups)`` for a join, ``(rows, groups)``
    for a grouping. The mode and backend are decided here and nowhere
    else, so no two readers can quote different prices for one option.
    """
    if isinstance(option, JoinOption):
        return model.join_cost(option.algorithm, *sizes)
    if not option.parallel:
        return model.grouping_cost(option.algorithm, *sizes)
    return model.parallel_grouping_cost(
        option.algorithm, *sizes, float(workers), option.backend
    )


def base_access_cost(
    cost_model: CostModel, table, predicates=(), alias: str = ""
) -> tuple[float, float]:
    """``(cost, rows_touched)`` of the cheapest base access to ``table``.

    In-memory tables cost a plain scan over every row. Disk-resident
    tables cost :meth:`~repro.core.cost.model.CostModel.disk_scan_cost`
    over the rows the zone maps cannot prune for ``predicates``, with
    the buffer pool's current residency discounting the cold-read term
    and the table's encoding mix pricing the decode (all manifest-only
    facts).
    """
    rows = float(table.num_rows)
    if not is_disk_table(table):
        return cost_model.scan_cost(rows), rows
    estimate = table.estimate_scan(tuple(predicates), alias)
    decode = sum(
        fraction * cost_model.io_decode_weight(encoding)
        for encoding, fraction in table.encoding_mix().items()
    )
    touched = float(estimate.rows_scanned)
    cost = cost_model.disk_scan_cost(touched, table.buffer_residency(), decode)
    return cost, touched


def sorted_entry(
    cost_model: CostModel,
    child: DPEntry,
    keys: tuple[str, ...],
    properties: PropertyVector,
) -> DPEntry:
    """An explicit sort of ``child`` on ``keys`` (enforcer or ORDER BY)."""
    sort_cost = cost_model.sort_cost(child.estimate.rows)
    return DPEntry(
        "sort",
        keys,
        child.cost + sort_cost,
        properties,
        child.estimate,
        children=(child,),
        local_cost=sort_cost,
    )


def _filtered(entry: DPEntry, predicates, estimate: RelationEstimate) -> DPEntry:
    """``entry`` under one free filter per conjunct, producing ``estimate``."""
    for predicate in predicates:
        entry = DPEntry(
            "filter", predicate, entry.cost, entry.properties, estimate, (entry,)
        )
    return entry


def _range_bounds(filters, alias: str, column: str, value_min: int, value_max: int):
    """Inclusive [low, high] bounds on ``alias.column`` implied by conjuncts.

    Returns None when no conjunct constrains the column, or when any
    conjunct on it is not a simple ``column <op> literal`` comparison
    (those shapes an unclustered B-tree cannot serve).
    """
    low, high = value_min, value_max
    constrained = False
    for conjunct in filters:
        if f"{alias}.{column}" not in conjunct.referenced_columns():
            continue
        triple = conjunct_triple(conjunct, alias, (column,))
        if triple is None:
            return None
        op, value = triple[1], int(triple[2])
        if op == "=":
            low, high = max(low, value), min(high, value)
        elif op == ">=":
            low = max(low, value)
        elif op == ">":
            low = max(low, value + 1)
        elif op == "<=":
            high = min(high, value)
        elif op == "<":
            high = min(high, value - 1)
        else:
            return None  # '<>' and friends
        constrained = True
    return (low, high) if constrained else None


@dataclass
class ScanContext:
    """Precomputed per-scan facts the generators consult."""

    spec: ScanSpec
    estimate: RelationEstimate
    properties: PropertyVector
    interesting: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class JoinOrientation:
    """One build/probe assignment of a join edge, with the catalog facts
    every (build, probe) pair joined this way shares."""

    build_scan: int
    probe_scan: int
    build_key: str
    probe_key: str
    #: join algorithms whose build phase a registered Algorithmic View
    #: on the build key's base column has already paid for (§3).
    credited: frozenset[JoinAlgorithm]
    is_foreign_key: bool
    #: the cardinality estimator's ``fk_child_is_right`` for this
    #: orientation (right = probe).
    fk_child_is_right: bool
    #: every join option of the configuration with this orientation's
    #: keys bound — built once per search, shared by every candidate.
    implementations: tuple[Implementation, ...]


class PlanSpace:
    """Everything one search knows about its query: built once from the
    query, the catalog and the configuration, then only read — apart
    from ``stats``, where closures are counted as they happen, and two
    memos that live and die with the search: derived properties per
    distinct derivation input, and join estimates per input pair.
    """

    def __init__(
        self,
        spec: QuerySpec,
        catalog: Catalog,
        cost_model: CostModel,
        config: OptimizerConfig,
        workers: int,
        stats: SearchStats | None = None,
    ) -> None:
        self.spec = spec
        self.catalog = catalog
        self.cost_model = cost_model
        self.config = config
        self.workers = workers
        self.stats = stats if stats is not None else SearchStats()
        self.scope = config.property_scope
        self.estimator = CardinalityEstimator(catalog)
        #: every grouping option of the configuration, key and
        #: aggregates bound (empty without a group-by).
        self.groupings = (
            tuple(
                Implementation(option, (spec.group_key,), spec.aggregates)
                for option in grouping_options(config, workers)
            )
            if spec.group_key is not None
            else ()
        )
        #: qualified columns a dictionary view must never re-encode:
        #: aggregate inputs need values, and a join key's codes would no
        #: longer join with the other side's raw values.
        self.value_columns = {
            aggregate.column
            for aggregate in spec.aggregates
            if aggregate.column is not None
        }.union(*((edge.left_column, edge.right_column) for edge in spec.joins))
        #: base-table distinct count per qualified column (the domain
        #: size of a dense column).
        self.domains: dict[str, float] = {}
        self.correlations = Correlations()
        #: (output order, inputs...) -> derived properties.
        self._derived: dict[tuple, PropertyVector] = {}
        #: (id(build estimate), id(probe estimate), id(orientation)) ->
        #: (build estimate, probe estimate, join estimate, groups); the
        #: inputs are held so that their ids cannot be reused.
        self._join_estimates: dict[tuple[int, int, int], tuple] = {}
        self.scans = [self._scan_context(scan) for scan in spec.scans]
        self._mark_interesting()
        options = join_options(config)
        self.orientations = {
            edge: self._orientations(edge, options) for edge in spec.joins
        }
        #: a sorted-keys view on the group key's base column has already
        #: paid for the build phase of grouping an unjoined scan (§3).
        self.group_key_view = self._group_key_view()

    def resolve(self, qualified: str) -> tuple[str, str]:
        """(table name, raw column name) of a qualified column."""
        scan = self.spec.scans[self.spec.scan_of_column(qualified)]
        return scan.table_name, qualified.split(".", 1)[1]

    def _group_key_view(self) -> bool:
        views, key = self.config.views, self.spec.group_key
        if views is None or key is None:
            return False
        try:
            site = self.resolve(key)
        except PlanError:
            return False  # a hand-built spec whose key names no scan
        return views.has_view("sorted_keys", *site)

    def close(self, properties: PropertyVector) -> PropertyVector:
        """``properties`` closed under the query's correlations and cut
        to what the configuration may see."""
        self.stats.closures += 1
        properties = self.correlations.close_sorted(properties)
        if self.scope is PropertyScope.ORDERS:
            return properties.restrict_to_orders()
        return properties

    def derive_join(
        self,
        option: JoinOption,
        build: PropertyVector,
        probe: PropertyVector,
        side: JoinOrientation,
        rows: float,
    ) -> PropertyVector:
        """``option.derive`` of joining ``build`` with ``probe`` in
        ``side``'s orientation into ``rows`` rows.

        ``derive`` reads nothing of an option but its ``output_order``,
        so each distinct (output order, inputs) is derived once per
        search; only a derivation computed here counts as a closure."""
        key = (option.output_order, build, probe, side.build_key, side.probe_key, rows)
        properties = self._derived.get(key)
        if properties is None:
            self.stats.closures += 1
            properties = self._derived[key] = option.derive(
                build,
                probe,
                side.build_key,
                side.probe_key,
                self.correlations,
                self.scope,
                rows,
                self.domains,
            )
        return properties

    def derive_grouping(
        self, option: GroupingOption, properties: PropertyVector
    ) -> PropertyVector:
        """``option.derive`` of grouping an input with ``properties`` on
        the query's group key, once per (output order, input)."""
        key = (option.output_order, properties)
        derived = self._derived.get(key)
        if derived is None:
            self.stats.closures += 1
            derived = self._derived[key] = option.derive(
                properties, self.spec.group_key, self.correlations, self.scope
            )
        return derived

    def join_estimate(
        self, build: RelationEstimate, probe: RelationEstimate, side: JoinOrientation
    ) -> tuple[RelationEstimate, float]:
        """The estimate of joining ``build`` with ``probe`` in ``side``'s
        orientation, and the distinct keys the join builds/probes over.

        All candidates of one (build, probe) pair share one estimate
        object, so the next step's inputs repeat by identity; the memo is
        keyed by it (estimates are unhashable, and hashing an orientation
        would walk all its implementations)."""
        key = (id(build), id(probe), id(side))
        known = self._join_estimates.get(key)
        if known is None:
            estimate = self.estimator.join(
                build,
                probe,
                side.build_key,
                side.probe_key,
                is_foreign_key=side.is_foreign_key,
                fk_child_is_right=side.fk_child_is_right,
            )
            groups = max(
                min(build.ndv(side.build_key), probe.ndv(side.probe_key)), 1.0
            )
            known = self._join_estimates[key] = (build, probe, estimate, groups)
        return known[2], known[3]

    def _scan_context(self, scan: ScanSpec) -> ScanContext:
        table = self.catalog.table(scan.table_name)
        estimate = self.estimator.base_table(scan.table_name, scan.alias)
        self.domains.update(estimate.distinct)
        properties = properties_from_table(table, scan.alias)
        self.correlations = self.correlations.merged(
            correlations_from_table(table, scan.alias)
        )
        if scan.filters:
            selectivity = self._exact_selectivity(scan)
            rows = max(estimate.rows * selectivity, 0.0)
            estimate = RelationEstimate(
                rows=rows,
                distinct={
                    column: min(ndv, rows)
                    for column, ndv in estimate.distinct.items()
                },
            )
            # Filtering preserves order but punches holes into dense
            # domains (§2.2: density is a DQO property the filter
            # must be assumed to destroy unless it kept everything).
            if selectivity < 1.0:
                properties = PropertyVector(
                    sorted_on=properties.sorted_on,
                    clustered_on=properties.clustered_on,
                    dense=frozenset(),
                )
        return ScanContext(scan, estimate, self.close(properties))

    def _exact_selectivity(self, scan: ScanSpec) -> float:
        """Evaluate the scan's filter conjuncts against the base table.

        Exact selectivities keep estimation error out of the experiments —
        cardinality estimation is not the phenomenon under study.
        """
        base = self.catalog.table(scan.table_name)
        if is_disk_table(base):
            # Segment-by-segment through the buffer pool: bounded memory,
            # zone-map-pruned segments never read — and the same exact
            # number the in-memory path computes, so plans agree.
            return base.exact_selectivity(scan.filters, scan.alias)
        table = base.qualified(scan.alias)
        if table.num_rows == 0:
            return 0.0
        data = {name: table[name] for name in table.schema.names}
        mask = np.ones(table.num_rows, dtype=bool)
        for conjunct in scan.filters:
            mask &= np.asarray(conjunct.evaluate(data), dtype=bool)
        return float(np.count_nonzero(mask)) / table.num_rows

    def _mark_interesting(self) -> None:
        """Interesting columns: join keys + group key + order-by keys."""
        spec, scans = self.spec, self.scans
        for edge in spec.joins:
            scans[edge.left_scan].interesting.append(edge.left_column)
            scans[edge.right_scan].interesting.append(edge.right_column)
        for column in list(spec.order_by) + (
            [spec.group_key] if spec.group_key else []
        ):
            try:
                owner = spec.scan_of_column(column)
            except PlanError:
                continue  # e.g. ORDER BY an aggregate's output alias
            scans[owner].interesting.append(column)

    def _orientations(
        self, edge: JoinEdge, options: tuple[JoinOption, ...]
    ) -> tuple[JoinOrientation, ...]:
        """Syntactic orientation first (the edge's left side builds),
        then the commuted one when the configuration considers it."""
        left = (edge.left_scan, edge.left_column)
        right = (edge.right_scan, edge.right_column)
        sides = [(left, right)]
        if self.config.consider_commutation:
            sides.append((right, left))
        views = self.config.views
        result = []
        for (build_scan, build_key), (probe_scan, probe_key) in sides:
            build_site = self.resolve(build_key)
            probe_site = self.resolve(probe_key)
            fk = self.catalog.foreign_key_between(*build_site, *probe_site)
            result.append(
                JoinOrientation(
                    build_scan,
                    probe_scan,
                    build_key,
                    probe_key,
                    frozenset(
                        algorithm
                        for algorithm, kind in _JOIN_VIEW_KINDS.items()
                        if views is not None
                        and views.has_view(kind, *build_site)
                    ),
                    is_foreign_key=fk is not None,
                    fk_child_is_right=fk is None
                    or (fk.child_table, fk.child_column) == probe_site,
                    implementations=tuple(
                        Implementation(option, (build_key, probe_key))
                        for option in options
                    ),
                )
            )
        return tuple(result)


# -- access paths -------------------------------------------------------------


def access_paths(space: PlanSpace, scan: ScanContext) -> Iterator[DPEntry]:
    """Every way to read one scan: the base (memory or disk) scan under
    its filters, the Algorithmic-View scans that manufacture a property,
    the B-tree range scan, and a sort enforcer per interesting column."""
    base = _base_scan(space, scan)
    yield base
    views = space.config.views
    if views is not None:
        if scan.spec.filters:
            yield from _btree_paths(space, scan, views)
        else:
            yield from _view_paths(space, scan, base, views)
    for column in dict.fromkeys(scan.interesting):
        if not scan.properties.is_sorted_on(column):
            yield order_enforced(space, base, column)


def _base_scan(space: PlanSpace, scan: ScanContext) -> DPEntry:
    spec = scan.spec
    table = space.catalog.table(spec.table_name)
    path = AccessPath(spec.table_name, spec.alias)
    if is_disk_table(table):
        # Out-of-core scan: the filters are also pushed to the scan so
        # zone maps bound what it touches.
        path = replace(path, storage="disk", pushed=tuple(spec.filters))
    cost, rows = base_access_cost(space.cost_model, table, path.pushed, spec.alias)
    entry = DPEntry(
        "scan", path, cost, scan.properties, scan.estimate, rows=rows, local_cost=cost
    )
    return _filtered(entry, spec.filters, scan.estimate)


def _view_paths(
    space: PlanSpace, scan: ScanContext, base: DPEntry, views
) -> Iterator[DPEntry]:
    """Unfiltered scans served from an Algorithmic View (§3).

    AV artifacts are in-memory materialisations (lowering reads the
    artifact, never the segments), so a view's access path names no
    storage; but an AV scan is costed like the ``base`` scan: views
    must stay cost-neutral access paths whose only value is the property
    they manufacture — SQO must not see a cheaper scan where DQO sees a
    property."""
    spec = scan.spec

    def view_scan(kind: str, column: str, properties: PropertyVector) -> DPEntry:
        properties = space.close(properties)
        path = AccessPath(spec.table_name, spec.alias, view=(kind, column))
        return DPEntry(
            "scan",
            path,
            base.cost,
            properties,
            scan.estimate,
            rows=base.rows,
            local_cost=base.local_cost,
        )

    # Sorted-projection views: order for free.
    for column in views.sorted_scan_columns(spec.table_name):
        qualified = f"{spec.alias}.{column}"
        if not scan.properties.is_sorted_on(qualified):
            yield view_scan(
                "sorted_projection", column, scan.properties.with_sorted(qualified)
            )
    # Dictionary views: density for free (§2.1 — the codes of a
    # dictionary-compressed column directly feed SPH). Safe only for the
    # grouping key: codes must neither join against raw values nor feed
    # value aggregates, and the group keys are decoded after the
    # group-by (see core.plan.to_operator).
    for column in views.dense_scan_columns(spec.table_name):
        qualified = f"{spec.alias}.{column}"
        if (
            qualified == space.spec.group_key
            and qualified not in space.value_columns
            and not scan.properties.is_dense(qualified)
        ):
            yield view_scan(
                "dictionary", column, scan.properties.with_dense(qualified)
            )


def _btree_paths(space: PlanSpace, scan: ScanContext, views) -> Iterator[DPEntry]:
    """Unclustered B-tree access path (§1: "unclustered B-tree vs
    scan"): serve a range/equality filter from an index view. Output
    rows arrive in index (value) order: sorted on the column, an
    access-path decision with a property side effect."""
    spec = scan.spec
    base_rows = float(space.catalog.cardinality(spec.table_name))
    for column in views.btree_scan_columns(spec.table_name):
        qualified = f"{spec.alias}.{column}"
        column_stats = space.catalog.column_statistics(spec.table_name, column)
        if column_stats.count == 0:
            continue
        bounds = _range_bounds(
            spec.filters,
            spec.alias,
            column,
            int(column_stats.minimum),
            int(column_stats.maximum),
        )
        if bounds is None:
            continue
        cost = space.cost_model.index_scan_cost(base_rows, scan.estimate.rows)
        properties = space.close(PropertyVector(sorted_on=frozenset([qualified])))
        path = AccessPath(
            spec.table_name, spec.alias, view=("btree", column), index_range=bounds
        )
        entry = DPEntry(
            "scan", path, cost, properties, scan.estimate, local_cost=cost
        )
        yield _filtered(entry, spec.filters, scan.estimate)


def order_enforced(space: PlanSpace, entry: DPEntry, column: str) -> DPEntry:
    """``entry`` under a sort enforcer on ``column``: the one order is
    manufactured, every other order is lost, density survives."""
    properties = space.close(
        PropertyVector(
            sorted_on=frozenset([column]), dense=entry.properties.dense
        )
    )
    return sorted_entry(space.cost_model, entry, (column,), properties)


# -- joins ----------------------------------------------------------------------


def join_candidates(
    space: PlanSpace, build: DPEntry, probe: DPEntry, side: JoinOrientation
) -> Iterator[DPEntry]:
    """Every applicable join implementation of ``build`` with ``probe``
    in one orientation of one edge, each priced in its own mode less a build
    phase an Algorithmic View already paid for."""
    build_key, probe_key = side.build_key, side.probe_key
    estimate, groups = space.join_estimate(build.estimate, probe.estimate, side)
    inputs = (build, probe)
    input_cost = build.cost + probe.cost
    # Output order -> derived properties: the options of one order share
    # one derivation (see ``PlanSpace.derive_join``).
    derived: dict = {}
    for implementation in side.implementations:
        option = implementation.option
        if not option.applicable(
            build.properties, probe.properties, build_key, probe_key, space.scope
        ):
            continue
        cost = option_cost(
            space.cost_model,
            option,
            space.workers,
            build.estimate.rows,
            probe.estimate.rows,
            groups,
        )
        if option.algorithm in side.credited and build.op == "scan":
            cost -= space.cost_model.join_build_cost(
                option.algorithm, build.estimate.rows, 0.0, groups
            )
        order = option.output_order
        properties = derived.get(order)
        if properties is None:
            properties = derived[order] = space.derive_join(
                option, build.properties, probe.properties, side, estimate.rows
            )
        yield DPEntry(
            "join",
            implementation,
            input_cost + cost,
            properties,
            estimate,
            inputs,
            local_cost=cost,
            groups=groups,
        )


# -- grouping -------------------------------------------------------------------


def grouping_inputs(space: PlanSpace, entries: list[DPEntry]) -> list[DPEntry]:
    """What the group-by may consume: every joined entry as it is, then
    each one not yet sorted on the group key under a sort on it."""
    key = space.spec.group_key
    return list(entries) + [
        order_enforced(space, entry, key)
        for entry in entries
        if not entry.properties.is_sorted_on(key)
    ]


def groups_on_build_side(entry, key: str) -> bool:
    """Does a group-by on ``key`` over ``entry`` group a join's build
    input? ``entry`` is a search entry or a plan node; either way, true
    when it is a join whose build input scans ``key``'s relation.

    There the engine assigns the slots over the build rows, serially
    (:class:`repro.engine.operators.grouping.GroupBy`), so no parallel
    grouping option applies: the search never generates one and
    ``EXPLAIN WHY`` shows one as inapplicable."""
    if entry.op != "join":
        return False
    alias = key.partition(".")[0]
    pending = [entry.children[0]]
    while pending:
        node = pending.pop()
        if node.op == "scan" and node.decision.name == alias:
            return True
        pending.extend(node.children)
    return False


def grouping_candidates(space: PlanSpace, entry: DPEntry) -> Iterator[DPEntry]:
    """Every applicable grouping implementation over ``entry``, each
    priced in its own mode less any build phase a view already paid."""
    key = space.spec.group_key
    groups = entry.estimate.ndv(key)
    estimate = space.estimator.group_by(entry.estimate, key)
    credit = space.group_key_view and entry.op in ("scan", "filter")
    serial = groups_on_build_side(entry, key)
    derived: dict = {}
    for implementation in space.groupings:
        option = implementation.option
        if (serial and option.parallel) or not option.applicable(
            entry.properties, key, space.scope
        ):
            continue
        cost = option_cost(
            space.cost_model, option, space.workers, entry.estimate.rows, groups
        )
        if credit:
            cost -= space.cost_model.grouping_build_cost(
                option.algorithm, entry.estimate.rows, groups
            )
        order = option.output_order
        properties = derived.get(order)
        if properties is None:
            properties = derived[order] = space.derive_grouping(
                option, entry.properties
            )
        yield DPEntry(
            "group_by",
            implementation,
            entry.cost + cost,
            properties,
            estimate,
            (entry,),
            local_cost=cost,
            groups=groups,
        )
