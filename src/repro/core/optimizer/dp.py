"""Property-vector dynamic programming — the unified SQO/DQO optimiser.

The DP is the classical join-order DPsub enriched exactly as §2.2
prescribes: per plan class (subset of scans, and finally the group-by
stage), a *Pareto frontier* of (cost, property-vector) entries is kept
instead of one best plan, because a more expensive subplan with stronger
properties (sorted! dense!) can win globally. §4.3's experiment is this
machinery with two configurations (see :mod:`repro.core.optimizer.base`).

Supported query class: conjunctive equi-join queries over base tables
with single-table filters, at most one group-by (on top), and trailing
project / order-by / limit — a superset of the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from repro.core.cost.cardinality import CardinalityEstimator, RelationEstimate
from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    PropertyScope,
    SearchStats,
    dqo_config,
)
from repro.core.optimizer.plancache import (
    PlanCache,
    get_plan_cache,
    spec_fingerprint,
)
from repro.core.optimizer.pruning import DPEntry, pareto_insert
from repro.core.optimizer.query import QuerySpec, ScanSpec, extract_query
from repro.core.optimizer.rules import (
    GroupingOption,
    JoinOption,
    grouping_options,
    join_options,
)
from repro.core.plan import PhysicalNode, plan_decisions, plan_fingerprint
from repro.core.properties import (
    Correlations,
    PropertyVector,
    correlations_from_table,
    properties_from_table,
)
from repro.engine.kernels.joins import JoinAlgorithm
from repro.engine.parallel import get_executor_config
from repro.errors import OptimizationError
from repro.service.context import check_active_context, get_active_context
from repro.obs.querylog import get_query_log
from repro.obs.runtime import get_metrics, get_tracer
from repro.obs.search.trace import get_search_trace
from repro.logical.algebra import LogicalPlan
from repro.storage.catalog import Catalog
from repro.storage.disk import is_disk_table

#: join algorithm -> the Algorithmic View kind whose presence on the build
#: side's (table, column) waives the build-phase cost (§3).
_JOIN_VIEW_KINDS = {
    JoinAlgorithm.HJ: "hash_table",
    JoinAlgorithm.SPHJ: "sph_array",
    JoinAlgorithm.BSJ: "sorted_keys",
    JoinAlgorithm.SOJ: "sorted_projection",
}


def _range_bounds(filters, column: str, value_min: int, value_max: int):
    """Inclusive [low, high] bounds on ``column`` implied by conjuncts.

    Returns None when no conjunct constrains the column, or when any
    conjunct on it is not a simple ``column <op> literal`` comparison
    (those shapes an unclustered B-tree cannot serve).
    """
    from repro.engine.expressions import BinaryOp, ColumnRef, Literal

    low, high = value_min, value_max
    constrained = False
    for conjunct in filters:
        if column not in conjunct.referenced_columns():
            continue
        if not isinstance(conjunct, BinaryOp):
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            # Normalise to column-on-the-left.
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not (
            isinstance(left, ColumnRef)
            and left.name == column
            and isinstance(right, Literal)
        ):
            return None
        value = int(right.value)
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


def base_access_cost(
    cost_model: CostModel, table, predicates=(), alias: str = ""
) -> tuple[float, float]:
    """``(cost, rows_touched)`` of the cheapest base access to ``table``.

    In-memory tables cost a plain scan over every row. Disk-resident
    tables cost :meth:`~repro.core.cost.model.CostModel.disk_scan_cost`
    over the rows the zone maps cannot prune for ``predicates``, with
    the buffer pool's current residency discounting the cold-read term
    and the table's encoding mix pricing the decode. Shared by the DP
    and the exhaustive oracle so both cost the identical access path.
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


@dataclass
class _ScanContext:
    """Precomputed per-scan facts the DP consults."""

    spec: ScanSpec
    estimate: RelationEstimate
    properties: PropertyVector
    columns: list[str]
    interesting: list[str] = field(default_factory=list)
    #: qualified join-key columns owned by this scan (a dictionary view
    #: must never re-encode one: codes would no longer join with the
    #: other side's raw values).
    join_keys: set[str] = field(default_factory=set)
    #: the query's group key, when this scan owns it.
    group_key: str = ""


class DynamicProgrammingOptimizer:
    """The unified optimiser; configuration selects SQO vs DQO behaviour."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel | None = None,
        config: OptimizerConfig | None = None,
        plan_cache: PlanCache | None = None,
        trace=None,
    ) -> None:
        self._catalog = catalog
        self._cost_model = cost_model or PaperCostModel()
        self._config = config or dqo_config()
        self._estimator = CardinalityEstimator(catalog)
        self._stats = SearchStats()  # rebound per optimize_spec() call
        #: base-table distinct count per qualified column (the domain size
        #: of a dense column); rebuilt per optimize_spec() call.
        self._domains: dict[str, float] = {}
        self._plan_cache = plan_cache
        self._workers = 1  # rebound per optimize_spec() call
        #: pinned :class:`repro.obs.search.SearchTrace`; None falls back
        #: to the process-wide handle at each optimise call.
        self._trace_arg = trace
        self._trace = None  # the resolved trace, rebound per call
        self._trace_cls = ""  # current DP class label for trace events

    @property
    def config(self) -> OptimizerConfig:
        """The active configuration."""
        return self._config

    def _insert(
        self, entries: list[DPEntry], candidate: DPEntry, stats: SearchStats
    ) -> list[DPEntry]:
        """Frontier insertion policy; subclasses may override (the greedy
        baseline keeps only the cheapest entry)."""
        return pareto_insert(
            entries,
            candidate,
            stats,
            self._config.prune_dominated,
            trace=self._trace,
            cls=self._trace_cls,
        )

    def optimize(self, plan: LogicalPlan) -> OptimizationResult:
        """Optimise a logical plan into an annotated physical plan."""
        return self.optimize_spec(extract_query(plan))

    def optimize_spec(self, spec: QuerySpec) -> OptimizationResult:
        """Optimise a pre-extracted :class:`QuerySpec`.

        The configuration's worker count (``config.workers``; ``None``
        resolves the ambient
        :func:`repro.engine.parallel.get_executor_config`) scopes the
        implementation space: with more than one worker the deep
        enumeration includes the lattice's parallel-loop recipes, costed
        against their serial siblings. When a plan cache is attached
        (constructor argument, else the process-wide
        :func:`~repro.core.optimizer.plancache.get_plan_cache`), a
        fingerprint match on an unchanged catalog returns the memoised
        plan without any enumeration (``result.cached`` is True and the
        search stats stay zero).
        """
        self._workers = max(
            self._config.workers
            if self._config.workers is not None
            else get_executor_config().workers,
            1,
        )
        trace = (
            self._trace_arg
            if self._trace_arg is not None
            else get_search_trace()
        )
        if trace is not None and not trace.enabled:
            trace = None
        self._trace = trace
        self._trace_cls = ""
        spec_fp = spec_fingerprint(spec)
        cache = self._plan_cache if self._plan_cache is not None else get_plan_cache()
        cache_key: tuple | None = None
        if cache is not None:
            cache_key = cache.key_for(
                spec, self._catalog, self._config, self._cost_model, self._workers
            )
            hit = cache.get(cache_key)
            if hit is not None:
                query_log = get_query_log()
                if query_log is not None:
                    # Cached rows carry the cached plan's hash too, so a
                    # plan flip stays attributable even when every
                    # repetition resolves from the cache.
                    query_log.append(
                        {
                            "kind": "optimize",
                            "cached": True,
                            "cost": hit.cost,
                            "estimated_rows": hit.estimated_rows,
                            "scans": len(spec.scans),
                            "deep": self._config.is_deep,
                            "workers": self._workers,
                            "backend": self._config.backend,
                            "plan_hash": hit.plan_fingerprint,
                            "spec_fingerprint": hit.spec_fingerprint
                            or spec_fp,
                            "catalog_version": self._catalog.version,
                        }
                    )
                return hit
        stats = SearchStats()
        self._stats = stats
        if trace is not None:
            trace.begin(
                spec_fp,
                scans=len(spec.scans),
                deep=self._config.is_deep,
                workers=self._workers,
                catalog_version=self._catalog.version,
            )
        tracer = get_tracer()
        self._aggregate_columns = {
            aggregate.column
            for aggregate in spec.aggregates
            if aggregate.column is not None
        }
        active = get_active_context()
        span_tags = {"scans": len(spec.scans), "deep": self._config.is_deep}
        if active is not None:
            span_tags["trace_id"] = active.trace_id
            span_tags["query_id"] = active.query_id
        with tracer.span("optimizer.optimize", **span_tags):
            contexts, correlations = self._prepare_contexts(spec)
            with tracer.span("optimizer.join_dp"):
                frontier = self._join_dp(spec, contexts, correlations, stats)
            with tracer.span("optimizer.grouping"):
                finals = self._apply_grouping(
                    spec, frontier, correlations, stats
                )
                finals = [
                    self._apply_decoration(spec, entry, stats)
                    for entry in finals
                ]
        if not finals:
            raise OptimizationError("no applicable plan found")
        finals.sort(key=lambda entry: entry.cost)
        stats.retained += len(finals)
        self._report_metrics(stats, traced=trace is not None)
        best = finals[0]
        plan_hash = plan_fingerprint(best.plan)
        trace_stamp = None
        if trace is not None:
            # Journal the complete decorated plans, best-first: rank 0 is
            # the verdict, so a replay can reconstruct it exactly.
            for rank, entry in enumerate(finals[:8]):
                trace.finalist(
                    rank,
                    entry,
                    plan_hash if rank == 0 else plan_fingerprint(entry.plan),
                )
            trace_stamp = trace.finish(plan_hash, best.cost, stats.as_dict())
        query_log = get_query_log()
        if query_log is not None:
            row = {
                "kind": "optimize",
                "plan": best.plan.explain(),
                "cost": best.cost,
                "estimated_rows": best.plan.rows,
                "scans": len(spec.scans),
                "deep": self._config.is_deep,
                "workers": self._workers,
                "backend": self._config.backend,
                "plan_hash": plan_hash,
                "spec_fingerprint": spec_fp,
                "catalog_version": self._catalog.version,
                "search": stats.as_dict(),
                "decisions": plan_decisions(best.plan),
            }
            if trace_stamp is not None:
                row["search_trace"] = trace_stamp
            query_log.append(row)
        result = OptimizationResult(
            plan=best.plan,
            cost=best.cost,
            config=self._config,
            estimated_rows=best.plan.rows,
            stats=stats,
            alternatives=[entry.plan for entry in finals[1:6]],
            plan_fingerprint=plan_hash,
            spec_fingerprint=spec_fp,
            search_trace=trace_stamp,
        )
        if cache is not None and cache_key is not None:
            cache.put(cache_key, result)
        return result

    @staticmethod
    def _report_metrics(stats: SearchStats, traced: bool = False) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.counter("optimizer.optimizations", exist_ok=True).inc()
        metrics.counter("optimizer.candidates_generated", exist_ok=True).inc(
            stats.generated
        )
        metrics.counter("optimizer.pruned_dominated", exist_ok=True).inc(
            stats.pruned_dominated
        )
        metrics.counter("optimizer.closures", exist_ok=True).inc(
            stats.closures
        )
        # Search-observatory telemetry (PR 8): frontier-churn detail and
        # how many searches ran with a decision trace attached.
        metrics.counter("optimizer.search.displaced", exist_ok=True).inc(
            stats.displaced
        )
        metrics.counter("optimizer.search.truncated", exist_ok=True).inc(
            stats.truncated
        )
        metrics.counter("optimizer.search.retained", exist_ok=True).inc(
            stats.retained
        )
        if traced:
            metrics.counter("optimizer.search.traced", exist_ok=True).inc()

    # -- preparation ---------------------------------------------------------

    def _prepare_contexts(
        self, spec: QuerySpec
    ) -> tuple[list[_ScanContext], Correlations]:
        correlations = Correlations()
        contexts: list[_ScanContext] = []
        self._domains = {}
        for scan in spec.scans:
            table = self._catalog.table(scan.table_name)
            estimate = self._estimator.base_table(scan.table_name, scan.alias)
            self._domains.update(estimate.distinct)
            properties = properties_from_table(table, scan.alias)
            correlations = correlations.merged(
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
            if self._config.property_scope is PropertyScope.ORDERS:
                properties = properties.restrict_to_orders()
            self._stats.closures += 1
            properties = correlations.close_sorted(properties)
            contexts.append(
                _ScanContext(
                    spec=scan,
                    estimate=estimate,
                    properties=properties,
                    columns=[
                        f"{scan.alias}.{name}" for name in table.schema.names
                    ],
                )
            )
        # Interesting columns: join keys + group key + order-by keys.
        for edge in spec.joins:
            contexts[edge.left_scan].interesting.append(edge.left_column)
            contexts[edge.right_scan].interesting.append(edge.right_column)
            contexts[edge.left_scan].join_keys.add(edge.left_column)
            contexts[edge.right_scan].join_keys.add(edge.right_column)
        for column in list(spec.order_by) + (
            [spec.group_key] if spec.group_key else []
        ):
            try:
                owner = spec.scan_of_column(column)
            except Exception:
                continue
            contexts[owner].interesting.append(column)
            if column == spec.group_key:
                contexts[owner].group_key = column
        return contexts, correlations

    def _exact_selectivity(self, scan: ScanSpec) -> float:
        """Evaluate the scan's filter conjuncts against the base table.

        Exact selectivities keep estimation error out of the experiments —
        cardinality estimation is not the phenomenon under study.
        """
        base = self._catalog.table(scan.table_name)
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

    # -- base entries ---------------------------------------------------------

    def _base_entries(
        self, context: _ScanContext, stats: SearchStats
    ) -> list[DPEntry]:
        scan = context.spec
        if self._trace is not None:
            self._trace_cls = f"scan:{scan.alias}"
        base_rows = float(self._catalog.cardinality(scan.table_name))
        memory_cost = self._cost_model.scan_cost(base_rows)
        table = self._catalog.table(scan.table_name)
        storage = ""
        pushed: tuple = ()
        scan_rows = base_rows
        scan_cost = memory_cost
        if is_disk_table(table):
            # Out-of-core scan: zone maps bound what the scan touches,
            # residency discounts the cold-read weight, and the table's
            # encoding mix prices the decode (all manifest-only facts).
            storage = "disk"
            pushed = tuple(scan.filters)
            scan_cost, scan_rows = base_access_cost(
                self._cost_model, table, pushed, scan.alias
            )
        node = PhysicalNode(
            op="scan",
            table_name=scan.table_name,
            alias=scan.alias,
            scan_storage=storage,
            scan_predicates=pushed,
            rows=scan_rows,
            local_cost=scan_cost,
            cost=scan_cost,
            properties=context.properties,
        )
        for predicate in scan.filters:
            node = PhysicalNode(
                op="filter",
                children=(node,),
                predicate=predicate,
                rows=context.estimate.rows,
                local_cost=0.0,
                cost=node.cost,
                properties=context.properties,
            )
        entries: list[DPEntry] = []
        entries = self._insert(
            entries,
            DPEntry(node, node.cost, context.properties, context.estimate),
            stats,
        )
        # Algorithmic sorted-projection views: order for free (§3).
        views = self._config.views
        if views is not None and not scan.filters:
            av_node = node
            if storage:
                # AV artifacts are in-memory materialisations (lowering
                # reads the artifact, never the segments), but an AV
                # scan is costed like the base scan: views must stay
                # cost-neutral access paths whose only value is the
                # property they manufacture — SQO must not see a
                # cheaper scan where DQO sees a property.
                av_node = replace(node, scan_storage="", scan_predicates=())
            for column in views.sorted_scan_columns(scan.table_name):
                qualified = f"{scan.alias}.{column}"
                if context.properties.is_sorted_on(qualified):
                    continue
                properties = self._close(
                    context.properties.with_sorted(qualified)
                )
                entries = self._insert(
                    entries,
                    DPEntry(
                        replace(
                            av_node,
                            properties=properties,
                            scan_view=("sorted_projection", column),
                        ),
                        av_node.cost,
                        properties,
                        context.estimate,
                    ),
                    stats,
                )
            # Dictionary views: density for free (§2.1 — the codes of a
            # dictionary-compressed column directly feed SPH). Safe only
            # for the grouping key: codes must neither join against raw
            # values nor feed value aggregates, and the group keys are
            # decoded after the group-by (see core.plan.to_operator).
            for column in views.dense_scan_columns(scan.table_name):
                qualified = f"{scan.alias}.{column}"
                if (
                    qualified != context.group_key
                    or qualified in context.join_keys
                    or qualified in self._aggregate_columns
                    or context.properties.is_dense(qualified)
                ):
                    continue
                properties = self._close(
                    context.properties.with_dense(qualified)
                )
                entries = self._insert(
                    entries,
                    DPEntry(
                        replace(
                            av_node,
                            properties=properties,
                            scan_view=("dictionary", column),
                        ),
                        av_node.cost,
                        properties,
                        context.estimate,
                    ),
                    stats,
                )
        # Unclustered B-tree access path (§1: "unclustered B-tree vs
        # scan"): serve a range/equality filter from an index view.
        # Output rows arrive in index (value) order: sorted on the
        # column, an access-path decision with a property side effect.
        if views is not None and scan.filters:
            base_rows = float(self._catalog.cardinality(scan.table_name))
            for column in views.btree_scan_columns(scan.table_name):
                qualified = f"{scan.alias}.{column}"
                column_stats = self._catalog.column_statistics(
                    scan.table_name, column
                )
                if column_stats.count == 0:
                    continue
                bounds = _range_bounds(
                    scan.filters,
                    qualified,
                    int(column_stats.minimum),
                    int(column_stats.maximum),
                )
                if bounds is None:
                    continue
                cost = self._cost_model.index_scan_cost(
                    base_rows, context.estimate.rows
                )
                properties = self._close(
                    PropertyVector(sorted_on=frozenset([qualified]))
                )
                index_node = PhysicalNode(
                    op="scan",
                    table_name=scan.table_name,
                    alias=scan.alias,
                    scan_view=("btree", column),
                    index_range=bounds,
                    rows=context.estimate.rows,
                    local_cost=cost,
                    cost=cost,
                    properties=properties,
                )
                wrapped = index_node
                for predicate in scan.filters:
                    wrapped = PhysicalNode(
                        op="filter",
                        children=(wrapped,),
                        predicate=predicate,
                        rows=context.estimate.rows,
                        cost=cost,
                        properties=properties,
                    )
                entries = self._insert(
                    entries,
                    DPEntry(wrapped, cost, properties, context.estimate),
                    stats,
                )
        # Sort enforcers on interesting columns.
        if self._config.consider_enforcers:
            for column in dict.fromkeys(context.interesting):
                if context.properties.is_sorted_on(column):
                    continue
                sort_cost = self._cost_model.sort_cost(context.estimate.rows)
                properties = self._close(
                    PropertyVector(
                        sorted_on=frozenset([column]),
                        dense=context.properties.dense,
                    )
                )
                sorted_node = PhysicalNode(
                    op="sort",
                    children=(node,),
                    sort_keys=(column,),
                    rows=context.estimate.rows,
                    local_cost=sort_cost,
                    cost=node.cost + sort_cost,
                    properties=properties,
                )
                entries = self._insert(
                    entries,
                    DPEntry(
                        sorted_node,
                        sorted_node.cost,
                        properties,
                        context.estimate,
                    ),
                    stats,
                )
        return entries

    def _close(self, properties: PropertyVector) -> PropertyVector:
        self._stats.closures += 1
        properties = self._correlations_cache.close_sorted(properties)
        if self._config.property_scope is PropertyScope.ORDERS:
            return properties.restrict_to_orders()
        return properties

    # -- join enumeration ------------------------------------------------------

    def _join_dp(
        self,
        spec: QuerySpec,
        contexts: list[_ScanContext],
        correlations: Correlations,
        stats: SearchStats,
    ) -> list[DPEntry]:
        self._correlations_cache = correlations
        count = len(contexts)
        table: dict[frozenset[int], list[DPEntry]] = {}
        for index, context in enumerate(contexts):
            table[frozenset([index])] = self._base_entries(context, stats)
        stats.table_entries_by_size[1] = sum(
            len(entries) for entries in table.values()
        )
        if count == 1:
            return table[frozenset([0])]
        options = join_options(self._config, self._workers)
        all_scans = frozenset(range(count))
        for size in range(2, count + 1):
            size_entries = 0
            for subset_tuple in combinations(range(count), size):
                # Enumeration is the service's other unbounded loop: a
                # deep search over a large join graph can outlast a
                # deadline before execution even starts, so poll per
                # plan class.
                check_active_context()
                subset = frozenset(subset_tuple)
                if self._trace is not None:
                    self._trace_cls = "join:" + "+".join(
                        sorted(contexts[i].spec.alias for i in subset)
                    )
                entries: list[DPEntry] = []
                for split_size in range(1, size):
                    for part in combinations(sorted(subset), split_size):
                        left_set = frozenset(part)
                        right_set = subset - left_set
                        if min(left_set) != min(subset):
                            continue  # canonical split: avoid mirror pairs
                        entries = self._combine(
                            spec,
                            table.get(left_set, []),
                            table.get(right_set, []),
                            left_set,
                            right_set,
                            options,
                            correlations,
                            entries,
                            stats,
                        )
                if entries:
                    table[subset] = entries
                    size_entries += len(entries)
            stats.table_entries_by_size[size] = size_entries
        result = table.get(all_scans, [])
        if not result:
            raise OptimizationError(
                "join graph is disconnected or no join implementation applies"
            )
        return result


    def _combine(
        self,
        spec: QuerySpec,
        left_entries: list[DPEntry],
        right_entries: list[DPEntry],
        left_set: frozenset[int],
        right_set: frozenset[int],
        options: list[JoinOption],
        correlations: Correlations,
        entries: list[DPEntry],
        stats: SearchStats,
    ) -> list[DPEntry]:
        for edge in spec.joins:
            sides = {edge.left_scan, edge.right_scan}
            if not (
                (edge.left_scan in left_set and edge.right_scan in right_set)
                or (edge.left_scan in right_set and edge.right_scan in left_set)
            ):
                continue
            # Syntactic orientation: the edge's left side builds.
            orientations = [(edge.left_scan, edge.right_scan)]
            if self._config.consider_commutation:
                orientations.append((edge.right_scan, edge.left_scan))
            for build_scan, probe_scan in orientations:
                build_key = (
                    edge.left_column
                    if build_scan == edge.left_scan
                    else edge.right_column
                )
                probe_key = (
                    edge.right_column
                    if probe_scan == edge.right_scan
                    else edge.left_column
                )
                if build_scan in left_set:
                    build_entries, probe_entries = left_entries, right_entries
                else:
                    build_entries, probe_entries = right_entries, left_entries
                fk = self._catalog.foreign_key_between(
                    *self._resolve(spec, build_key),
                    *self._resolve(spec, probe_key),
                )
                for build in build_entries:
                    for probe in probe_entries:
                        entries = self._try_join(
                            build,
                            probe,
                            build_key,
                            probe_key,
                            fk,
                            options,
                            correlations,
                            entries,
                            stats,
                            spec,
                        )
        return entries

    def _resolve(self, spec: QuerySpec, qualified: str) -> tuple[str, str]:
        """(table name, raw column name) of a qualified column."""
        scan = spec.scans[spec.scan_of_column(qualified)]
        return scan.table_name, qualified.split(".", 1)[1]

    def _try_join(
        self,
        build: DPEntry,
        probe: DPEntry,
        build_key: str,
        probe_key: str,
        fk,
        options: list[JoinOption],
        correlations: Correlations,
        entries: list[DPEntry],
        stats: SearchStats,
        spec: QuerySpec,
    ) -> list[DPEntry]:
        scope = self._config.property_scope
        fk_child_is_probe = bool(
            fk is not None
            and fk.child_table == self._resolve(spec, probe_key)[0]
            and fk.child_column == probe_key.split(".", 1)[1]
        )
        estimate = self._estimator.join(
            build.estimate,
            probe.estimate,
            build_key,
            probe_key,
            is_foreign_key=fk is not None,
            fk_child_is_right=fk_child_is_probe or fk is None,
        )
        group_hint = max(
            min(
                build.estimate.ndv(build_key), probe.estimate.ndv(probe_key)
            ),
            1.0,
        )
        for option in options:
            if not option.applicable(
                build.properties, probe.properties, build_key, probe_key, scope
            ):
                continue
            if option.exchange:
                cost = self._cost_model.exchange_join_cost(
                    option.algorithm,
                    build.estimate.rows,
                    probe.estimate.rows,
                    group_hint,
                    float(self._workers),
                    option.backend,
                )
            elif option.parallel:
                cost = self._cost_model.parallel_join_cost(
                    option.algorithm,
                    build.estimate.rows,
                    probe.estimate.rows,
                    group_hint,
                    float(self._workers),
                    option.backend,
                )
            else:
                cost = self._cost_model.join_cost(
                    option.algorithm,
                    build.estimate.rows,
                    probe.estimate.rows,
                    group_hint,
                )
            cost -= self._view_credit(option, build, build_key, group_hint, spec)
            properties = option.derive(
                build.properties,
                probe.properties,
                build_key,
                probe_key,
                correlations,
                scope,
                estimate.rows,
                self._domains,
            )
            node = PhysicalNode(
                op="join",
                children=(build.plan, probe.plan),
                join_algorithm=option.algorithm,
                left_key=build_key,
                right_key=probe_key,
                recipe=option.recipe,
                parallel=option.parallel,
                exchange=option.exchange,
                backend=option.backend,
                rows=estimate.rows,
                local_cost=cost,
                cost=build.cost + probe.cost + cost,
                estimated_groups=group_hint,
                properties=properties,
            )
            entries = self._insert(
                entries,
                DPEntry(node, node.cost, properties, estimate),
                stats,
            )
        return entries

    def _view_credit(
        self,
        option: JoinOption,
        build: DPEntry,
        build_key: str,
        group_hint: float,
        spec: QuerySpec,
    ) -> float:
        """Build-phase cost waived by a matching Algorithmic View (§3)."""
        views = self._config.views
        if views is None or build.plan.op != "scan":
            return 0.0
        kind = _JOIN_VIEW_KINDS.get(option.algorithm)
        if kind is None:
            return 0.0
        table_name, column = self._resolve(spec, build_key)
        if not views.has_view(kind, table_name, column):
            return 0.0
        return self._cost_model.join_build_cost(
            option.algorithm, build.estimate.rows, 0.0, group_hint
        )

    # -- grouping + decoration ---------------------------------------------------

    def _apply_grouping(
        self,
        spec: QuerySpec,
        frontier: list[DPEntry],
        correlations: Correlations,
        stats: SearchStats,
    ) -> list[DPEntry]:
        if spec.group_key is None:
            return list(frontier)
        if self._trace is not None:
            self._trace_cls = "group_by"
        scope = self._config.property_scope
        options = grouping_options(self._config, self._workers)
        key = spec.group_key
        results: list[DPEntry] = []
        candidates = list(frontier)
        if self._config.consider_enforcers:
            for entry in frontier:
                if entry.properties.is_sorted_on(key):
                    continue
                sort_cost = self._cost_model.sort_cost(entry.estimate.rows)
                properties = self._close(
                    PropertyVector(
                        sorted_on=frozenset([key]),
                        dense=entry.properties.dense,
                    )
                )
                node = PhysicalNode(
                    op="sort",
                    children=(entry.plan,),
                    sort_keys=(key,),
                    rows=entry.estimate.rows,
                    local_cost=sort_cost,
                    cost=entry.cost + sort_cost,
                    properties=properties,
                )
                candidates.append(
                    DPEntry(node, node.cost, properties, entry.estimate)
                )
        for entry in candidates:
            check_active_context()
            groups = entry.estimate.ndv(key)
            out_estimate = self._estimator.group_by(entry.estimate, key)
            for option in options:
                if not option.applicable(entry.properties, key, scope):
                    continue
                if option.exchange:
                    cost = self._cost_model.exchange_grouping_cost(
                        option.algorithm,
                        entry.estimate.rows,
                        groups,
                        float(self._workers),
                        option.backend,
                    )
                elif option.parallel:
                    cost = self._cost_model.parallel_grouping_cost(
                        option.algorithm,
                        entry.estimate.rows,
                        groups,
                        float(self._workers),
                        option.backend,
                    )
                else:
                    cost = self._cost_model.grouping_cost(
                        option.algorithm, entry.estimate.rows, groups
                    )
                cost -= self._grouping_view_credit(option, entry, key, groups, spec)
                properties = option.derive(
                    entry.properties, key, correlations, scope
                )
                node = PhysicalNode(
                    op="group_by",
                    children=(entry.plan,),
                    grouping_algorithm=option.algorithm,
                    group_key=key,
                    aggregates=spec.aggregates,
                    recipe=option.recipe,
                    parallel=option.parallel,
                    exchange=option.exchange,
                    backend=option.backend,
                    rows=out_estimate.rows,
                    local_cost=cost,
                    cost=entry.cost + cost,
                    estimated_groups=groups,
                    properties=properties,
                )
                results = self._insert(
                    results,
                    DPEntry(node, node.cost, properties, out_estimate),
                    stats,
                )
        return results

    def _grouping_view_credit(
        self,
        option: GroupingOption,
        entry: DPEntry,
        key: str,
        groups: float,
        spec: QuerySpec,
    ) -> float:
        views = self._config.views
        if views is None or entry.plan.op not in ("scan", "filter"):
            return 0.0
        try:
            table_name, column = self._resolve(spec, key)
        except Exception:
            return 0.0
        if not views.has_view("sorted_keys", table_name, column):
            return 0.0
        return self._cost_model.grouping_build_cost(
            option.algorithm, entry.estimate.rows, groups
        )

    def _apply_decoration(
        self, spec: QuerySpec, entry: DPEntry, stats: SearchStats
    ) -> DPEntry:
        node = entry.plan
        properties = entry.properties
        cost = entry.cost
        if spec.final_outputs is not None:
            kept = [alias for alias, __ in spec.final_outputs]
            properties = properties.restrict_to_columns(kept)
            # Project may rename; a rename of a guaranteed column keeps
            # its guarantee under the new name.
            renames = {
                expr.name: alias
                for alias, expr in spec.final_outputs
                if hasattr(expr, "name")
            }
            properties = PropertyVector(
                sorted_on=frozenset(
                    renames.get(c, c)
                    for c in entry.properties.sorted_on
                    if c in renames or c in kept
                ),
                clustered_on=frozenset(
                    renames.get(c, c)
                    for c in entry.properties.clustered_on
                    if c in renames or c in kept
                ),
                dense=frozenset(
                    renames.get(c, c)
                    for c in entry.properties.dense
                    if c in renames or c in kept
                ),
            )
            node = PhysicalNode(
                op="project",
                children=(node,),
                outputs=spec.final_outputs,
                rows=entry.estimate.rows,
                cost=cost,
                properties=properties,
            )
        if spec.order_by:
            if not all(properties.is_sorted_on(key) for key in spec.order_by):
                sort_cost = self._cost_model.sort_cost(entry.estimate.rows)
                cost += sort_cost
                properties = properties.with_sorted(*spec.order_by)
                node = PhysicalNode(
                    op="sort",
                    children=(node,),
                    sort_keys=spec.order_by,
                    rows=entry.estimate.rows,
                    local_cost=sort_cost,
                    cost=cost,
                    properties=properties,
                )
        if spec.limit is not None:
            node = PhysicalNode(
                op="limit",
                children=(node,),
                count=spec.limit,
                rows=min(entry.estimate.rows, spec.limit),
                cost=cost,
                properties=properties,
            )
        return DPEntry(node, cost, properties, entry.estimate)
