"""Property-vector dynamic programming — the unified SQO/DQO optimiser.

The DP is the classical join-order DPsub enriched exactly as §2.2
prescribes: per plan class (subset of scans, and finally the group-by
stage), a *Pareto frontier* of (cost, property-vector) entries is kept
instead of one best plan, because a more expensive subplan with stronger
properties (sorted! dense!) can win globally. §4.3's experiment is this
machinery with two configurations (see :mod:`repro.core.optimizer.base`).

This module is the *search* — plan cache, subset/split loop, frontier
policy, decoration, reporting; which candidates a step has and what each
costs is :mod:`repro.core.optimizer.space`.

Supported query class: conjunctive equi-join queries over base tables
with single-table filters, at most one group-by (on top), and trailing
project / order-by / limit — a superset of the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    SearchStats,
    dqo_config,
)
from repro.core.optimizer.plancache import (
    PlanCache,
    get_plan_cache,
    spec_fingerprint,
)
from repro.core.optimizer.pruning import DPEntry, pareto_insert
from repro.core.optimizer.query import QuerySpec, extract_query
from repro.core.optimizer.space import (
    PlanSpace,
    access_paths,
    base_access_cost,  # noqa: F401 — re-exported: its historical home
    grouping_candidates,
    grouping_inputs,
    join_candidates,
    sorted_entry,
)
from repro.core.plan import plan_decisions, plan_fingerprint
from repro.core.properties import PropertyVector
from repro.errors import OptimizationError
from repro.service.context import check_active_context
from repro.obs.querylog import get_query_log, log_facts
from repro.obs.runtime import get_metrics, get_tracer
from repro.obs.search.trace import get_search_trace
from repro.logical.algebra import LogicalPlan
from repro.settings import ambient
from repro.storage.catalog import Catalog


@dataclass
class ClassJournal:
    """Where one DP class's frontier inserts are recorded: the search's
    counters, its decision trace (or None), the events' class label."""

    stats: SearchStats
    trace: object | None
    cls: str


def decorate(space: PlanSpace, entry: DPEntry) -> DPEntry:
    """``entry`` under the query's trailing project / order-by / limit —
    one fixed continuation per complete plan, not a search dimension."""
    spec = space.spec
    properties = entry.properties
    if spec.final_outputs is not None:
        kept = [alias for alias, __ in spec.final_outputs]
        # Project may rename; a rename of a guaranteed column keeps
        # its guarantee under the new name.
        renames = {
            expr.name: alias
            for alias, expr in spec.final_outputs
            if hasattr(expr, "name")
        }

        def projected(columns: frozenset[str]) -> frozenset[str]:
            return frozenset(
                renames.get(c, c) for c in columns if c in renames or c in kept
            )

        properties = PropertyVector(
            sorted_on=projected(properties.sorted_on),
            clustered_on=projected(properties.clustered_on),
            dense=projected(properties.dense),
        )
        entry = DPEntry(
            "project",
            spec.final_outputs,
            entry.cost,
            properties,
            entry.estimate,
            (entry,),
        )
    if spec.order_by and not all(
        properties.is_sorted_on(key) for key in spec.order_by
    ):
        properties = properties.with_sorted(*spec.order_by)
        entry = sorted_entry(space.cost_model, entry, spec.order_by, properties)
    if spec.limit is not None:
        entry = DPEntry(
            "limit",
            spec.limit,
            entry.cost,
            properties,
            entry.estimate,
            (entry,),
            rows=min(entry.estimate.rows, spec.limit),
        )
    return entry


class DynamicProgrammingOptimizer:
    """The unified optimiser; configuration selects SQO vs DQO behaviour."""

    #: the search this class runs, part of its plan-cache key.
    strategy = "dp"

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
        self._plan_cache = plan_cache
        #: pinned :class:`repro.obs.search.SearchTrace`; None falls back
        #: to the process-wide handle at each optimise call.
        self._trace = trace

    @property
    def config(self) -> OptimizerConfig:
        """The active configuration."""
        return self._config

    def _insert(
        self, entries: list[DPEntry], candidate: DPEntry, journal: ClassJournal
    ) -> list[DPEntry]:
        """Frontier insertion policy; subclasses may override (the greedy
        baseline keeps only the cheapest entry)."""
        return pareto_insert(
            entries,
            candidate,
            journal.stats,
            self._config.prune_dominated,
            trace=journal.trace,
            cls=journal.cls,
        )

    def optimize(self, plan: LogicalPlan) -> OptimizationResult:
        """Optimise a logical plan into an annotated physical plan."""
        return self.optimize_spec(extract_query(plan))

    def optimize_spec(self, spec: QuerySpec) -> OptimizationResult:
        """Optimise a pre-extracted :class:`QuerySpec`.

        The configuration's worker count (``config.workers``; ``None``
        resolves the :func:`repro.settings.get_settings` value) scopes the
        implementation space: with more than one worker the deep
        enumeration includes the lattice's parallel-loop recipes, costed
        against their serial siblings. When a plan cache is attached
        (constructor argument, else the process-wide
        :func:`~repro.core.optimizer.plancache.get_plan_cache`), a
        fingerprint match on an unchanged catalog returns the memoised
        plan without any enumeration (``result.cached`` is True and the
        search stats stay zero).
        """
        workers = ambient(workers=self._config.workers).workers
        spec_fp = spec_fingerprint(spec)
        cache = self._plan_cache if self._plan_cache is not None else get_plan_cache()
        cache_key: tuple | None = None
        if cache is not None:
            cache_key = cache.key_for(
                spec,
                self._catalog,
                self._config,
                self._cost_model,
                workers,
                self.strategy,
            )
            hit = cache.get(cache_key)
            if hit is not None:
                if get_query_log() is not None:
                    # A hit logs the cached plan's hash too, so a plan
                    # flip stays attributable even when every repetition
                    # resolves from the cache.
                    facts = self._optimize_facts(hit, spec, spec_fp, workers)
                    facts["cached"] = True
                    log_facts("optimize", facts)
                return hit
        trace = self._trace if self._trace is not None else get_search_trace()
        if trace is not None and not trace.enabled:
            trace = None
        stats = SearchStats()
        if trace is not None:
            trace.begin(
                spec_fp,
                scans=len(spec.scans),
                deep=self._config.is_deep,
                workers=workers,
                catalog_version=self._catalog.version,
            )
        finals = self._search(spec, workers, stats, trace)
        if not finals:
            raise OptimizationError("no applicable plan found")
        finals.sort(key=lambda entry: entry.cost)
        stats.retained += len(finals)
        self._report_metrics(stats, traced=trace is not None)
        best = finals[0]
        plan_hash = plan_fingerprint(best.plan)
        result = OptimizationResult(
            plan=best.plan,
            cost=best.cost,
            config=self._config,
            estimated_rows=best.plan.rows,
            stats=stats,
            alternatives=[entry.plan for entry in finals[1:6]],
            plan_fingerprint=plan_hash,
            spec_fingerprint=spec_fp,
            search_trace=self._journal_verdict(trace, finals, plan_hash, stats)
            if trace is not None
            else None,
        )
        if get_query_log() is not None:
            facts = self._optimize_facts(result, spec, spec_fp, workers)
            facts["plan"] = best.plan.explain()
            facts["search"] = stats.as_dict()
            facts["decisions"] = plan_decisions(best.plan)
            if result.search_trace is not None:
                facts["search_trace"] = result.search_trace
            log_facts("optimize", facts)
        if cache is not None and cache_key is not None:
            cache.put(cache_key, result)
        return result

    def _search(
        self, spec: QuerySpec, workers: int, stats: SearchStats, trace
    ) -> list[DPEntry]:
        """Every surviving complete plan, decorated, in no cost order."""
        tracer = get_tracer()
        with tracer.span(
            "optimizer.optimize", scans=len(spec.scans), deep=self._config.is_deep
        ):
            space = PlanSpace(
                spec, self._catalog, self._cost_model, self._config, workers, stats
            )
            with tracer.span("optimizer.join_dp"):
                frontier = self._join_dp(space, trace)
            with tracer.span("optimizer.grouping"):
                finals = self._group(space, frontier, trace)
                return [decorate(space, entry) for entry in finals]

    def _optimize_facts(
        self, result: OptimizationResult, spec: QuerySpec, spec_fp: str, workers: int
    ) -> dict:
        """The query log's ``optimize`` facts that a fresh verdict and a
        plan-cache hit share."""
        return {
            "cost": result.cost,
            "estimated_rows": result.estimated_rows,
            "scans": len(spec.scans),
            "deep": self._config.is_deep,
            "workers": workers,
            "backend": self._config.backend,
            "plan_hash": result.plan_fingerprint,
            "spec_fingerprint": result.spec_fingerprint or spec_fp,
            "catalog_version": self._catalog.version,
        }

    @staticmethod
    def _journal_verdict(
        trace, finals: list[DPEntry], plan_hash: str, stats: SearchStats
    ) -> dict:
        """Journal the complete decorated plans, best-first — rank 0 is
        the verdict, so a replay can reconstruct it exactly — and close
        the trace; returns its stamp."""
        for rank, entry in enumerate(finals[:8]):
            trace.finalist(
                rank,
                entry,
                plan_hash if rank == 0 else plan_fingerprint(entry.plan),
            )
        return trace.finish(plan_hash, finals[0].cost, stats.as_dict())

    @staticmethod
    def _report_metrics(stats: SearchStats, traced: bool = False) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        for name, amount in (
            ("optimizer.optimizations", 1),
            ("optimizer.candidates_generated", stats.generated),
            ("optimizer.pruned_dominated", stats.pruned_dominated),
            ("optimizer.closures", stats.closures),
            # Search-observatory telemetry (PR 8): frontier-churn detail
            # and how many searches ran with a decision trace attached.
            ("optimizer.search.displaced", stats.displaced),
            ("optimizer.search.truncated", stats.truncated),
            ("optimizer.search.retained", stats.retained),
        ):
            metrics.counter(name, exist_ok=True).inc(amount)
        if traced:
            metrics.counter("optimizer.search.traced", exist_ok=True).inc()

    # -- join enumeration ------------------------------------------------------

    def _join_dp(self, space: PlanSpace, trace) -> list[DPEntry]:
        stats = space.stats
        count = len(space.scans)
        table: dict[frozenset[int], list[DPEntry]] = {}
        for index, scan in enumerate(space.scans):
            journal = ClassJournal(stats, trace, f"scan:{scan.spec.alias}")
            entries: list[DPEntry] = []
            for candidate in access_paths(space, scan):
                entries = self._insert(entries, candidate, journal)
            table[frozenset([index])] = entries
        stats.table_entries_by_size[1] = sum(
            len(entries) for entries in table.values()
        )
        if count == 1:
            return table[frozenset([0])]
        for size in range(2, count + 1):
            size_entries = 0
            for subset_tuple in combinations(range(count), size):
                # Enumeration is the service's other unbounded loop: a
                # deep search over a large join graph can outlast a
                # deadline before execution even starts, so poll per
                # plan class.
                check_active_context()
                subset = frozenset(subset_tuple)
                aliases = sorted(space.scans[i].spec.alias for i in subset)
                journal = ClassJournal(stats, trace, "join:" + "+".join(aliases))
                entries = []
                for split_size in range(1, size):
                    for part in combinations(sorted(subset), split_size):
                        left_set = frozenset(part)
                        if min(left_set) != min(subset):
                            continue  # canonical split: avoid mirror pairs
                        entries = self._combine(
                            space, table, left_set, subset - left_set, entries, journal
                        )
                if entries:
                    table[subset] = entries
                    size_entries += len(entries)
            stats.table_entries_by_size[size] = size_entries
        result = table.get(frozenset(range(count)), [])
        if not result:
            raise OptimizationError(
                "join graph is disconnected or no join implementation applies"
            )
        return result

    def _combine(
        self,
        space: PlanSpace,
        table: dict[frozenset[int], list[DPEntry]],
        left_set: frozenset[int],
        right_set: frozenset[int],
        entries: list[DPEntry],
        journal: ClassJournal,
    ) -> list[DPEntry]:
        """Join every entry pair of two disjoint plan classes along every
        edge (and orientation) that connects them."""
        insert = self._insert
        for edge in space.spec.joins:
            if not (
                (edge.left_scan in left_set and edge.right_scan in right_set)
                or (edge.left_scan in right_set and edge.right_scan in left_set)
            ):
                continue
            for side in space.orientations[edge]:
                if side.build_scan in left_set:
                    build_set, probe_set = left_set, right_set
                else:
                    build_set, probe_set = right_set, left_set
                probe_entries = table.get(probe_set, [])
                for build in table.get(build_set, []):
                    for probe in probe_entries:
                        for candidate in join_candidates(space, build, probe, side):
                            entries = insert(entries, candidate, journal)
        return entries

    # -- grouping ----------------------------------------------------------------

    def _group(
        self, space: PlanSpace, frontier: list[DPEntry], trace
    ) -> list[DPEntry]:
        if space.spec.group_key is None:
            return list(frontier)
        journal = ClassJournal(space.stats, trace, "group_by")
        results: list[DPEntry] = []
        for entry in grouping_inputs(space, frontier):
            check_active_context()
            for candidate in grouping_candidates(space, entry):
                results = self._insert(results, candidate, journal)
        return results
