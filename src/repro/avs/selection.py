"""The Algorithmic View Selection Problem (AVSP), §3.

*"Inspired by the materialized view selection problem, we coin this the
Algorithmic View Selection Problem. And like with MVs there is no need in
AVSP to make any manual decision about which granules to precompute."*

Given a workload (weighted queries over a pool of table profiles) and a
build-cost budget, choose the set of Algorithmic Views minimising total
weighted query cost. Two solvers:

* :func:`greedy_avsp` — iteratively add the view with the best marginal
  benefit per build-cost unit (the classic submodular heuristic);
* :func:`exhaustive_avsp` — exact subset enumeration for small candidate
  sets, used to measure the greedy gap.

Query costs come from :func:`best_query_cost`, a closed-form enumeration
of the same implementation space the real DP searches, specialised to the
workload's two query shapes — fast enough to evaluate thousands of
(subset, workload) combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.avs.view import ViewKind, build_cost_of
from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.space import JOIN_VIEW_KINDS
from repro.datagen.workload import (
    QueryShape,
    TableProfile,
    Workload,
    WorkloadQuery,
)
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm
from repro.errors import ViewError

#: view selection granule: (kind, table name).
SelectedView = tuple[ViewKind, str]


@dataclass(frozen=True)
class CandidateView:
    """One selectable view with its offline build cost."""

    kind: ViewKind
    table: TableProfile
    build_cost: float

    @property
    def selection(self) -> SelectedView:
        """The (kind, table-name) pair used in selection sets."""
        return (self.kind, self.table.name)

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.kind.value}({self.table.name}) "
            f"build_cost={self.build_cost:,.0f}"
        )


def enumerate_candidates(
    workload: Workload, cost_model: CostModel | None = None
) -> list[CandidateView]:
    """All materialisable views over the workload's table pool.

    SPH views are only offered for dense-key tables (§2.1 applicability).
    """
    cost_model = cost_model or PaperCostModel()
    candidates = []
    for table in workload.tables:
        kinds = [ViewKind.SORTED_PROJECTION, ViewKind.HASH_TABLE, ViewKind.SORTED_KEYS]
        if table.key_dense:
            kinds.append(ViewKind.SPH_ARRAY)
        else:
            # Sparse keys: a dictionary view manufactures density (§2.1).
            kinds.append(ViewKind.DICTIONARY)
        for kind in kinds:
            candidates.append(
                CandidateView(
                    kind=kind,
                    table=table,
                    build_cost=build_cost_of(
                        kind, table.rows, table.key_distinct, cost_model
                    ),
                )
            )
    return candidates


# ---------------------------------------------------------------------------
# Abstract per-query cost under a view selection.
# ---------------------------------------------------------------------------

#: join algorithm -> view kind that waives its build phase, as the
#: optimiser credits it (:data:`~repro.core.optimizer.space.JOIN_VIEW_KINDS`).
_JOIN_VIEW = {join: ViewKind(kind) for join, kind in JOIN_VIEW_KINDS.items()}


def _scan_variants(
    table: TableProfile,
    selected: frozenset[SelectedView],
    cost_model: CostModel,
) -> list[tuple[float, bool]]:
    """(extra cost, sorted) alternatives for reading one table."""
    variants = [(0.0, table.key_sorted)]
    if (ViewKind.SORTED_PROJECTION, table.name) in selected and not table.key_sorted:
        variants.append((0.0, True))
    if not table.key_sorted:
        variants.append((cost_model.sort_cost(table.rows), True))
    return variants


def _grouping_costs(
    rows: float,
    groups: float,
    input_sorted: bool,
    input_dense: bool,
    deep: bool,
    cost_model: CostModel,
) -> list[float]:
    """Applicable grouping costs over an input stream."""
    costs = [cost_model.grouping_cost(GroupingAlgorithm.HG, rows, groups)]
    costs.append(cost_model.grouping_cost(GroupingAlgorithm.SOG, rows, groups))
    costs.append(cost_model.grouping_cost(GroupingAlgorithm.BSG, rows, groups))
    if input_sorted:
        costs.append(cost_model.grouping_cost(GroupingAlgorithm.OG, rows, groups))
    if deep and input_dense:
        costs.append(
            cost_model.grouping_cost(GroupingAlgorithm.SPHG, rows, groups)
        )
    # Sort enforcer + OG.
    if not input_sorted:
        costs.append(
            cost_model.sort_cost(rows)
            + cost_model.grouping_cost(GroupingAlgorithm.OG, rows, groups)
        )
    return costs


def best_query_cost(
    query: WorkloadQuery,
    selected: frozenset[SelectedView] = frozenset(),
    cost_model: CostModel | None = None,
    deep: bool = True,
) -> float:
    """Cheapest plan cost for one workload query under a view selection.

    Mirrors the DP's implementation space for the two workload shapes;
    ``deep=False`` evaluates the SQO space (no density knowledge).
    """
    cost_model = cost_model or PaperCostModel()
    left = query.left
    if query.shape is QueryShape.GROUPING:
        best = float("inf")
        dense = left.key_dense or (ViewKind.DICTIONARY, left.name) in selected
        for scan_cost, is_sorted in _scan_variants(left, selected, cost_model):
            for grouping in _grouping_costs(
                left.rows,
                left.key_distinct,
                is_sorted,
                dense,
                deep,
                cost_model,
            ):
                best = min(best, scan_cost + grouping)
        return best

    right = query.right
    assert right is not None
    join_rows = float(right.rows)  # FK semantics: probe side survives
    groups = float(left.key_distinct)
    best = float("inf")
    join_algorithms = [
        JoinAlgorithm.HJ,
        JoinAlgorithm.SOJ,
        JoinAlgorithm.BSJ,
        JoinAlgorithm.OJ,
    ]
    if deep and left.key_dense:
        join_algorithms.append(JoinAlgorithm.SPHJ)
    for build_cost_extra, build_sorted in _scan_variants(
        left, selected, cost_model
    ):
        for probe_cost_extra, probe_sorted in _scan_variants(
            right, selected, cost_model
        ):
            for algorithm in join_algorithms:
                if algorithm is JoinAlgorithm.OJ and not (
                    build_sorted and probe_sorted
                ):
                    continue
                join_cost = cost_model.join_cost(
                    algorithm, left.rows, right.rows, groups
                )
                view_kind = _JOIN_VIEW.get(algorithm)
                # Build-phase credit applies only to an unsorted-scan
                # build side (an enforced sort already changed the input).
                if (
                    view_kind is not None
                    and build_cost_extra == 0.0
                    and (view_kind, left.name) in selected
                ):
                    join_cost -= cost_model.join_build_cost(
                        algorithm, left.rows, right.rows, groups
                    )
                # Output order for the downstream grouping: key-sorted
                # joins always; probe-streaming joins when the probe side
                # is sorted (FK-correlation assumption, DESIGN.md #5).
                if algorithm in (JoinAlgorithm.OJ, JoinAlgorithm.SOJ):
                    output_sorted = True
                else:
                    output_sorted = probe_sorted
                output_dense = deep and (
                    left.key_dense
                    or (ViewKind.DICTIONARY, left.name) in selected
                )
                for grouping in _grouping_costs(
                    join_rows,
                    groups,
                    output_sorted,
                    output_dense,
                    deep,
                    cost_model,
                ):
                    best = min(
                        best,
                        build_cost_extra
                        + probe_cost_extra
                        + join_cost
                        + grouping,
                    )
    return best


def workload_cost(
    workload: Workload,
    selected: frozenset[SelectedView] = frozenset(),
    cost_model: CostModel | None = None,
    deep: bool = True,
) -> float:
    """Total frequency-weighted query cost of a workload."""
    cost_model = cost_model or PaperCostModel()
    return sum(
        query.frequency
        * best_query_cost(query, selected, cost_model, deep)
        for query in workload
    )


# ---------------------------------------------------------------------------
# Solvers.
# ---------------------------------------------------------------------------


@dataclass
class SelectionResult:
    """Outcome of an AVSP solve."""

    selected: list[CandidateView] = field(default_factory=list)
    cost_without_views: float = 0.0
    cost_with_views: float = 0.0
    build_cost: float = 0.0

    @property
    def benefit(self) -> float:
        """Total workload-cost reduction."""
        return self.cost_without_views - self.cost_with_views

    @property
    def selection(self) -> frozenset[SelectedView]:
        """The chosen (kind, table) set."""
        return frozenset(c.selection for c in self.selected)

    def describe(self) -> str:
        """Multi-line summary."""
        lines = [
            f"workload cost without views: {self.cost_without_views:,.0f}",
            f"workload cost with views:    {self.cost_with_views:,.0f}",
            f"benefit: {self.benefit:,.0f}   "
            f"offline build cost: {self.build_cost:,.0f}",
        ]
        lines.extend(f"  + {c.describe()}" for c in self.selected)
        return "\n".join(lines)


def greedy_avsp(
    workload: Workload,
    budget: float,
    candidates: list[CandidateView] | None = None,
    cost_model: CostModel | None = None,
    deep: bool = True,
) -> SelectionResult:
    """Greedy AVSP: repeatedly add the affordable candidate with the best
    marginal benefit / build-cost ratio until nothing improves."""
    cost_model = cost_model or PaperCostModel()
    candidates = (
        candidates
        if candidates is not None
        else enumerate_candidates(workload, cost_model)
    )
    result = SelectionResult(
        cost_without_views=workload_cost(
            workload, frozenset(), cost_model, deep
        )
    )
    current_cost = result.cost_without_views
    remaining = list(candidates)
    selected: set[SelectedView] = set()
    spent = 0.0
    while remaining:
        best_candidate = None
        best_ratio = 0.0
        best_cost = current_cost
        for candidate in remaining:
            if spent + candidate.build_cost > budget:
                continue
            trial = frozenset(selected | {candidate.selection})
            cost = workload_cost(workload, trial, cost_model, deep)
            benefit = current_cost - cost
            if benefit <= 0:
                continue
            ratio = benefit / max(candidate.build_cost, 1.0)
            if ratio > best_ratio:
                best_ratio = ratio
                best_candidate = candidate
                best_cost = cost
        if best_candidate is None:
            break
        selected.add(best_candidate.selection)
        result.selected.append(best_candidate)
        spent += best_candidate.build_cost
        current_cost = best_cost
        remaining.remove(best_candidate)
    result.cost_with_views = current_cost
    result.build_cost = spent
    return result


def exhaustive_avsp(
    workload: Workload,
    budget: float,
    candidates: list[CandidateView] | None = None,
    cost_model: CostModel | None = None,
    deep: bool = True,
    max_candidates: int = 14,
) -> SelectionResult:
    """Exact AVSP by subset enumeration (small candidate sets only).

    :raises ViewError: when the candidate set exceeds ``max_candidates``.
    """
    cost_model = cost_model or PaperCostModel()
    candidates = (
        candidates
        if candidates is not None
        else enumerate_candidates(workload, cost_model)
    )
    if len(candidates) > max_candidates:
        raise ViewError(
            f"exhaustive AVSP limited to {max_candidates} candidates, got "
            f"{len(candidates)}; use greedy_avsp"
        )
    base_cost = workload_cost(workload, frozenset(), cost_model, deep)
    best_subset: tuple[CandidateView, ...] = ()
    best_cost = base_cost
    best_spent = 0.0
    for mask in range(1 << len(candidates)):
        subset = tuple(
            candidates[i] for i in range(len(candidates)) if mask & (1 << i)
        )
        spent = sum(c.build_cost for c in subset)
        if spent > budget:
            continue
        cost = workload_cost(
            workload,
            frozenset(c.selection for c in subset),
            cost_model,
            deep,
        )
        if cost < best_cost:
            best_cost = cost
            best_subset = subset
            best_spent = spent
    return SelectionResult(
        selected=list(best_subset),
        cost_without_views=base_cost,
        cost_with_views=best_cost,
        build_cost=best_spent,
    )
