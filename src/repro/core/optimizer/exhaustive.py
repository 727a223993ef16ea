"""Exhaustive plan enumeration — a validation oracle for the DP.

Composes *every* complete plan of a query over up to three relations by
brute force: nested loops over access paths x join implementations (x a
second join for the third relation) x grouping inputs x grouping
implementations, never a frontier, never a dominance test. Each step is built and priced by the generators the DP reads
(:mod:`repro.core.optimizer.space`), so the oracle is the same space
without pruning, not a second cost model: ``DP.cost == min(oracle)``
checks the *search*. The generators themselves are guarded
independently, by the golden plan fingerprints and the benchmark's
numpy-only reference results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import OptimizerConfig, SearchStats, dqo_config
from repro.core.optimizer.dp import decorate
from repro.core.optimizer.pruning import DPEntry
from repro.core.optimizer.query import extract_query
from repro.core.optimizer.space import (
    PlanSpace,
    access_paths,
    grouping_candidates,
    grouping_inputs,
    join_candidates,
)
from repro.core.plan import PhysicalNode
from repro.errors import OptimizationError
from repro.obs.search.trace import get_search_trace
from repro.logical.algebra import LogicalPlan
from repro.service.context import check_active_context
from repro.settings import ambient
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class ExhaustivePlan:
    """One complete plan of the exhaustive space, with its total cost."""

    #: nested one-line rendering, every implementation with its mode:
    #: ``HG/parallel@process(HJ(scan(S), sort[R.ID](scan(R))))``.
    description: str
    cost: float
    #: estimated output cardinality (same estimation chain as the DP).
    rows: float = 0.0
    #: the plan itself, which :func:`repro.core.plan.to_operator` lowers.
    plan: PhysicalNode | None = field(default=None, compare=False, repr=False)


def _describe(node: PhysicalNode) -> str:
    if node.op == "scan":
        return node.label
    return f"{node.label}({', '.join(_describe(child) for child in node.children)})"


def _joined(
    space: PlanSpace,
    by_class: dict[frozenset[int], list[DPEntry]],
    left: frozenset[int],
    right: frozenset[int],
) -> list[DPEntry]:
    """Every join of a plan over the scans ``left`` with one over
    ``right``, along every edge that connects them, in every
    orientation."""
    joined: list[DPEntry] = []
    for edge in space.spec.joins:
        if not (
            (edge.left_scan in left and edge.right_scan in right)
            or (edge.left_scan in right and edge.right_scan in left)
        ):
            continue
        for side in space.orientations[edge]:
            build_set, probe_set = (
                (left, right) if side.build_scan in left else (right, left)
            )
            for build in by_class[build_set]:
                for probe in by_class[probe_set]:
                    check_active_context()
                    joined.extend(join_candidates(space, build, probe, side))
    return joined


def enumerate_exhaustive(
    plan: LogicalPlan,
    catalog: Catalog,
    cost_model: CostModel | None = None,
    config: OptimizerConfig | None = None,
    stats: SearchStats | None = None,
) -> list[ExhaustivePlan]:
    """All complete plans for a query over one to three relations, any
    cost order. A third relation is joined onto every two-relation plan
    (of each connected pair) along every edge that reaches it — with
    three relations, every join tree is a pair joined with a single.

    :param stats: when given, ``generated``/``retained`` record the size
        of the enumerated space (the oracle never prunes, so both equal
        the number of plans).
    :raises OptimizationError: for queries over more than three relations.
    """
    spec = extract_query(plan)
    if len(spec.scans) > 3:
        raise OptimizationError(
            "exhaustive oracle supports at most 3 relations, got "
            f"{len(spec.scans)}"
        )
    config = config or dqo_config()
    # Same worker resolution as the DP: the oracle must cost the same
    # implementation space, parallel-loop variants included.
    cost_model = cost_model or PaperCostModel()
    workers = ambient(workers=config.workers).workers
    space = PlanSpace(spec, catalog, cost_model, config, workers)
    indexes = range(len(space.scans))
    every = frozenset(indexes)
    by_class = {
        frozenset([index]): list(access_paths(space, scan))
        for index, scan in zip(indexes, space.scans)
    }
    for left, right in combinations(indexes, 2):
        by_class[frozenset([left, right])] = _joined(
            space, by_class, frozenset([left]), frozenset([right])
        )
    if len(every) == 3:
        by_class[every] = [
            entry
            for pair in combinations(indexes, 2)
            for entry in _joined(
                space, by_class, frozenset(pair), every.difference(pair)
            )
        ]
    complete = by_class[every]
    if spec.group_key is not None:
        complete = [
            grouped
            for entry in grouping_inputs(space, complete)
            for grouped in grouping_candidates(space, entry)
        ]
    plans = []
    for entry in complete:
        final = decorate(space, entry).plan
        plans.append(ExhaustivePlan(_describe(final), final.cost, final.rows, final))
    if stats is not None:
        stats.generated += len(plans)
        stats.retained += len(plans)
    trace = get_search_trace()
    if trace is not None and trace.enabled:
        # The oracle never prunes: every plan of the space is one
        # journal event, so a trace diff against the DP's journal shows
        # exactly what the frontiers refused to carry.
        for plan in plans:
            trace.oracle(plan.description, plan.cost, plan.rows)
    return plans

