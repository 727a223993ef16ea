"""Dominance pruning over (cost, property-vector) Pareto frontiers.

§2.2: *"these properties can be considered and handled very similarly to
how interesting properties are handled in dynamic programming. If any
subcomponent in DQO produces an output with such a property, we must not
discard that information."* — so each DP equivalence class keeps not one
best plan but a Pareto frontier: entry A makes entry B redundant only if
A costs no more *and* guarantees every property B does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost.cardinality import RelationEstimate
from repro.core.optimizer.base import SearchStats
from repro.core.plan import ALGORITHMIC_OPS, PhysicalNode
from repro.core.properties import PropertyVector


@dataclass(slots=True, eq=False)
class DPEntry:
    """One subplan of the search: what the frontiers compare, and the
    recipe of its plan node.

    The search reads ``cost``, ``properties`` and ``estimate``. The
    :class:`~repro.core.plan.PhysicalNode` is not built with the entry:
    the entry holds its recipe — ``op``, ``decision``, the child
    *entries*, ``rows`` (None: the estimate's), ``local_cost`` and
    ``groups`` — and :attr:`plan` builds the node on first read, its
    children's nodes with it. Most candidates die on arrival, so most
    are never built.
    """

    op: str
    decision: object
    cost: float
    properties: PropertyVector
    estimate: RelationEstimate
    children: tuple[DPEntry, ...] = ()
    rows: float | None = None
    local_cost: float = 0.0
    groups: float = 0.0
    _plan: PhysicalNode | None = field(default=None, init=False, repr=False)

    @property
    def option(self):
        """The option a join or group-by entry runs; None elsewhere."""
        return self.decision.option if self.op in ALGORITHMIC_OPS else None

    @property
    def plan(self) -> PhysicalNode:
        """The entry's plan node, built from the recipe on first read."""
        if self._plan is None:
            self._plan = PhysicalNode(
                op=self.op,
                decision=self.decision,
                children=tuple(child.plan for child in self.children),
                rows=self.estimate.rows if self.rows is None else self.rows,
                local_cost=self.local_cost,
                cost=self.cost,
                estimated_groups=self.groups,
                properties=self.properties,
            )
        return self._plan


def dominates(a: DPEntry, b: DPEntry) -> bool:
    """Entry ``a`` makes ``b`` redundant: cheaper-or-equal and at least as
    strong properties."""
    return a.cost <= b.cost and a.properties.covers(b.properties)


def pareto_insert(
    entries: list[DPEntry],
    candidate: DPEntry,
    stats: SearchStats,
    prune: bool = True,
    trace=None,
    cls: str = "",
) -> list[DPEntry]:
    """Insert ``candidate`` into a frontier, maintaining Pareto shape.

    With ``prune=False`` (the ablation's no-pruning mode) every candidate
    is retained, modelling a naive DP whose state grows unchecked.

    ``trace`` (a :class:`repro.obs.search.SearchTrace`, or None) journals
    each outcome — generated / kept / dominated-by-whom / displaced —
    under DP class ``cls``; the default None adds only these two branch
    checks to the hot path.
    """
    stats.generated += 1
    if trace is not None:
        trace.generated(cls, candidate)
    if not prune:
        entries.append(candidate)
        if trace is not None:
            trace.kept(cls, candidate)
        return entries
    for existing in entries:
        if dominates(existing, candidate):
            stats.pruned_dominated += 1
            if trace is not None:
                trace.dominated(cls, candidate, existing)
            return entries
    survivors = []
    for existing in entries:
        if dominates(candidate, existing):
            stats.displaced += 1
            if trace is not None:
                trace.displaced(cls, existing, candidate)
        else:
            survivors.append(existing)
    survivors.append(candidate)
    if trace is not None:
        trace.kept(cls, candidate)
    return survivors
