"""A greedy baseline optimiser.

Greedy = the same search as the DP but every frontier is truncated to its
single cheapest entry — no Pareto lookahead, so the optimiser never pays
for a property now that pays off later. Benchmarks compare its plan
quality against the DP to quantify what §2.2's "we must not discard that
information" buys.
"""

from __future__ import annotations

from repro.core.cost.model import CostModel
from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    dqo_config,
)
from repro.core.optimizer.dp import DynamicProgrammingOptimizer, ClassJournal
from repro.core.optimizer.pruning import DPEntry
from repro.logical.algebra import LogicalPlan
from repro.storage.catalog import Catalog


class GreedyOptimizer(DynamicProgrammingOptimizer):
    """Cheapest-entry-only frontiers: local decisions, no lookahead."""

    strategy = "greedy"

    def _insert(
        self, entries: list[DPEntry], candidate: DPEntry, journal: ClassJournal
    ) -> list[DPEntry]:
        stats, trace, cls = journal.stats, journal.trace, journal.cls
        stats.generated += 1
        if trace is not None:
            trace.generated(cls, candidate)
        if not entries or candidate.cost < entries[0].cost:
            if entries:
                # Cheapest-only truncation, not dominance: the evicted
                # entry may hold properties the winner lacks.
                stats.truncated += 1
                if trace is not None:
                    trace.truncated(cls, entries[0], candidate)
            if trace is not None:
                trace.kept(cls, candidate)
            return [candidate]
        stats.truncated += 1
        if trace is not None:
            trace.truncated(cls, candidate, entries[0])
        return entries


def optimize_greedy(
    plan: LogicalPlan,
    catalog: Catalog,
    cost_model: CostModel | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Optimise with the greedy baseline."""
    optimizer = GreedyOptimizer(catalog, cost_model, config or dqo_config())
    return optimizer.optimize(plan)
