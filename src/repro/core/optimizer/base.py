"""Optimiser configuration and result types.

The central design point (DESIGN.md §4): SQO and DQO are *one* optimiser
with different configurations. :func:`sqo_config` caps decision depth at
ORGANELLE (blackbox textbook operators) and projects the property vector
to classical interesting orders; :func:`dqo_config` descends to MOLECULE
and tracks the full §2.2 property vector. Everything in between is a
valid configuration too — the paper's "smooth transition from SQO to DQO"
(§6, Longterm Vision).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.granularity import Granularity
from repro.core.plan import PhysicalNode

if TYPE_CHECKING:
    from repro.avs.registry import AVRegistry


class PropertyScope(enum.Enum):
    """Which §2.2 properties the optimiser is allowed to *see*."""

    #: classical interesting orders only: sortedness / clusteredness (SQO).
    ORDERS = "orders"
    #: the full DQO vector, including density.
    FULL = "full"


@dataclass(frozen=True)
class OptimizerConfig:
    """All the dials of the unified optimiser."""

    #: deepest granule level the optimiser may decide (Table 1 reach).
    max_granularity: Granularity = Granularity.MOLECULE
    #: which plan properties the optimiser tracks.
    property_scope: PropertyScope = PropertyScope.FULL
    #: consider swapping join build/probe sides. The paper's Figure 5
    #: keeps the syntactic sides (DESIGN.md substitution #5); the
    #: commutation ablation turns this on.
    consider_commutation: bool = False
    #: prune Pareto-dominated DP entries (ablation dial).
    prune_dominated: bool = True
    #: registered Algorithmic Views to exploit, if any.
    views: "AVRegistry | None" = None
    #: morsel workers the optimiser plans for. With > 1 worker a deep
    #: enumeration also costs the lattice's MOLECULE-level parallel-loop
    #: recipes against their serial siblings. ``None`` resolves
    #: :func:`repro.settings.ambient` (``REPRO_WORKERS``) at optimise
    #: time. The default of 1 keeps the classic serial space, so the
    #: paper's Figure 5 cost ratios are invariant to the runtime
    #: executor setting.
    workers: int | None = 1
    #: execution backend the optimiser plans parallel recipes for:
    #: ``"thread"`` (the default morsel pool) or ``"process"``. With
    #: ``"process"`` the deep enumeration also costs process-backend
    #: parallel recipes against their thread siblings and picks
    #: per node by cost; the choice enters the plan fingerprint and the
    #: plan cache key.
    backend: str = "thread"

    @property
    def is_deep(self) -> bool:
        """True when the configuration reaches below ORGANELLE."""
        return self.max_granularity > Granularity.ORGANELLE


def sqo_config(**overrides) -> OptimizerConfig:
    """Shallow query optimisation: textbook operators + interesting orders.

    §4.3: *"SQO only considers data sortedness as in traditional dynamic
    programming"* — so density is invisible and SPH variants can never be
    proven applicable.
    """
    defaults = dict(
        max_granularity=Granularity.ORGANELLE,
        property_scope=PropertyScope.ORDERS,
    )
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


def dqo_config(**overrides) -> OptimizerConfig:
    """Deep query optimisation: molecule-level reach, full property vector."""
    defaults = dict(
        max_granularity=Granularity.MOLECULE,
        property_scope=PropertyScope.FULL,
    )
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


@dataclass
class SearchStats:
    """Enumeration-effort counters (the pruning/depth ablations report
    these, and benchmark artifacts serialise them via :meth:`as_dict`)."""

    #: candidate plans generated (before any pruning).
    generated: int = 0
    #: candidates rejected because a retained entry dominated them.
    pruned_dominated: int = 0
    #: retained entries displaced by a later, dominating candidate.
    displaced: int = 0
    #: candidates rejected by heuristic frontier truncation (the greedy
    #: baseline keeps only the cheapest entry) — *not* true dominance:
    #: the loser may have carried properties the winner lacks.
    truncated: int = 0
    #: entries alive at the end across all DP classes.
    retained: int = 0
    #: property-vector closures computed: every ``PlanSpace.close`` and
    #: every ``JoinOption``/``GroupingOption.derive`` the search's memo
    #: did not answer (a memo hit computes nothing and is not counted).
    closures: int = 0
    #: DP-table frontier entries alive per subset size after that size's
    #: enumeration round (size 1 = base access paths).
    table_entries_by_size: dict[int, int] = field(default_factory=dict)

    @property
    def pruned_total(self) -> int:
        """Candidates that did not survive: dominated, displaced, or
        truncated."""
        return self.pruned_dominated + self.displaced + self.truncated

    def as_dict(self) -> dict:
        """A JSON-friendly representation."""
        return {
            "generated": self.generated,
            "pruned_dominated": self.pruned_dominated,
            "displaced": self.displaced,
            "truncated": self.truncated,
            "retained": self.retained,
            "closures": self.closures,
            "table_entries_by_size": {
                str(size): count
                for size, count in sorted(self.table_entries_by_size.items())
            },
        }

    def render(self) -> str:
        """A one-block human-readable dump."""
        sizes = ", ".join(
            f"|S|={size}: {count}"
            for size, count in sorted(self.table_entries_by_size.items())
        )
        return "\n".join(
            [
                "search stats:",
                f"  candidates generated   {self.generated}",
                f"  pruned (dominated)     {self.pruned_dominated}",
                f"  displaced              {self.displaced}",
                f"  truncated              {self.truncated}",
                f"  retained               {self.retained}",
                f"  property closures      {self.closures}",
                f"  DP entries per size    {sizes or '(none)'}",
            ]
        )


@dataclass
class OptimizationResult:
    """The optimiser's verdict for one query."""

    #: the chosen plan, fully annotated.
    plan: PhysicalNode
    #: estimated cost of :attr:`plan` under the configured cost model.
    cost: float
    #: the configuration that produced this result.
    config: OptimizerConfig
    #: estimated output cardinality of the whole query — the root of the
    #: estimate chain that instrumented execution grades with q-error.
    estimated_rows: float = 0.0
    #: enumeration-effort counters.
    stats: SearchStats = field(default_factory=SearchStats)
    #: runner-up complete plans, best-first (for reporting/debugging).
    alternatives: list[PhysicalNode] = field(default_factory=list)
    #: True when this result came from the optimiser plan cache without a
    #: fresh search (then :attr:`stats` is all-zero: no enumeration ran).
    cached: bool = False
    #: shape hash of :attr:`plan` (:func:`repro.core.plan.
    #: plan_fingerprint`) — stable across re-optimisations that choose
    #: the same plan, different whenever any decision changed. "" only
    #: for results built by hand.
    plan_fingerprint: str = ""
    #: normalised query fingerprint (:func:`repro.core.optimizer.
    #: plancache.spec_fingerprint`) — the "same query" key baselines and
    #: the plan-regression sentinel group by.
    spec_fingerprint: str = ""
    #: decision-trace stamp ``{"path", "summary"}`` when a
    #: :class:`repro.obs.search.SearchTrace` journalled this search;
    #: None by default and always None on plan-cache hits (a cached
    #: verdict ran no search).
    search_trace: dict | None = None

    def explain(self, deep: bool = False) -> str:
        """Render the chosen plan."""
        return self.plan.explain(deep=deep)
