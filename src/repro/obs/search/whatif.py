"""What-if re-optimisation and the statistics sensitivity frontier.

:func:`whatif` answers "what plan would the optimiser pick if the
statistics said X?": it applies a
:class:`~repro.storage.overlay.StatisticsOverlay` to the catalog
(hypothetically — nothing is mutated), re-optimises the same query, and
diffs the hypothetical plan against the real optimum.

:func:`sensitivity_frontier` inverts the question: *which* statistic is
the chosen plan actually sensitive to? It probes every property the
plan's decisions depend on (sortedness and density of each join/group
key) plus each table's cardinality (bisecting for the scale factor at
which the plan flips), and reports the flip set — the frontier of the
statistics space inside which the current plan stays optimal. A plan
whose frontier is tight (flips at a 1.2x cardinality error) deserves
suspicion; one that only flips at 100x is robust to estimation error.

Every probe is a full re-optimisation against a private plan cache, so
probes can neither pollute nor be polluted by process-wide state; the
overlay catalog's fresh identity token guarantees the same for any
shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    dqo_config,
)
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.core.plan import plan_decisions, plan_diff, render_plan_diff
from repro.errors import StatisticsError
from repro.obs.search.explain import _as_spec
from repro.storage.catalog import Catalog
from repro.storage.overlay import StatisticsOverlay


def _optimize(spec, catalog, config, cost_model) -> OptimizationResult:
    optimizer = DynamicProgrammingOptimizer(
        catalog,
        cost_model,
        config,
        plan_cache=PlanCache(2),  # private: probes never share state
    )
    return optimizer.optimize_spec(spec)


def _hypothetical_config(
    config: OptimizerConfig, overlay: StatisticsOverlay, catalog: Catalog
) -> OptimizerConfig:
    """The config under the overlay's index patches: a cloned AV registry
    with the hypothetical views declared or dropped. A declared view has
    its build cost and no artifact: optimising needs only its existence,
    and a what-if erects nothing on the real columns."""
    index_patches = overlay.index_patches()
    if not index_patches:
        return config
    from repro.avs.registry import AVRegistry
    from repro.avs.view import ViewKind, declare_view

    views = AVRegistry(list(config.views) if config.views is not None else [])
    for patch in index_patches:
        kind_name, present = patch.value
        try:
            kind = ViewKind(kind_name)
        except ValueError:
            names = sorted(k.value for k in ViewKind)
            raise StatisticsError(
                f"unknown view kind {kind_name!r}; expected one of {names}"
            ) from None
        if present and not views.has_view(kind, patch.table, patch.column):
            views.add(declare_view(catalog, kind, patch.table, patch.column))
        elif not present and views.has_view(kind, patch.table, patch.column):
            views.remove(kind, patch.table, patch.column)
    return dc_replace(config, views=views)


def _plan_summary(result: OptimizationResult) -> dict:
    return {
        "cost": float(result.cost),
        "fingerprint": result.plan_fingerprint,
        "plan": result.plan.describe(),
        "decisions": plan_decisions(result.plan),
    }


@dataclass
class WhatIfReport:
    """One hypothetical against the real optimum."""

    spec_fingerprint: str
    overlay_text: str
    overlay: dict
    #: ``{"cost", "fingerprint", "plan", "decisions"}`` under real stats.
    baseline: dict
    #: the same, under the overlay.
    hypothetical: dict
    plan_changed: bool
    #: hypothetical cost / baseline cost. Costs under different
    #: statistics are estimates of different worlds — the ratio reports
    #: how much cheaper/dearer the optimiser *believes* the hypothetical
    #: world is, not a promised speedup.
    cost_ratio: float
    #: structured :func:`~repro.core.plan.plan_diff`.
    diff: dict
    #: full optimisation results, for callers that keep digging
    #: (not serialised).
    baseline_result: OptimizationResult | None = field(
        default=None, repr=False, compare=False
    )
    hypothetical_result: OptimizationResult | None = field(
        default=None, repr=False, compare=False
    )

    def diff_text(self) -> str:
        """One line, e.g. ``join[OJ](...) -> join[SPHJ](...)``."""
        return render_plan_diff(self.diff)

    def to_dict(self) -> dict:
        return {
            "spec_fingerprint": self.spec_fingerprint,
            "overlay_text": self.overlay_text,
            "overlay": self.overlay,
            "baseline": self.baseline,
            "hypothetical": self.hypothetical,
            "plan_changed": self.plan_changed,
            "cost_ratio": self.cost_ratio,
            "diff": self.diff,
        }

    def render(self) -> str:
        lines = [
            f"WHAT IF  {self.overlay_text}",
            f"  query           {self.spec_fingerprint}",
            f"  baseline        {self.baseline['plan']}",
            f"      cost        {self.baseline['cost']:,.0f}",
            f"  hypothetical    {self.hypothetical['plan']}",
            f"      cost        {self.hypothetical['cost']:,.0f}"
            f"  ({self.cost_ratio:.2f}x baseline)",
        ]
        if self.plan_changed:
            lines.append(f"  plan FLIPS: {self.diff_text()}")
        else:
            lines.append("  plan unchanged")
        return "\n".join(lines)


def whatif(
    query,
    catalog: Catalog,
    overlay: StatisticsOverlay,
    *,
    config: OptimizerConfig | None = None,
    cost_model: CostModel | None = None,
) -> WhatIfReport:
    """Re-optimise ``query`` under ``overlay`` and diff against the real
    optimum (see module docstring).

    :param query: SQL text, a LogicalPlan, or a QuerySpec.
    """
    spec = _as_spec(query, catalog)
    config = config or dqo_config()
    cost_model = cost_model or PaperCostModel()
    baseline = _optimize(spec, catalog, config, cost_model)
    hyp_catalog = overlay.apply(catalog)
    hyp_config = _hypothetical_config(config, overlay, hyp_catalog)
    hypothetical = _optimize(spec, hyp_catalog, hyp_config, cost_model)
    base_summary = _plan_summary(baseline)
    hyp_summary = _plan_summary(hypothetical)
    diff = plan_diff(base_summary["decisions"], hyp_summary["decisions"])
    return WhatIfReport(
        spec_fingerprint=baseline.spec_fingerprint,
        overlay_text=overlay.describe(),
        overlay=overlay.to_dict(),
        baseline=base_summary,
        hypothetical=hyp_summary,
        plan_changed=not diff["identical"],
        cost_ratio=(
            hyp_summary["cost"] / base_summary["cost"]
            if base_summary["cost"] > 0
            else 1.0
        ),
        diff=diff,
        baseline_result=baseline,
        hypothetical_result=hypothetical,
    )


@dataclass
class SensitivityProbe:
    """One probed statistic and whether the plan survives it."""

    #: "sortedness" | "density" | "cardinality".
    kind: str
    table: str
    #: None for cardinality probes.
    column: str | None
    #: e.g. ``R.ID.sorted: True -> False``.
    description: str
    #: the probe (or some scale inside the bound) flips the plan.
    flips: bool
    #: for cardinality probes: the smallest scale factor that flips the
    #: plan (bisected; > 1 growing, < 1 shrinking). None for boolean
    #: probes and for no-flip-within-bounds.
    threshold: float | None
    baseline_fingerprint: str
    #: fingerprint at the flip point (None when the plan never flips).
    flipped_fingerprint: str | None
    #: one-line plan diff at the flip point ("" when no flip).
    diff_text: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "table": self.table,
            "column": self.column,
            "description": self.description,
            "flips": self.flips,
            "threshold": self.threshold,
            "baseline_fingerprint": self.baseline_fingerprint,
            "flipped_fingerprint": self.flipped_fingerprint,
            "diff_text": self.diff_text,
        }

    def render(self) -> str:
        if not self.flips:
            return f"  robust   {self.description}"
        line = f"  FLIPS    {self.description}"
        if self.threshold is not None:
            line += f" (threshold {self.threshold:.3g}x)"
        return f"{line}: {self.diff_text}"


def _key_columns(decisions: list[dict]) -> list[tuple[str, str]]:
    """The (table, column) pairs the plan's decisions key on, via the
    scan decisions' alias -> table map."""
    alias_to_table = {
        decision["alias"]: decision["table"]
        for decision in decisions
        if decision.get("op") == "scan"
    }
    pairs: list[tuple[str, str]] = []
    for decision in decisions:
        if decision.get("op") not in ("join", "group_by", "sort"):
            continue
        for key in decision.get("keys", []):
            alias, _, column = key.partition(".")
            table = alias_to_table.get(alias, alias)
            pair = (table, column)
            if column and pair not in pairs:
                pairs.append(pair)
    return pairs


def sensitivity_frontier(
    query,
    catalog: Catalog,
    *,
    config: OptimizerConfig | None = None,
    cost_model: CostModel | None = None,
    max_scale: float = 1024.0,
    tolerance: float = 0.05,
) -> list[SensitivityProbe]:
    """Probe which statistics the chosen plan is sensitive to (see
    module docstring).

    Boolean probes (sortedness / density of every key column) toggle the
    stored value; cardinality probes bisect the scale factor — up to
    ``max_scale`` in each direction — for the smallest change that flips
    the plan, to a relative ``tolerance``.
    """
    spec = _as_spec(query, catalog)
    config = config or dqo_config()
    cost_model = cost_model or PaperCostModel()
    baseline = _optimize(spec, catalog, config, cost_model)
    base_fp = baseline.plan_fingerprint
    decisions = plan_decisions(baseline.plan)

    def probe_overlay(overlay: StatisticsOverlay) -> OptimizationResult:
        hyp = overlay.apply(catalog)
        return _optimize(spec, hyp, config, cost_model)

    def diff_against(result: OptimizationResult) -> str:
        return render_plan_diff(
            plan_diff(decisions, plan_decisions(result.plan))
        )

    probes: list[SensitivityProbe] = []

    # Boolean probes: toggle each key column's sortedness and density.
    for table, column in _key_columns(decisions):
        stats = catalog.table(table).column(column).statistics
        for kind, current, setter in (
            ("sortedness", stats.is_sorted, StatisticsOverlay.set_sorted),
            ("density", stats.is_dense, StatisticsOverlay.set_dense),
        ):
            flipped_value = not current
            overlay = setter(StatisticsOverlay(), table, column, flipped_value)
            result = probe_overlay(overlay)
            flips = result.plan_fingerprint != base_fp
            probes.append(
                SensitivityProbe(
                    kind=kind,
                    table=table,
                    column=column,
                    description=(
                        f"{table}.{column}.{kind}: "
                        f"{current} -> {flipped_value}"
                    ),
                    flips=flips,
                    threshold=None,
                    baseline_fingerprint=base_fp,
                    flipped_fingerprint=result.plan_fingerprint
                    if flips
                    else None,
                    diff_text=diff_against(result) if flips else "",
                )
            )

    # Cardinality probes: bisect the flip threshold in each direction.
    for table in sorted({t for t, _ in _key_columns(decisions)}):
        base_rows = catalog.cardinality(table)
        for direction, bound in (("grow", max_scale), ("shrink", 1.0 / max_scale)):
            scaled = max(1, round(base_rows * bound))
            at_bound = probe_overlay(
                StatisticsOverlay().set_cardinality(table, scaled)
            )
            if at_bound.plan_fingerprint == base_fp:
                probes.append(
                    SensitivityProbe(
                        kind="cardinality",
                        table=table,
                        column=None,
                        description=(
                            f"{table}.cardinality x{bound:g} "
                            f"({base_rows:,} -> {scaled:,})"
                        ),
                        flips=False,
                        threshold=None,
                        baseline_fingerprint=base_fp,
                        flipped_fingerprint=None,
                        diff_text="",
                    )
                )
                continue
            # Bisect in log-space between no-flip (scale 1) and the
            # flipping bound for the smallest flipping factor.
            low, high = 1.0, bound  # low never flips, high always does
            flip_result = at_bound
            while (
                max(high / low, low / high) > 1.0 + tolerance
            ):
                mid = (low * high) ** 0.5
                result = probe_overlay(
                    StatisticsOverlay().set_cardinality(
                        table, max(1, round(base_rows * mid))
                    )
                )
                if result.plan_fingerprint != base_fp:
                    high, flip_result = mid, result
                else:
                    low = mid
            probes.append(
                SensitivityProbe(
                    kind="cardinality",
                    table=table,
                    column=None,
                    description=(
                        f"{table}.cardinality x{high:.3g} "
                        f"({base_rows:,} -> "
                        f"{max(1, round(base_rows * high)):,}, {direction})"
                    ),
                    flips=True,
                    threshold=high,
                    baseline_fingerprint=base_fp,
                    flipped_fingerprint=flip_result.plan_fingerprint,
                    diff_text=diff_against(flip_result),
                )
            )
    return probes


def render_frontier(probes: list[SensitivityProbe]) -> str:
    """The frontier as a small report, flips first."""
    flips = [probe for probe in probes if probe.flips]
    robust = [probe for probe in probes if not probe.flips]
    lines = [
        f"STATISTICS SENSITIVITY  ({len(flips)} flip(s), "
        f"{len(robust)} robust)"
    ]
    lines += [probe.render() for probe in flips]
    lines += [probe.render() for probe in robust]
    return "\n".join(lines)
