"""``EXPLAIN WHY`` — the chosen plan against the road not taken.

``EXPLAIN`` shows *what* the optimiser chose; :func:`explain_why` shows
*why*: for every algorithm decision in the winning plan it prices each
rival implementation on the same inputs — through
:func:`repro.core.optimizer.space.option_cost`, the function the search
itself prices options with, so a rival costs here what it cost there —
(and, when a rival was not even applicable, names the missing property —
"probe input not sorted on S.R_ID"), names the decisive Table-2 cost term via
:meth:`~repro.core.cost.model.CostModel.join_cost_terms`, and renders
the recorded runner-up plans plus — from the decision trace — each
killed candidate's cause of death and killer.

The report runs a *fresh* trace-enabled optimisation against a private
plan cache, so it never mutates process-wide state and always journals
a real search. Rival costs are recomputed without Algorithmic-View
build credits (the chosen decision's cost is the plan's own annotation,
credits included, so a credit-won choice shows up as a ratio > the raw
formula ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    PropertyScope,
    dqo_config,
)
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.core.optimizer.query import QuerySpec, extract_query
from repro.core.optimizer.rules import (
    GroupingOption,
    JoinOption,
    grouping_options,
    join_options,
)
from repro.core.optimizer.space import groups_on_build_side, option_cost
from repro.core.plan import PhysicalNode, plan_fingerprint
from repro.core.properties import PropertyVector
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm
from repro.logical.algebra import LogicalPlan
from repro.obs.search.trace import DEFAULT_CAPACITY, SearchTrace, replay
from repro.settings import ambient
from repro.storage.catalog import Catalog


def _as_spec(query, catalog: Catalog) -> QuerySpec:
    """Accept SQL text, a LogicalPlan, or a pre-extracted QuerySpec."""
    if isinstance(query, QuerySpec):
        return query
    if isinstance(query, LogicalPlan):
        return extract_query(query)
    from repro.sql.planner import plan_query

    return extract_query(plan_query(str(query), catalog))


def _props_facts(label: str, props: PropertyVector, key: str, rows: float) -> str:
    qualities = []
    qualities.append("sorted" if props.is_sorted_on(key) else "unsorted")
    if props.is_clustered_on(key) and not props.is_sorted_on(key):
        qualities.append("clustered")
    qualities.append("dense" if props.is_dense(key) else "sparse")
    return f"{label} {key}: {', '.join(qualities)}, est {rows:,.0f} rows"


def _join_reason(
    option: JoinOption,
    build_props: PropertyVector,
    probe_props: PropertyVector,
    build_key: str,
    probe_key: str,
    scope: PropertyScope,
) -> str:
    """Why a join implementation was not applicable (§2.1 preconditions)."""
    if option.algorithm is JoinAlgorithm.OJ:
        missing = []
        if not build_props.is_sorted_on(build_key):
            missing.append(f"build input not sorted on {build_key}")
        if not probe_props.is_sorted_on(probe_key):
            missing.append(f"probe input not sorted on {probe_key}")
        return "; ".join(missing) or "inapplicable"
    if option.algorithm is JoinAlgorithm.SPHJ:
        if scope is not PropertyScope.FULL:
            return "density invisible to a shallow (SQO) configuration"
        return f"build domain not dense on {build_key}"
    return "inapplicable"


def _grouping_reason(
    option: GroupingOption, props: PropertyVector, key: str, scope: PropertyScope
) -> str:
    if option.algorithm is GroupingAlgorithm.OG:
        return f"input not clustered on {key}"
    if option.algorithm is GroupingAlgorithm.SPHG:
        if scope is not PropertyScope.FULL:
            return "density invisible to a shallow (SQO) configuration"
        return f"input domain not dense on {key}"
    return "inapplicable"


@dataclass
class DecisionExplanation:
    """One algorithm choice of the chosen plan, fully attributed."""

    #: "join" or "group_by".
    op: str
    #: the node's one-line description.
    node: str
    #: chosen implementation label, e.g. "SPHJ" or "HG/parallel".
    algorithm: str
    #: the decision's local cost as annotated on the plan (AV credits
    #: included).
    cost: float
    #: estimated output rows of the node.
    rows: float
    #: the decisive (largest) term of the chosen formula and its value.
    decisive_term: str = ""
    decisive_value: float = 0.0
    #: the full named-term decomposition of the chosen cost.
    terms: list = field(default_factory=list)
    #: input property facts, e.g. "probe S.R_ID: unsorted, dense, est
    #: 90,000 rows".
    facts: list = field(default_factory=list)
    #: every rival implementation: {"algorithm", "applicable", "cost",
    #: "ratio", "reason"} — ratio is rival/chosen (>1: chosen was
    #: cheaper), reason set when inapplicable.
    rivals: list = field(default_factory=list)

    def headline(self) -> str:
        """The one-sentence summary, ISSUE-style: 'SPHJ beat HJ here by
        4.0x because probe S.R_ID: unsorted, dense, est 90,000 rows'."""
        beaten = [
            rival
            for rival in self.rivals
            if rival["applicable"] and rival["ratio"] is not None
        ]
        if not beaten:
            return f"{self.algorithm} was the only applicable implementation"
        best = min(beaten, key=lambda rival: rival["cost"])
        because = f" because {self.facts[-1]}" if self.facts else ""
        if best["ratio"] is not None and best["ratio"] < 1.0:
            # A rival's raw formula was cheaper: the chosen node won on
            # credits or frontier properties, worth calling out as such.
            return (
                f"{self.algorithm} chosen over cheaper-by-formula "
                f"{best['algorithm']} (ratio {best['ratio']:.2f}x —"
                f" view credit or property value)"
            )
        return (
            f"{self.algorithm} beat {best['algorithm']} here by "
            f"{best['ratio']:.1f}x{because}"
        )

    def to_dict(self) -> dict:
        payload = {
            "op": self.op,
            "node": self.node,
            "algorithm": self.algorithm,
            "cost": self.cost,
            "rows": self.rows,
            "decisive_term": self.decisive_term,
            "decisive_value": self.decisive_value,
            "terms": [[name, value] for name, value in self.terms],
            "facts": list(self.facts),
            "rivals": [dict(rival) for rival in self.rivals],
            "headline": self.headline(),
        }
        return payload


@dataclass
class WhyReport:
    """The full ``EXPLAIN WHY`` verdict for one query."""

    spec_fingerprint: str
    plan_fingerprint: str
    cost: float
    deep: bool
    workers: int
    plan_text: str
    decisions: list[DecisionExplanation] = field(default_factory=list)
    #: recorded runner-up complete plans: {"rank", "fingerprint",
    #: "cost", "ratio", "plan"}.
    alternatives: list = field(default_factory=list)
    #: killed candidates from the trace: {"cause", "plan", "cost",
    #: "killer"} — the dominance edges of the search.
    deaths: list = field(default_factory=list)
    death_counts: dict = field(default_factory=dict)
    search: dict = field(default_factory=dict)
    trace_summary: dict = field(default_factory=dict)
    #: the underlying optimisation (not serialised).
    result: OptimizationResult | None = None
    #: the journal itself (not serialised; save via trace.save()).
    trace: SearchTrace | None = None

    def to_dict(self) -> dict:
        return {
            "spec_fingerprint": self.spec_fingerprint,
            "plan_fingerprint": self.plan_fingerprint,
            "cost": self.cost,
            "deep": self.deep,
            "workers": self.workers,
            "plan": self.plan_text,
            "decisions": [decision.to_dict() for decision in self.decisions],
            "alternatives": [dict(item) for item in self.alternatives],
            "deaths": [dict(item) for item in self.deaths],
            "death_counts": dict(self.death_counts),
            "search": dict(self.search),
            "trace_summary": dict(self.trace_summary),
        }

    def render(self) -> str:
        """The human-readable report."""
        lines = [
            f"EXPLAIN WHY — spec {self.spec_fingerprint[:12]} "
            f"({'deep' if self.deep else 'shallow'}, workers={self.workers})",
            f"chosen plan {self.plan_fingerprint} (cost {self.cost:,.0f}):",
        ]
        lines += [f"  {line}" for line in self.plan_text.splitlines()]
        lines.append("decisions:")
        if not self.decisions:
            lines.append("  (no algorithm decisions: single-scan plan)")
        for index, decision in enumerate(self.decisions, start=1):
            lines.append(f"  {index}. {decision.node}")
            lines.append(f"       {decision.headline()}")
            lines.append(
                f"       decisive term: {decision.decisive_term} = "
                f"{decision.decisive_value:,.0f}"
            )
            for fact in decision.facts:
                lines.append(f"       input: {fact}")
            for rival in decision.rivals:
                if rival["applicable"]:
                    lines.append(
                        f"       vs {rival['algorithm']:<22} cost "
                        f"{rival['cost']:>14,.0f}  ({rival['ratio']:.2f}x)"
                    )
                else:
                    lines.append(
                        f"       vs {rival['algorithm']:<22} inapplicable: "
                        f"{rival['reason']}"
                    )
        lines.append("runner-up plans:")
        if not self.alternatives:
            lines.append("  (none recorded)")
        for item in self.alternatives:
            lines.append(
                f"  #{item['rank']} cost {item['cost']:,.0f} "
                f"(+{item['ratio']:.2f}x) {item['fingerprint']}  {item['plan']}"
            )
        if self.deaths:
            lines.append("notable killed candidates:")
            for death in self.deaths:
                killer = f"  <- {death['killer']}" if death.get("killer") else ""
                lines.append(
                    f"  [{death['cause']:<9}] {death['plan']}"
                    f" (cost {death['cost']:,.0f}){killer}"
                )
        summary = self.trace_summary
        lines.append(
            "search journal: "
            f"{summary.get('generated', 0)} candidates, "
            f"{summary.get('dominated', 0)} dominated, "
            f"{summary.get('displaced', 0)} displaced, "
            f"{summary.get('truncated', 0)} truncated "
            f"({summary.get('classes', 0)} classes, "
            f"{summary.get('dropped', 0)} dropped)"
        )
        return "\n".join(lines)


def _explain_decision(
    node: PhysicalNode,
    cost_model: CostModel,
    config: OptimizerConfig,
    workers: int,
) -> DecisionExplanation:
    """One join or group-by of the chosen plan against every other
    option of its family — the chosen one recognised as the node's own
    option, so its process sibling stays a rival — each
    priced on the node's inputs, or given the reason it could not run.

    Both families read alike: an option's ``applicable`` and the reason
    functions take the inputs' properties, then the node's keys. A
    parallel grouping is refused where the search refuses it
    (:func:`~repro.core.optimizer.space.groups_on_build_side`)."""
    option, keys = node.option, node.decision.keys
    inputs = [child.properties for child in node.children]
    sizes = (
        *(float(child.rows) for child in node.children),
        max(float(node.estimated_groups), 1.0),
    )
    scope = config.property_scope
    if node.op == "join":
        options = join_options(config)
        terms = cost_model.join_cost_terms(option.algorithm, *sizes)
        why_not, sides = _join_reason, ("build", "probe")
    else:
        options = grouping_options(config, workers)
        terms = cost_model.grouping_cost_terms(option.algorithm, *sizes)
        why_not, sides = _grouping_reason, ("input",)
    decisive_term, decisive_value = max(terms, key=lambda term: term[1])
    chosen_cost = float(node.local_cost)
    serial = node.op == "group_by" and groups_on_build_side(node.children[0], *keys)
    rivals = []
    for rival in options:
        if rival == option:
            continue
        refused = serial and rival.parallel
        entry = {
            "algorithm": rival.label,
            "applicable": not refused and rival.applicable(*inputs, *keys, scope),
            "cost": None,
            "ratio": None,
            "reason": "",
        }
        if entry["applicable"]:
            entry["cost"] = option_cost(cost_model, rival, workers, *sizes)
            if chosen_cost > 0:
                entry["ratio"] = entry["cost"] / chosen_cost
        elif refused:
            entry["reason"] = f"{keys[0]} is grouped on the join's build input"
        else:
            entry["reason"] = why_not(rival, *inputs, *keys, scope)
        rivals.append(entry)
    return DecisionExplanation(
        op=node.op,
        node=node.describe(),
        algorithm=node.label,
        cost=chosen_cost,
        rows=float(node.rows),
        decisive_term=decisive_term,
        decisive_value=decisive_value,
        terms=terms,
        facts=[
            _props_facts(side, props, key, rows)
            for side, props, key, rows in zip(sides, inputs, keys, sizes)
        ],
        rivals=rivals,
    )


def _notable_deaths(replayed: dict, limit: int = 8) -> list[dict]:
    """The most interesting kills: cheapest casualties first (the closer
    a dead candidate's cost was to winning, the more the dominance edge
    explains)."""
    candidates = replayed["candidates"]
    deaths = []
    for entry_id, death in replayed["deaths"].items():
        payload = candidates.get(entry_id)
        if payload is None:
            continue  # its generated event fell off a ring buffer
        killer_payload = candidates.get(death.get("by"))
        deaths.append(
            {
                "cause": death["cause"],
                "plan": payload.get("plan", ""),
                "cost": float(payload.get("cost", 0.0)),
                "killer": (killer_payload or {}).get("plan", ""),
            }
        )
    deaths.sort(key=lambda item: item["cost"])
    return deaths[:limit]


def explain_why(
    query,
    catalog: Catalog,
    *,
    config: OptimizerConfig | None = None,
    cost_model: CostModel | None = None,
    capacity_per_class: int = DEFAULT_CAPACITY,
    save_trace: str | None = None,
) -> WhyReport:
    """Optimise ``query`` with a decision trace attached and explain the
    verdict (see the module docstring).

    :param query: SQL text, a LogicalPlan, or a QuerySpec.
    :param save_trace: when given, the journal is also written to this
        path.
    """
    spec = _as_spec(query, catalog)
    config = config or dqo_config()
    cost_model = cost_model or PaperCostModel()
    workers = ambient(workers=config.workers).workers
    trace = SearchTrace(capacity_per_class=capacity_per_class)
    optimizer = DynamicProgrammingOptimizer(
        catalog,
        cost_model,
        config,
        plan_cache=PlanCache(2),  # private: never resolves a stale hit
        trace=trace,
    )
    result = optimizer.optimize_spec(spec)
    decisions = [
        _explain_decision(node, cost_model, config, workers)
        for node in result.plan.walk()
        if node.option is not None
    ]
    alternatives = []
    for rank, plan in enumerate(result.alternatives, start=1):
        alternatives.append(
            {
                "rank": rank,
                "fingerprint": plan_fingerprint(plan),
                "cost": float(plan.cost),
                "ratio": float(plan.cost) / result.cost
                if result.cost > 0
                else 1.0,
                "plan": plan.describe(),
            }
        )
    replayed = replay(trace)
    summary = trace.summary()
    if save_trace is not None:
        trace.save(save_trace)
    return WhyReport(
        spec_fingerprint=result.spec_fingerprint,
        plan_fingerprint=result.plan_fingerprint,
        cost=result.cost,
        deep=config.is_deep,
        workers=workers,
        plan_text=result.plan.explain(),
        decisions=decisions,
        alternatives=alternatives,
        deaths=_notable_deaths(replayed),
        death_counts={
            cause: sum(
                1
                for death in replayed["deaths"].values()
                if death["cause"] == cause
            )
            for cause in ("dominated", "displaced", "truncated")
        },
        search=result.stats.as_dict(),
        trace_summary=summary,
        result=result,
        trace=trace,
    )
