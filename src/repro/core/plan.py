"""Deep physical plans: the optimiser's output.

A :class:`PhysicalNode` tree records *every* decision the optimiser made —
which algorithm family implements each operator (ORGANELLE level), and,
for deep plans, the full physiological recipe below it (MACROMOLECULE /
MOLECULE levels, Figure 3). ``explain()`` renders the tree with granule
depth annotations; :func:`to_operator` lowers the plan onto the executable
engine so optimised plans actually run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.core.granularity import Granularity
from repro.core.physiological import Granule
from repro.core.properties import PropertyVector
from repro.engine.aggregates import AggregateSpec
from repro.engine.expressions import Expression
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm
from repro.engine.operators import (
    DecodeColumn,
    Filter,
    IndexRangeScan,
    GroupBy,
    Join,
    Limit,
    PhysicalOperator,
    Project,
    SegmentScan,
    Sort,
    TableScan,
)
from repro.engine.operators.base import kept_columns
from repro.errors import PlanError
from repro.storage.catalog import Catalog
from repro.storage.disk import is_disk_table


@dataclass(frozen=True)
class PhysicalNode:
    """One node of an optimised physical plan.

    ``op`` discriminates the node type; the optional fields hold that
    type's parameters. ``cost`` is cumulative over the subtree, in the
    cost model's abstract units.
    """

    op: str  # 'scan' | 'filter' | 'sort' | 'join' | 'group_by' | 'project' | 'limit'
    children: tuple["PhysicalNode", ...] = ()
    # scan:
    table_name: str = ""
    alias: str = ""
    #: Algorithmic View applied at this scan: (view kind value, raw column
    #: name), or ("", "") for a plain base-table scan. Lowering a plan
    #: whose scans use views requires passing the registry to
    #: :func:`to_operator`.
    scan_view: tuple[str, str] = ("", "")
    #: for a 'btree' scan view: the inclusive value range fetched from
    #: the index.
    index_range: tuple[int, int] = (0, 0)
    #: where the scanned table lives: "" for in-memory (the default,
    #: absent from fingerprints so historical hashes survive), "disk"
    #: for a disk-resident table lowered to a SegmentScan.
    scan_storage: str = ""
    #: predicates pushed down to the scan for zone-map segment skipping
    #: (the Filter above still applies them row-wise; results are
    #: identical with or without the pushdown).
    scan_predicates: tuple[Expression, ...] = ()
    # filter:
    predicate: Expression | None = None
    # sort:
    sort_keys: tuple[str, ...] = ()
    # join:
    join_algorithm: JoinAlgorithm | None = None
    left_key: str = ""
    right_key: str = ""
    # group_by:
    grouping_algorithm: GroupingAlgorithm | None = None
    group_key: str = ""
    aggregates: tuple[AggregateSpec, ...] = ()
    # project:
    outputs: tuple[tuple[str, Expression], ...] = ()
    # limit:
    count: int = 0
    # deep recipe (None for shallow / non-algorithmic nodes):
    recipe: Granule | None = None
    #: the recipe's MOLECULE-level ``loop`` decision: True pins the
    #: morsel-parallel implementation at lowering, False pins serial.
    parallel: bool = False
    #: the recipe's MACROMOLECULE-level ``exchange`` decision: True pins
    #: the hash-repartition (shuffle, then local) implementation.
    exchange: bool = False
    #: which worker pool the parallel/exchange work runs on:
    #: ``"thread"`` or ``"process"`` (shared-memory workers).
    backend: str = "thread"
    # annotations:
    rows: float = 0.0
    local_cost: float = 0.0
    cost: float = 0.0
    #: estimated distinct groups this node builds/probes over (join and
    #: group-by nodes; 0.0 elsewhere) — the cost model's second input,
    #: recorded so runtime feedback can refit coefficients per algorithm.
    estimated_groups: float = 0.0
    properties: PropertyVector = field(default_factory=PropertyVector)

    # -- rendering ----------------------------------------------------------

    def describe(self) -> str:
        """One-line description with algorithm, cost, and properties."""
        if self.op == "scan":
            head = f"Scan({self.table_name}"
            if self.alias and self.alias != self.table_name:
                head += f" AS {self.alias}"
            if self.scan_view[0]:
                head += f" via AV[{self.scan_view[0]}({self.scan_view[1]})]"
            head += ")"
            if self.scan_storage == "disk":
                head += " [disk]"
                if self.scan_predicates:
                    head += f" pushed={len(self.scan_predicates)}"
        elif self.op == "filter":
            head = f"Filter({self.predicate!r})"
        elif self.op == "sort":
            head = f"Sort(by={list(self.sort_keys)})"
        elif self.op == "join":
            assert self.join_algorithm is not None
            head = (
                f"Join[{self.join_algorithm.name}{mode_suffix(self)}]"
                f"({self.left_key} = {self.right_key})"
            )
        elif self.op == "group_by":
            assert self.grouping_algorithm is not None
            head = (
                f"GroupBy[{self.grouping_algorithm.name}{mode_suffix(self)}]"
                f"(key={self.group_key})"
            )
        elif self.op == "project":
            head = f"Project({', '.join(a for a, __ in self.outputs)})"
        elif self.op == "limit":
            head = f"Limit({self.count})"
        else:
            head = self.op
        return (
            f"{head}  cost={self.cost:,.0f} rows={self.rows:,.0f} "
            f"props={self.properties.describe()}"
        )

    def explain(self, indent: int = 0, deep: bool = False) -> str:
        """Indented plan rendering; ``deep=True`` also prints each node's
        physiological recipe (the Figure 3 sub-plan)."""
        lines = [f"{'  ' * indent}{self.describe()}"]
        if deep and self.recipe is not None:
            for recipe_line in self.recipe.explain().splitlines():
                lines.append(f"{'  ' * (indent + 1)}| {recipe_line}")
        for child in self.children:
            lines.append(child.explain(indent + 1, deep))
        return "\n".join(lines)

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def max_granularity(self) -> Granularity:
        """The deepest granule level decided anywhere in this plan —
        ORGANELLE for shallow plans, deeper when recipes are attached."""
        deepest = Granularity.ORGANELLE
        for node in self.walk():
            if node.recipe is not None:
                deepest = max(deepest, node.recipe.max_level())
        return deepest


def mode_suffix(choice) -> str:
    """The loop/exchange/backend decision of a plan node — or of an
    optimiser option, which carries the same three fields — as a label
    suffix.

    Plain thread parallelism keeps the historical "/parallel" form so
    existing baselines and log greps stay valid; only the new modes
    grow a "@backend" qualifier."""
    if choice.exchange:
        return f"/exchange@{choice.backend}"
    if choice.parallel:
        return (
            "/parallel"
            if choice.backend == "thread"
            else f"/parallel@{choice.backend}"
        )
    return ""


def plan_fingerprint(node: PhysicalNode) -> str:
    """A stable digest of a plan's *shape*: the operator tree, every
    algorithm choice, and the parallelism decisions — but none of the
    cost/cardinality annotations.

    Two optimisations of the same query share this hash exactly when the
    optimiser made the same decisions; a catalog-statistics change that
    flips SPHJ to BSJ (or serial to parallel) produces a different hash.
    That makes "same query, different plan" a first-class observable:
    the hash is stamped into :class:`~repro.core.optimizer.base.
    OptimizationResult`, plan-cache entries, query-log rows, and
    :class:`~repro.obs.profile.QueryProfile` records, and the
    plan-regression sentinel (:mod:`repro.obs.sentinel`) keys its
    plan-flip detector on it.
    """
    parts: list[str] = []
    for depth, item in _walk_with_depth(node, 0):
        token = [str(depth), item.op]
        if item.op == "scan":
            token += [
                item.table_name,
                item.alias,
                item.scan_view[0],
                item.scan_view[1],
            ]
            if item.scan_view[0] == "btree":
                token.append(f"{item.index_range[0]}:{item.index_range[1]}")
            # Only non-default storage grows the token, so every plan
            # hash minted before the out-of-core path existed is stable.
            if item.scan_storage:
                token.append(item.scan_storage)
                token += [repr(p) for p in item.scan_predicates]
        elif item.op == "filter":
            token.append(repr(item.predicate))
        elif item.op == "sort":
            token.append(",".join(item.sort_keys))
        elif item.op == "join":
            assert item.join_algorithm is not None
            token += [
                item.join_algorithm.name,
                item.left_key,
                item.right_key,
                _mode_token(item),
            ]
        elif item.op == "group_by":
            assert item.grouping_algorithm is not None
            token += [
                item.grouping_algorithm.name,
                item.group_key,
                _mode_token(item),
            ]
        elif item.op == "project":
            token.append(",".join(alias for alias, __ in item.outputs))
        elif item.op == "limit":
            token.append(str(item.count))
        parts.append("|".join(token))
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _mode_token(node: PhysicalNode) -> str:
    """The loop/exchange/backend decision as one fingerprint token. The
    historical "parallel"/"serial" spellings are preserved for thread
    plans so pre-existing plan hashes (sentinel baselines, logged
    ``plan_hash`` values) survive unchanged; backend and exchange flips
    produce distinct tokens and so distinct hashes."""
    if node.exchange:
        return f"exchange@{node.backend}"
    if not node.parallel:
        return "serial"
    return "parallel" if node.backend == "thread" else f"parallel@{node.backend}"


def _walk_with_depth(node: PhysicalNode, depth: int):
    yield depth, node
    for child in node.children:
        yield from _walk_with_depth(child, depth + 1)


def plan_decisions(node: PhysicalNode) -> list[dict]:
    """The plan's decisions as a flat, JSON-friendly list (pre-order).

    Each dict names one operator-level decision — access path, algorithm
    choice, enforcer placement, parallelism — without cost/cardinality
    annotations, so two decision lists are comparable across catalog
    versions. Query-log optimize rows carry this list; the sentinel's
    flip alerts diff the committed list against the observed one with
    :func:`plan_diff` to say *why* a plan flipped, not just that it did.
    """
    decisions: list[dict] = []
    for depth, item in _walk_with_depth(node, 0):
        decision: dict = {"depth": depth, "op": item.op}
        if item.op == "scan":
            decision["table"] = item.table_name
            decision["alias"] = item.alias
            if item.scan_view[0]:
                decision["view"] = f"{item.scan_view[0]}({item.scan_view[1]})"
            if item.scan_storage:
                decision["storage"] = item.scan_storage
        elif item.op == "sort":
            decision["keys"] = list(item.sort_keys)
        elif item.op == "join":
            decision["algorithm"] = (
                item.join_algorithm.name if item.join_algorithm else ""
            )
            decision["keys"] = [item.left_key, item.right_key]
            decision["parallel"] = bool(item.parallel)
            # Only non-default modes appear, so decision lists committed
            # before these dials existed still compare equal.
            if item.exchange:
                decision["exchange"] = True
            if item.backend != "thread":
                decision["backend"] = item.backend
        elif item.op == "group_by":
            decision["algorithm"] = (
                item.grouping_algorithm.name if item.grouping_algorithm else ""
            )
            decision["keys"] = [item.group_key]
            decision["parallel"] = bool(item.parallel)
            if item.exchange:
                decision["exchange"] = True
            if item.backend != "thread":
                decision["backend"] = item.backend
        elif item.op == "limit":
            decision["count"] = item.count
        decisions.append(decision)
    return decisions


def decision_label(decision: dict) -> str:
    """One decision as a compact human-readable label, e.g.
    ``join[SPHJ](R.ID = S.R_ID)`` or ``scan(R via btree(ID))``."""
    op = decision.get("op", "?")
    if op == "scan":
        label = f"scan({decision.get('alias') or decision.get('table', '?')}"
        if decision.get("view"):
            label += f" via {decision['view']}"
        return label + ")"
    keys = decision.get("keys", [])
    if op == "join":
        algorithm = decision.get("algorithm", "?") + _decision_mode(decision)
        joined = " = ".join(keys) if keys else "?"
        return f"join[{algorithm}]({joined})"
    if op == "group_by":
        algorithm = decision.get("algorithm", "?") + _decision_mode(decision)
        return f"group_by[{algorithm}]({', '.join(keys) or '?'})"
    if op == "sort":
        return f"sort({', '.join(keys) or '?'})"
    if op == "limit":
        return f"limit({decision.get('count')})"
    return op


def _decision_mode(decision: dict) -> str:
    """The loop/exchange/backend suffix of a decision label."""
    suffix = ""
    if decision.get("exchange"):
        suffix = "/exchange"
    elif decision.get("parallel"):
        suffix = "/parallel"
    backend = decision.get("backend")
    if backend and backend != "thread":
        suffix += f"@{backend}"
    return suffix


def _decision_site(decision: dict) -> tuple:
    """What a decision is *about*, ignoring how it was implemented —
    the pairing key that turns a removed+added pair into "changed"."""
    op = decision.get("op", "")
    if op == "scan":
        return (op, decision.get("table", ""), decision.get("alias", ""))
    return (op, tuple(decision.get("keys", [])))


def plan_diff(old: list[dict], new: list[dict]) -> dict:
    """Structured diff between two :func:`plan_decisions` lists.

    Returns ``{"identical": bool, "changed": [...], "added": [...],
    "removed": [...]}`` where ``changed`` pairs decisions about the same
    site (same operator over the same keys/table) whose implementation
    differs — the "HJ became SPHJ on R.ID = S.R_ID" a flip alert wants —
    and ``added``/``removed`` hold the labels with no counterpart.
    """
    old_only = list(old)
    new_only = list(new)
    # Cancel exactly-equal decisions first (multiset semantics; depth is
    # ignored so pure tree re-shaping doesn't read as a change).
    for decision in list(old_only):
        stripped = {k: v for k, v in decision.items() if k != "depth"}
        for candidate in new_only:
            if {k: v for k, v in candidate.items() if k != "depth"} == stripped:
                old_only.remove(decision)
                new_only.remove(candidate)
                break
    changed: list[dict] = []
    for decision in list(old_only):
        site = _decision_site(decision)
        for candidate in list(new_only):
            if _decision_site(candidate) == site:
                keys = decision.get("keys") or [
                    decision.get("alias") or decision.get("table", "")
                ]
                changed.append(
                    {
                        "op": decision.get("op", ""),
                        "site": f"{decision.get('op', '')}({' = '.join(keys)})",
                        "from": decision_label(decision),
                        "to": decision_label(candidate),
                    }
                )
                old_only.remove(decision)
                new_only.remove(candidate)
                break
    removed = [decision_label(decision) for decision in old_only]
    added = [decision_label(decision) for decision in new_only]
    return {
        "identical": not (changed or removed or added),
        "changed": changed,
        "added": added,
        "removed": removed,
    }


def render_plan_diff(diff: dict) -> str:
    """One line summarising a :func:`plan_diff`, e.g.
    ``join[OJ](R.ID = S.R_ID) -> join[SPHJ](R.ID = S.R_ID); -sort(R.A)``."""
    if diff.get("identical"):
        return "plans identical"
    parts = [
        f"{change['from']} -> {change['to']}"
        for change in diff.get("changed", [])
    ]
    parts += [f"-{label}" for label in diff.get("removed", [])]
    parts += [f"+{label}" for label in diff.get("added", [])]
    return "; ".join(parts)


def to_operator(
    node: PhysicalNode,
    catalog: Catalog,
    validate: bool = True,
    views=None,
) -> PhysicalOperator:
    """Lower a physical plan onto the executable engine.

    :param validate: make precondition-carrying operators (OG, OJ) verify
        their preconditions at runtime, so that a plan whose property
        claims are wrong *fails loudly* instead of silently producing
        garbage. Integration tests rely on this.
    :param views: the :class:`repro.avs.registry.AVRegistry` the plan was
        optimised against. Required whenever the plan reads a scan-level
        view (sorted projection / dictionary); the artifact is read from
        the registry.
    :raises PlanError: when the plan uses a view but no registry (or the
        wrong registry) is supplied.

    Lowering carries one fact top-down that the plan itself does not
    record: the columns each node's ancestors read. The root's output is
    the query result, so it is asked for every column; a group-by needs
    its key and aggregate inputs, a filter adds its predicate's columns,
    a sort its keys, a join its two keys. Scans then read, and joins
    gather, only what is asked for — the plan, its cost and its
    fingerprint are untouched.
    """
    return _lower(node, catalog, validate, views, None)


def _lower(
    node: PhysicalNode,
    catalog: Catalog,
    validate: bool,
    views,
    required: frozenset[str] | None,
) -> PhysicalOperator:
    """Lower ``node`` given the columns its ancestors read (None = all)."""
    operator = _lower_node(node, catalog, validate, views, required)
    _annotate_estimates(operator, node)
    return operator


def _also(required: frozenset[str] | None, *columns: str) -> frozenset[str] | None:
    """``required`` plus the columns a node reads itself."""
    return None if required is None else required.union(columns)


def _groups_hint(node: PhysicalNode) -> int | None:
    """A group-by's distinct-key estimate as its hash-table size hint.

    Joins are not hinted: a join node's ``estimated_groups`` counts the
    keys *both* sides share, which undercuts the build side's distinct
    keys whenever the probe side is filtered, and an undersized table
    costs a rebuild.
    """
    groups = math.ceil(node.estimated_groups)
    return groups if groups > 0 else None


def _annotate_estimates(operator: PhysicalOperator, node: PhysicalNode) -> None:
    """Carry the optimiser's predictions onto the executable operator so
    instrumented execution can join estimates against actuals."""
    operator.estimated_rows = node.rows
    operator.estimated_cost = node.cost
    if node.op in ("join", "group_by"):
        operator.estimated_groups = node.estimated_groups
    operator.plan_op = node.op
    operator.plan_fingerprint = plan_fingerprint(node)
    if node.join_algorithm is not None:
        operator.plan_algorithm = node.join_algorithm.name
    elif node.grouping_algorithm is not None:
        operator.plan_algorithm = node.grouping_algorithm.name


def _lower_node(
    node: PhysicalNode,
    catalog: Catalog,
    validate: bool,
    views,
    required: frozenset[str] | None,
) -> PhysicalOperator:
    def child(index: int, needs: frozenset[str] | None) -> PhysicalOperator:
        return _lower(node.children[index], catalog, validate, views, needs)

    if node.op == "scan":
        return _lower_scan(node, catalog, views, required)
    if node.op == "filter":
        assert node.predicate is not None
        return Filter(
            child(0, _also(required, *node.predicate.referenced_columns())),
            node.predicate,
        )
    if node.op == "sort":
        return Sort(child(0, _also(required, *node.sort_keys)), list(node.sort_keys))
    if node.op == "join":
        assert node.join_algorithm is not None
        needs = _also(required, node.left_key, node.right_key)
        return Join(
            child(0, needs),
            child(1, needs),
            node.left_key,
            node.right_key,
            algorithm=node.join_algorithm,
            validate=validate,
            # Pin the optimiser's loop decision (True/False, never the
            # auto-detect None): a costed plan must execute as costed.
            parallel=node.parallel,
            exchange=node.exchange,
            backend=node.backend,
            columns=required,
        )
    if node.op == "group_by":
        assert node.grouping_algorithm is not None
        inputs = {spec.column for spec in node.aggregates if spec.column is not None}
        operator: PhysicalOperator = GroupBy(
            child(0, frozenset(inputs | {node.group_key})),
            key=node.group_key,
            aggregates=list(node.aggregates),
            algorithm=node.grouping_algorithm,
            num_distinct_hint=_groups_hint(node),
            validate=validate,
            parallel=node.parallel,
            exchange=node.exchange,
            backend=node.backend,
        )
        # If the grouping key column came out of a dictionary view, the
        # group keys are codes: plant the decode right after grouping.
        encoding = _dictionary_encoding_for(node, node.group_key, views)
        if encoding is not None:
            operator = DecodeColumn(operator, node.group_key, encoding)
        return operator
    if node.op == "project":
        read = frozenset().union(
            *(expression.referenced_columns() for __, expression in node.outputs)
        )
        return Project(child(0, read), list(node.outputs))
    if node.op == "limit":
        return Limit(child(0, required), node.count)
    raise PlanError(f"cannot lower node kind {node.op!r}")


def _narrowed(table, required: frozenset[str] | None):
    """``table`` projected to the ``required`` columns, in schema order
    (column data is shared)."""
    if required is None:
        return table
    return table.project(kept_columns(table.schema.names, required))


def _lower_scan(
    node: PhysicalNode,
    catalog: Catalog,
    views,
    required: frozenset[str] | None,
) -> PhysicalOperator:
    alias = node.alias or node.table_name
    kind, column = node.scan_view
    if not kind:
        table = catalog.table(node.table_name)
        # Disk residency is discovered from the catalog, not from the
        # node, so hand-built and greedy/exhaustive plans (which never
        # set scan_storage) still take the segment path.
        if is_disk_table(table):
            return SegmentScan(
                table,
                alias=alias,
                predicates=node.scan_predicates,
                columns=required,
            )
        return TableScan(_narrowed(table.qualified(alias), required))
    if views is None:
        raise PlanError(
            f"plan scans {node.table_name!r} through a {kind!r} view but no "
            "view registry was passed to to_operator()"
        )
    view = views.get(kind, node.table_name, column)
    if kind == "sorted_projection":
        return TableScan(_narrowed(view.artifact.qualified(alias), required))
    if kind == "dictionary":
        return TableScan(
            _narrowed(view.artifact.encoded_table.qualified(alias), required)
        )
    if kind == "btree":
        low, high = node.index_range
        indexed = f"{alias}.{column}"
        return IndexRangeScan(
            _narrowed(
                catalog.table(node.table_name).qualified(alias),
                _also(required, indexed),
            ),
            indexed,
            view.artifact,
            low,
            high,
        )
    raise PlanError(f"cannot lower scan view kind {kind!r}")


def _dictionary_encoding_for(group_node: PhysicalNode, key: str, views):
    """The DictionaryEncoded codec to decode ``key`` with, if the group
    key flows out of a dictionary-view scan below ``group_node``."""
    for node in group_node.walk():
        if node.op != "scan" or node.scan_view[0] != "dictionary":
            continue
        alias = node.alias or node.table_name
        if f"{alias}.{node.scan_view[1]}" == key:
            view = views.get("dictionary", node.table_name, node.scan_view[1])
            return view.artifact.encoding
    return None
