"""Deep physical plans: the optimiser's output.

A :class:`PhysicalNode` tree records *every* decision the optimiser made —
which algorithm family implements each operator (ORGANELLE level), and,
for deep plans, the full physiological recipe below it (MACROMOLECULE /
MOLECULE levels, Figure 3). Each node holds exactly one decision record:
a scan its :class:`AccessPath`, a join or group-by the
:class:`Implementation` the plan space priced, a filter / sort / project
/ limit its one parameter. ``explain()`` renders the tree with granule
depth annotations; :func:`to_operator` lowers the plan onto the executable
engine so optimised plans actually run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.granularity import Granularity
from repro.core.properties import PropertyVector
from repro.engine.aggregates import AggregateSpec
from repro.engine.expressions import Expression
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

if TYPE_CHECKING:
    from repro.core.optimizer.rules import GroupingOption, JoinOption

#: the ops whose decision is an :class:`Implementation`.
ALGORITHMIC_OPS = ("join", "group_by")


@dataclass(frozen=True)
class AccessPath:
    """How a scan reads its table: the decision record of a ``scan`` node,
    built by :func:`repro.core.optimizer.space.access_paths`."""

    table: str
    alias: str = ""
    #: Algorithmic View applied at this scan: (view kind value, raw column
    #: name), or ("", "") for a plain base-table scan. Lowering a plan
    #: whose scans use views requires passing the registry to
    #: :func:`to_operator`.
    view: tuple[str, str] = ("", "")
    #: for a 'btree' view: the inclusive value range fetched from the
    #: index.
    index_range: tuple[int, int] = (0, 0)
    #: where the scanned table lives: "" for in-memory (the default,
    #: absent from fingerprints so historical hashes survive), "disk"
    #: for a disk-resident table lowered to a SegmentScan.
    storage: str = ""
    #: predicates pushed down to the scan for zone-map segment skipping
    #: (the Filter above still applies them row-wise; results are
    #: identical with or without the pushdown).
    pushed: tuple[Expression, ...] = ()

    @property
    def name(self) -> str:
        """The name the scan's columns are qualified with."""
        return self.alias or self.table


@dataclass(frozen=True)
class Implementation:
    """The decision record of a ``join`` or ``group_by`` node: the very
    option object the plan space iterated and priced, with the keys it
    runs on — ``(build key, probe key)`` for a join, ``(group key,)``
    for a grouping, which also carries its aggregates. The option holds
    the algorithm, the deep recipe and the loop / backend mode; nothing of it is copied onto the node."""

    option: JoinOption | GroupingOption
    keys: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...] = ()


@dataclass(frozen=True)
class PhysicalNode:
    """One node of an optimised physical plan.

    ``op`` discriminates the node type ('scan' | 'filter' | 'sort' |
    'join' | 'group_by' | 'project' | 'limit'); ``decision`` is what was
    decided there — an :class:`AccessPath`, the filter's predicate, the
    sort keys, an :class:`Implementation`, the project's
    ``(alias, expression)`` outputs, or the limit's row count. ``cost``
    is cumulative over the subtree, in the cost model's abstract units.
    """

    op: str
    decision: object
    children: tuple["PhysicalNode", ...] = ()
    rows: float = 0.0
    local_cost: float = 0.0
    cost: float = 0.0
    #: estimated distinct groups this node builds/probes over (join and
    #: group-by nodes; 0.0 elsewhere) — the cost model's second input,
    #: recorded so EXPLAIN WHY can re-price the node and a group-by can
    #: size its hash table.
    estimated_groups: float = 0.0
    properties: PropertyVector = field(default_factory=PropertyVector)

    @property
    def option(self) -> JoinOption | GroupingOption | None:
        """The option a join or group-by node runs; None elsewhere."""
        return self.decision.option if self.op in ALGORITHMIC_OPS else None

    # Kept for ``perf/``, which reads the algorithm of a plan's nodes.
    @property
    def join_algorithm(self):
        """A join node's algorithm; None elsewhere."""
        return self.decision.option.algorithm if self.op == "join" else None

    @property
    def grouping_algorithm(self):
        """A group-by node's algorithm; None elsewhere."""
        return self.decision.option.algorithm if self.op == "group_by" else None

    # -- rendering ----------------------------------------------------------

    @property
    def label(self) -> str:
        """The node's head as plan summaries spell it, children aside:
        ``HG/parallel@process``, ``scan(S via btree(R_ID))``,
        ``sort[S.R_ID]``, ``filter``."""
        decided = self.decision
        if self.op in ALGORITHMIC_OPS:
            return decided.option.label
        if self.op == "scan":
            kind, column = decided.view
            return f"scan({decided.name}{f' via {kind}({column})' if kind else ''})"
        if self.op == "sort":
            return f"sort[{','.join(decided)}]"
        return self.op

    def describe(self) -> str:
        """One-line description with algorithm, cost, and properties."""
        decided = self.decision
        if self.op == "scan":
            head = f"Scan({decided.table}"
            if decided.alias and decided.alias != decided.table:
                head += f" AS {decided.alias}"
            if decided.view[0]:
                head += f" via AV[{decided.view[0]}({decided.view[1]})]"
            head += ")"
            if decided.storage == "disk":
                head += " [disk]"
                if decided.pushed:
                    head += f" pushed={len(decided.pushed)}"
        elif self.op == "filter":
            head = f"Filter({decided!r})"
        elif self.op == "sort":
            head = f"Sort(by={list(decided)})"
        elif self.op == "join":
            head = f"Join[{self.label}]({' = '.join(decided.keys)})"
        elif self.op == "group_by":
            head = f"GroupBy[{self.label}](key={decided.keys[0]})"
        elif self.op == "project":
            head = f"Project({', '.join(a for a, __ in decided)})"
        elif self.op == "limit":
            head = f"Limit({decided})"
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
        option = self.option
        if deep and option is not None and option.recipe is not None:
            for recipe_line in option.recipe.explain().splitlines():
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
            option = node.option
            if option is not None and option.recipe is not None:
                deepest = max(deepest, option.recipe.max_level())
        return deepest


def mode_token(parallel: bool, backend: str) -> str:
    """The one spelling of a loop/backend decision: ``serial``,
    ``parallel`` or ``parallel@process``. Fingerprints carry it as a
    token; labels append it to the algorithm (see
    :func:`implementation_label`).

    Plain thread parallelism keeps the historical "parallel" form so
    existing plan hashes (sentinel baselines, logged ``plan_hash``
    values) and log greps stay valid; only the process backend carries
    an "@backend" qualifier."""
    if not parallel:
        return "serial"
    return "parallel" if backend == "thread" else f"parallel@{backend}"


def implementation_label(algorithm: str, mode: str) -> str:
    """``SPHJ``, ``HG/parallel``, ``HG/parallel@process``: an algorithm
    named with its :func:`mode_token`, serial left unmarked."""
    return algorithm if mode == "serial" else f"{algorithm}/{mode}"


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
        decided = item.decision
        if item.op == "scan":
            token += [decided.table, decided.alias, *decided.view]
            if decided.view[0] == "btree":
                token.append(f"{decided.index_range[0]}:{decided.index_range[1]}")
            # Only non-default storage grows the token, so every plan
            # hash minted before the out-of-core path existed is stable.
            if decided.storage:
                token.append(decided.storage)
                token += [repr(p) for p in decided.pushed]
        elif item.op in ALGORITHMIC_OPS:
            option = decided.option
            token += [option.algorithm.name, *decided.keys, option.mode]
        elif item.op == "filter":
            token.append(repr(decided))
        elif item.op == "sort":
            token.append(",".join(decided))
        elif item.op == "project":
            token.append(",".join(alias for alias, __ in decided))
        elif item.op == "limit":
            token.append(str(decided))
        parts.append("|".join(token))
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


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
    rows: list[dict] = []
    for depth, item in _walk_with_depth(node, 0):
        row: dict = {"depth": depth, "op": item.op}
        decided = item.decision
        if item.op == "scan":
            row["table"] = decided.table
            row["alias"] = decided.alias
            if decided.view[0]:
                row["view"] = f"{decided.view[0]}({decided.view[1]})"
            if decided.storage:
                row["storage"] = decided.storage
        elif item.op == "sort":
            row["keys"] = list(decided)
        elif item.op in ALGORITHMIC_OPS:
            option = decided.option
            row["algorithm"] = option.algorithm.name
            row["keys"] = list(decided.keys)
            row["parallel"] = option.parallel
            # Only a non-default backend appears, so decision lists
            # committed before that dial existed still compare equal.
            if option.backend != "thread":
                row["backend"] = option.backend
        elif item.op == "limit":
            row["count"] = decided
        rows.append(row)
    return rows


def decision_label(decision: dict) -> str:
    """One decision as a compact human-readable label, e.g.
    ``join[SPHJ](R.ID = S.R_ID)`` or ``scan(R via btree(ID))``; an
    algorithm carries its mode exactly as ``describe()`` spells it."""
    op = decision.get("op", "?")
    if op == "scan":
        label = f"scan({decision.get('alias') or decision.get('table', '?')}"
        if decision.get("view"):
            label += f" via {decision['view']}"
        return label + ")"
    keys = decision.get("keys", [])
    if op in ALGORITHMIC_OPS:
        algorithm = implementation_label(
            decision.get("algorithm", "?"),
            mode_token(
                bool(decision.get("parallel")), decision.get("backend", "thread")
            ),
        )
        if op == "join":
            return f"join[{algorithm}]({' = '.join(keys) if keys else '?'})"
        return f"group_by[{algorithm}]({', '.join(keys) or '?'})"
    if op == "sort":
        return f"sort({', '.join(keys) or '?'})"
    if op == "limit":
        return f"limit({decision.get('count')})"
    return op


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
    operator.plan_op = node.op
    operator.plan_fingerprint = plan_fingerprint(node)
    option = node.option
    if option is not None:
        operator.estimated_groups = node.estimated_groups
        operator.plan_algorithm = option.algorithm.name


def _lower_node(
    node: PhysicalNode,
    catalog: Catalog,
    validate: bool,
    views,
    required: frozenset[str] | None,
) -> PhysicalOperator:
    def child(index: int, needs: frozenset[str] | None) -> PhysicalOperator:
        return _lower(node.children[index], catalog, validate, views, needs)

    decided = node.decision
    if node.op == "scan":
        return _lower_scan(decided, catalog, views, required)
    if node.op == "filter":
        return Filter(
            child(0, _also(required, *decided.referenced_columns())), decided
        )
    if node.op == "sort":
        return Sort(child(0, _also(required, *decided)), list(decided))
    option = node.option
    if node.op == "join":
        needs = _also(required, *decided.keys)
        return Join(
            child(0, needs),
            child(1, needs),
            *decided.keys,
            algorithm=option.algorithm,
            validate=validate,
            columns=required,
        )
    if node.op == "group_by":
        # A costed plan must execute as costed: the option's loop decision,
        # with its backend.
        (key,) = decided.keys
        inputs = {spec.column for spec in decided.aggregates if spec.column is not None}
        operator: PhysicalOperator = GroupBy(
            child(0, frozenset(inputs | {key})),
            key=key,
            aggregates=list(decided.aggregates),
            algorithm=option.algorithm,
            num_distinct_hint=_groups_hint(node),
            validate=validate,
            parallel=option.parallel,
            backend=option.backend,
        )
        # If the grouping key column came out of a dictionary view, the
        # group keys are codes: plant the decode right after grouping.
        encoding = _dictionary_encoding_for(node, key, views)
        if encoding is not None:
            operator = DecodeColumn(operator, key, encoding)
        return operator
    if node.op == "project":
        read = frozenset().union(
            *(expression.referenced_columns() for __, expression in decided)
        )
        return Project(child(0, read), list(decided))
    if node.op == "limit":
        return Limit(child(0, required), decided)
    raise PlanError(f"cannot lower node kind {node.op!r}")


def _narrowed(table, required: frozenset[str] | None):
    """``table`` projected to the ``required`` columns, in schema order
    (column data is shared)."""
    if required is None:
        return table
    return table.project(kept_columns(table.schema.names, required))


def _lower_scan(
    path: AccessPath,
    catalog: Catalog,
    views,
    required: frozenset[str] | None,
) -> PhysicalOperator:
    alias = path.name
    kind, column = path.view
    if not kind:
        table = catalog.table(path.table)
        # Disk residency is discovered from the catalog, not from the
        # access path, so hand-built and greedy/exhaustive plans (which
        # never set its storage) still take the segment path.
        if is_disk_table(table):
            return SegmentScan(
                table,
                alias=alias,
                predicates=path.pushed,
                columns=required,
            )
        return TableScan(_narrowed(table.qualified(alias), required))
    if views is None:
        raise PlanError(
            f"plan scans {path.table!r} through a {kind!r} view but no "
            "view registry was passed to to_operator()"
        )
    view = views.get(kind, path.table, column)
    if kind == "sorted_projection":
        return TableScan(_narrowed(view.artifact.qualified(alias), required))
    if kind == "dictionary":
        return TableScan(
            _narrowed(view.artifact.encoded_table.qualified(alias), required)
        )
    if kind == "btree":
        indexed = f"{alias}.{column}"
        table = catalog.table(path.table).qualified(alias)
        return IndexRangeScan(
            _narrowed(table, _also(required, indexed)),
            indexed,
            view.artifact,
            *path.index_range,
        )
    raise PlanError(f"cannot lower scan view kind {kind!r}")


def _dictionary_encoding_for(group_node: PhysicalNode, key: str, views):
    """The DictionaryEncoded codec to decode ``key`` with, if the group
    key flows out of a dictionary-view scan below ``group_node``."""
    for node in group_node.walk():
        if node.op != "scan" or node.decision.view[0] != "dictionary":
            continue
        path = node.decision
        if f"{path.name}.{path.view[1]}" == key:
            view = views.get("dictionary", path.table, path.view[1])
            return view.artifact.encoding
    return None
