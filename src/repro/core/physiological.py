"""The physiological algebra: granules and recursive unnesting (Fig. 2/3).

§6 ("Physiological Algebra") asks for *"the right components to use in DQO
... a physiological component set akin to relational algebra yet including
both logical and physical aspects"*. This module is that component set for
grouping and joins:

* a :class:`Granule` is a node in an implementation recipe — Figure 3's
  "bubbles" — tagged with its Table 1 :class:`Granularity` level;
* :func:`unnest` expands one granule into its implementation alternatives
  one level deeper — Figure 3's ``unnest`` arrows;
* :func:`enumerate_recipes` explores the whole lattice down to a depth
  cap, which is exactly the SQO/DQO dial: capping at ORGANELLE yields the
  textbook operator catalogue, deeper caps open macro-molecule (index
  structure) and molecule (hash function, loop mode) decisions.

A *complete* recipe maps to a concrete executable configuration
(:func:`recipe_algorithm` / :func:`recipe_join_algorithm`) and declares
its property preconditions (:func:`recipe_requirements`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.granularity import Granularity
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm
from repro.errors import PlanError


@dataclass(frozen=True)
class ParamSpec:
    """One open decision of a granule kind: name, depth, alternatives.

    ``default`` is the *developer's choice* — what you get when the
    optimiser is not allowed to descend to this level (Table 1's
    "optimised by developer" cells).
    """

    name: str
    level: Granularity
    options: tuple[str, ...]
    default: str


@dataclass(frozen=True)
class Granule:
    """A node of an implementation recipe (one bubble of Figure 3)."""

    kind: str
    level: Granularity
    #: bound parameters, name -> chosen option.
    bindings: tuple[tuple[str, str], ...] = ()
    children: tuple["Granule", ...] = ()

    def binding(self, name: str) -> str | None:
        """The bound value of parameter ``name``, if any."""
        for key, value in self.bindings:
            if key == name:
                return value
        return None

    def with_binding(self, name: str, value: str) -> "Granule":
        """A copy with one more parameter bound."""
        return replace(self, bindings=self.bindings + ((name, value),))

    def explain(self, indent: int = 0) -> str:
        """Indented rendering with level tags — a textual Figure 3 node."""
        bound = ", ".join(f"{k}={v}" for k, v in self.bindings)
        suffix = f" [{bound}]" if bound else ""
        lines = [f"{'  ' * indent}{self.kind}{suffix}  <{self.level.name}>"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def max_level(self) -> Granularity:
        """Deepest granularity level appearing in this recipe."""
        return max(node.level for node in self.walk())


@dataclass(frozen=True)
class Requirements:
    """Property preconditions a recipe imposes on its input stream."""

    needs_clustered: bool = False
    needs_sorted: bool = False
    needs_dense: bool = False


# ---------------------------------------------------------------------------
# Seeds: the purely logical operators (Figure 3a).
# ---------------------------------------------------------------------------


def logical_grouping() -> Granule:
    """Γ — the logical grouping operator, Figure 3(a)."""
    return Granule(kind="group_by", level=Granularity.CELL)


def logical_join() -> Granule:
    """⋈ — the logical join; per footnote 1 a co-group with two inputs."""
    return Granule(kind="join", level=Granularity.CELL)


# ---------------------------------------------------------------------------
# Unnesting rules (Figure 3's arrows).
# ---------------------------------------------------------------------------

#: parameters each granule kind leaves open, by kind.
PARAM_SPECS: dict[str, tuple[ParamSpec, ...]] = {
    "hash_table": (
        ParamSpec(
            name="hash_function",
            level=Granularity.MOLECULE,
            options=("murmur3", "identity"),
            default="murmur3",
        ),
        ParamSpec(
            name="table_kind",
            level=Granularity.MOLECULE,
            options=("open_addressing", "chained"),
            default="open_addressing",
        ),
    ),
    "bulkload": (
        ParamSpec(
            name="loop",
            level=Granularity.MOLECULE,
            options=("serial", "parallel"),
            default="serial",
        ),
        ParamSpec(
            name="backend",
            level=Granularity.MOLECULE,
            options=("thread", "process"),
            default="thread",
        ),
    ),
}


def _index_partition(index_granule: Granule) -> Granule:
    """``partition_by`` realised as bulkload-an-index + index-scan
    (Figure 3c): the index choice is the macro-molecule decision."""
    return Granule(
        kind="index_partition",
        level=Granularity.MACROMOLECULE,
        children=(
            Granule(
                kind="bulkload",
                level=Granularity.MACROMOLECULE,
                children=(index_granule,),
            ),
            Granule(kind="index_scan", level=Granularity.MACROMOLECULE),
        ),
    )


def unnest(granule: Granule) -> list[Granule]:
    """One unnest step: the implementation alternatives of ``granule``.

    Returns an empty list when the granule has no deeper expansion
    (it is already a leaf of the lattice).
    """
    if granule.kind == "group_by":
        # Figure 3(a) -> (b): Γ = partitionBy ∘ (bundle of γ aggregates).
        return [
            Granule(
                kind="partitioned_grouping",
                level=Granularity.ORGANELLE,
                children=(
                    Granule(kind="partition_by", level=Granularity.ORGANELLE),
                    Granule(
                        kind="aggregate_bundle", level=Granularity.ORGANELLE
                    ),
                ),
            )
        ]
    if granule.kind == "join":
        # Footnote 1: a join is a co-group of two inputs + per-co-group
        # aggregation; same partition_by decision space.
        return [
            Granule(
                kind="co_group",
                level=Granularity.ORGANELLE,
                children=(
                    Granule(kind="partition_by", level=Granularity.ORGANELLE),
                    Granule(
                        kind="match_bundle", level=Granularity.ORGANELLE
                    ),
                ),
            )
        ]
    if granule.kind == "partition_by":
        # Figure 3(b) -> (c): how to realise the partitioning. The first
        # alternative is the developer default taken when the depth cap
        # forbids making this decision — the textbook hash path, matching
        # the paper's SQO arrow "translate to hash-based grouping".
        return [
            _index_partition(
                Granule(kind="hash_table", level=Granularity.MOLECULE)
            ),
            Granule(kind="presorted_partition", level=Granularity.MACROMOLECULE),
            Granule(kind="sort_partition", level=Granularity.MACROMOLECULE),
            _index_partition(
                Granule(kind="sph_array", level=Granularity.MOLECULE)
            ),
            _index_partition(
                Granule(kind="sorted_array", level=Granularity.MOLECULE)
            ),
        ]
    return []


def _bind_params(granule: Granule, max_level: Granularity) -> list[Granule]:
    """Enumerate bindings of this granule's own open params up to
    ``max_level``; deeper params silently take their defaults."""
    specs = PARAM_SPECS.get(granule.kind, ())
    results = [granule]
    for spec in specs:
        if granule.binding(spec.name) is not None:
            continue
        next_results = []
        if spec.level <= max_level:
            for option in spec.options:
                next_results.extend(
                    g.with_binding(spec.name, option) for g in results
                )
        else:
            next_results.extend(
                g.with_binding(spec.name, spec.default) for g in results
            )
        results = next_results
    return results


def enumerate_recipes(
    seed: Granule, max_level: Granularity = Granularity.MOLECULE
) -> list[Granule]:
    """All complete recipes reachable from ``seed``, unnesting no deeper
    than ``max_level``.

    At ``max_level=ORGANELLE`` the expansion stops at the physiological
    operator (Figure 3b) — the developer's defaults fill in everything
    below, which models SQO's single-step "translate to hash-based
    grouping". Deeper caps hand more decisions to the enumeration.
    """
    expansions = unnest(seed)
    if expansions and seed.level < max_level:
        recipes: list[Granule] = []
        for alternative in expansions:
            recipes.extend(enumerate_recipes(alternative, max_level))
        return recipes
    if expansions:
        # Depth cap reached with decisions left: take the developer default
        # (the first, textbook alternative), recursing only to bind params.
        seed = expansions[0] if seed.level >= max_level else seed
    completed_children: list[list[Granule]] = [
        enumerate_recipes(child, max_level) for child in seed.children
    ]
    bound_selves = _bind_params(seed, max_level)
    if not completed_children:
        return bound_selves
    # Cartesian product of child alternatives.
    results: list[Granule] = []
    for bound in bound_selves:
        combos: list[tuple[Granule, ...]] = [()]
        for child_options in completed_children:
            combos = [
                prefix + (option,)
                for prefix in combos
                for option in child_options
            ]
        results.extend(replace(bound, children=combo) for combo in combos)
    return results


# ---------------------------------------------------------------------------
# Interpreting complete recipes.
# ---------------------------------------------------------------------------


def _partition_strategy(recipe: Granule) -> Granule:
    """The partitioning granule inside a complete grouping/join recipe."""
    for node in recipe.walk():
        if node.kind in (
            "presorted_partition",
            "sort_partition",
            "index_partition",
            "partition_by",
        ):
            return node
    raise PlanError(f"no partition strategy in recipe:\n{recipe.explain()}")


def _index_kind(partition: Granule) -> str | None:
    for node in partition.walk():
        if node.kind in ("hash_table", "sph_array", "sorted_array"):
            return node.kind
    return None


def recipe_algorithm(recipe: Granule) -> GroupingAlgorithm:
    """Map a complete grouping recipe to its executable algorithm."""
    partition = _partition_strategy(recipe)
    if partition.kind == "presorted_partition":
        return GroupingAlgorithm.OG
    if partition.kind == "sort_partition":
        return GroupingAlgorithm.SOG
    if partition.kind == "partition_by":
        # Unexpanded organelle: the developer default is the textbook
        # hash-based operator (the paper's SQO translation).
        return GroupingAlgorithm.HG
    index = _index_kind(partition)
    if index == "hash_table":
        return GroupingAlgorithm.HG
    if index == "sph_array":
        return GroupingAlgorithm.SPHG
    if index == "sorted_array":
        return GroupingAlgorithm.BSG
    raise PlanError(f"unmappable recipe:\n{recipe.explain()}")


def recipe_join_algorithm(recipe: Granule) -> JoinAlgorithm:
    """Map a complete join (co-group) recipe to its executable algorithm."""
    partition = _partition_strategy(recipe)
    if partition.kind == "presorted_partition":
        return JoinAlgorithm.OJ
    if partition.kind == "sort_partition":
        return JoinAlgorithm.SOJ
    if partition.kind == "partition_by":
        return JoinAlgorithm.HJ
    index = _index_kind(partition)
    if index == "hash_table":
        return JoinAlgorithm.HJ
    if index == "sph_array":
        return JoinAlgorithm.SPHJ
    if index == "sorted_array":
        return JoinAlgorithm.BSJ
    raise PlanError(f"unmappable recipe:\n{recipe.explain()}")


def recipe_requirements(recipe: Granule) -> Requirements:
    """The input-property preconditions of a complete recipe."""
    partition = _partition_strategy(recipe)
    if partition.kind == "presorted_partition":
        return Requirements(needs_clustered=True, needs_sorted=True)
    if _index_kind(partition) == "sph_array":
        return Requirements(needs_dense=True)
    return Requirements()


def recipe_hash_function(recipe: Granule) -> str:
    """The bound hash function of a recipe (default when not hash-based)."""
    for node in recipe.walk():
        if node.kind == "hash_table":
            return node.binding("hash_function") or "murmur3"
    return "murmur3"


def recipe_backend(recipe: Granule) -> str:
    """The bound MOLECULE-level execution backend: ``'thread'`` or
    ``'process'``.

    The binding lives on the ``bulkload`` granule, next to the ``loop``
    it serves.
    """
    for node in recipe.walk():
        if node.kind == "bulkload":
            return node.binding("backend") or "thread"
    return "thread"


def recipe_loop(recipe: Granule) -> str:
    """The bound MOLECULE-level ``loop`` mode of a recipe: ``'serial'`` or
    ``'parallel'``.

    The ``loop`` parameter lives on the ``bulkload`` granule (Figure 3e's
    "parallel load"), so only index-partition recipes — the executable
    HG/SPHG/BSG and HJ/SPHJ/BSJ families — ever carry a parallel binding;
    every other recipe is serial by construction.
    """
    for node in recipe.walk():
        if node.kind == "bulkload":
            return node.binding("loop") or "serial"
    return "serial"


def enumerate_prefixes(
    seed: Granule, bound_level: Granularity
) -> list[Granule]:
    """All *partial* recipes with every decision at or above
    ``bound_level`` made and everything deeper left open.

    Unlike :func:`enumerate_recipes`, reaching the depth cap leaves the
    granule unexpanded and its deeper parameters unbound — the shape a
    partial Algorithmic View (§6) freezes offline, to be completed by
    query-time enumeration.
    """
    expansions = unnest(seed)
    if expansions and seed.level < bound_level:
        prefixes: list[Granule] = []
        for alternative in expansions:
            prefixes.extend(enumerate_prefixes(alternative, bound_level))
        return prefixes
    if expansions:
        # Cap reached: leave the decision open (no default substitution).
        return [seed]
    child_options = [
        enumerate_prefixes(child, bound_level) for child in seed.children
    ]
    # Bind only this granule's params at or above the bound level.
    bound_selves = [seed]
    for spec in PARAM_SPECS.get(seed.kind, ()):
        if seed.binding(spec.name) is not None or spec.level > bound_level:
            continue
        bound_selves = [
            granule.with_binding(spec.name, option)
            for granule in bound_selves
            for option in spec.options
        ]
    if not child_options:
        return bound_selves
    results: list[Granule] = []
    for bound in bound_selves:
        combos: list[tuple[Granule, ...]] = [()]
        for options in child_options:
            combos = [
                prefix + (option,) for prefix in combos for option in options
            ]
        results.extend(replace(bound, children=combo) for combo in combos)
    return results


def count_recipes(max_level: Granularity) -> int:
    """Size of the grouping implementation space at a given depth cap —
    the enumeration-cost measure of the depth-cap ablation."""
    return len(enumerate_recipes(logical_grouping(), max_level))
