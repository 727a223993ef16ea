"""Implementation options: applicability and property derivation rules.

Each physical algorithm family is wrapped in an *option* that knows

* whether it is **applicable** given the input property vectors — the
  §2.1 preconditions (OG needs clustered input, SPH needs a dense domain,
  OJ needs both inputs sorted);
* which properties its output **derives** — §2.2's propagation (SPH and
  sort variants emit sorted output, probe-streaming joins preserve probe
  order, density survives value-preserving operators).

Options are produced from the physiological lattice
(:mod:`repro.core.physiological`) when the configuration is deep, or from
the blackbox textbook catalogue when it is shallow, so the *same* DP
consumes either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.granularity import Granularity
from repro.core.optimizer.base import OptimizerConfig, PropertyScope
from repro.core.physiological import (
    Granule,
    enumerate_recipes,
    logical_grouping,
    logical_join,
    recipe_algorithm,
    recipe_backend,
    recipe_join_algorithm,
    recipe_loop,
)
from repro.core.plan import implementation_label, mode_token
from repro.core.properties import Correlations, PropertyVector
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm, JoinOutputOrder
from repro.indexes.perfect_hash import MIN_DENSITY

#: the blackbox textbook operator catalogue available to SQO. SPH variants
#: are absent: without density tracking they can never be proven safe.
SQO_GROUPING_CATALOG = (
    GroupingAlgorithm.HG,
    GroupingAlgorithm.OG,
    GroupingAlgorithm.SOG,
    GroupingAlgorithm.BSG,
)
SQO_JOIN_CATALOG = (
    JoinAlgorithm.HJ,
    JoinAlgorithm.OJ,
    JoinAlgorithm.SOJ,
    JoinAlgorithm.BSJ,
)


def stays_dense(domain_size: float, rows: float) -> bool:
    """Does a column that is dense over ``domain_size`` values stay dense
    in a relation of ``rows`` rows drawn from it?

    A join keeps a value only if some surviving row carries it. With
    ``rows`` rows spread over the domain, the expected share of values
    still present is ``1 - exp(-rows / domain_size)``; the column counts
    as dense while that share reaches :data:`MIN_DENSITY`, the very
    threshold the SPH kernels' guards enforce at run time.
    """
    if domain_size <= 0:
        return False
    return -math.expm1(-rows / domain_size) >= MIN_DENSITY


class _Spelled:
    """How an option names itself, through the plan's one mode renderer
    (:func:`repro.core.plan.mode_token`). Options are immutable and
    shared by every candidate, so each spelling is rendered once.

    An option that makes no loop decision (every join) runs serially on
    the calling thread; :class:`GroupingOption` overrides both fields."""

    parallel = False
    backend = "thread"

    @functools.cached_property
    def mode(self) -> str:
        """``serial``, ``parallel`` or ``parallel@process``."""
        return mode_token(self.parallel, self.backend)

    @functools.cached_property
    def label(self) -> str:
        """``SPHJ``, ``HG/parallel``, ``HG/parallel@process``."""
        return implementation_label(self.algorithm.name, self.mode)


@dataclass(frozen=True)
class GroupingOption(_Spelled):
    """One candidate grouping implementation (with its deep recipe, if
    the configuration is deep).

    ``parallel`` reflects the recipe's MOLECULE-level ``loop`` binding:
    the shard-local runs merge through
    :func:`repro.engine.kernels.parallel.merge_partials`, whose output is
    always key-sorted — a property only a deep optimiser can exploit.
    ``backend`` names the pool the parallel work runs on.
    """

    algorithm: GroupingAlgorithm
    recipe: Granule | None = None
    parallel: bool = False
    backend: str = "thread"

    def applicable(
        self, props: PropertyVector, key: str, scope: PropertyScope
    ) -> bool:
        """May this implementation be used on an input with ``props``?"""
        if self.algorithm is GroupingAlgorithm.OG:
            return props.is_clustered_on(key)
        if self.algorithm is GroupingAlgorithm.SPHG:
            return scope is PropertyScope.FULL and props.is_dense(key)
        return True

    @functools.cached_property
    def output_order(self) -> str:
        """Which key order the output exhibits — the one fact of the
        option :meth:`derive` reads: ``"sorted"``, ``"first-occurrence"``
        (OG) or ``"hash"`` (HG).

        Sort variants emit key order by construction; the parallel
        loop's partial-merge sorts the merged keys regardless of the
        shard-local algorithm. A parallel option is never planned where
        the engine groups a join's build input, serially
        (:func:`~repro.core.optimizer.space.groups_on_build_side`), so
        the merge runs wherever a plan names it."""
        if self.parallel or self.algorithm in (
            GroupingAlgorithm.SPHG,
            GroupingAlgorithm.SOG,
            GroupingAlgorithm.BSG,
        ):
            return "sorted"
        if self.algorithm is GroupingAlgorithm.OG:
            return "first-occurrence"
        return "hash"

    def derive(
        self,
        props: PropertyVector,
        key: str,
        correlations: Correlations,
        scope: PropertyScope,
    ) -> PropertyVector:
        """Output properties of grouping with this implementation.

        The output relation has the key column plus aggregate columns;
        only the key can carry guarantees.
        """
        sorted_on: frozenset[str] = frozenset()
        clustered_on: frozenset[str] = frozenset()
        if self.output_order == "sorted":
            sorted_on = frozenset([key])
        elif self.output_order == "first-occurrence":
            # Clustered input gives first-occurrence order; only a fully
            # sorted input gives sorted output.
            if props.is_sorted_on(key):
                sorted_on = frozenset([key])
            clustered_on = frozenset([key])
        # HG: blackbox hash order — assume nothing (§2.1).
        dense: frozenset[str] = frozenset()
        if scope is PropertyScope.FULL and props.is_dense(key):
            # The output keys are exactly the distinct input keys; a dense
            # input domain stays dense.
            dense = frozenset([key])
        result = PropertyVector(
            sorted_on=sorted_on,
            clustered_on=clustered_on | sorted_on,
            dense=dense,
        )
        result = correlations.close_sorted(result)
        return result if scope is PropertyScope.FULL else result.restrict_to_orders()


@dataclass(frozen=True)
class JoinOption(_Spelled):
    """One candidate join implementation (build = left, probe = right).

    A join always runs the serial kernel: its recipe's ``loop`` is bound
    ``serial``, and its mode is ``serial``. Parallel work stays in the
    grouping's parallel load (Figure 3e).
    """

    algorithm: JoinAlgorithm
    recipe: Granule | None = None

    @functools.cached_property
    def output_order(self) -> JoinOutputOrder:
        """Which row order the output exhibits (Table 2 discussion) —
        the one fact of the option :meth:`derive` reads."""
        if self.algorithm in (JoinAlgorithm.OJ, JoinAlgorithm.SOJ):
            return JoinOutputOrder.KEY_SORTED
        return JoinOutputOrder.PROBE_ORDER

    def applicable(
        self,
        build_props: PropertyVector,
        probe_props: PropertyVector,
        build_key: str,
        probe_key: str,
        scope: PropertyScope,
    ) -> bool:
        """May this implementation join these inputs?"""
        if self.algorithm is JoinAlgorithm.OJ:
            return build_props.is_sorted_on(build_key) and probe_props.is_sorted_on(
                probe_key
            )
        if self.algorithm is JoinAlgorithm.SPHJ:
            return scope is PropertyScope.FULL and build_props.is_dense(build_key)
        return True

    def derive(
        self,
        build_props: PropertyVector,
        probe_props: PropertyVector,
        build_key: str,
        probe_key: str,
        correlations: Correlations,
        scope: PropertyScope,
        rows: float,
        domains: Mapping[str, float],
    ) -> PropertyVector:
        """Output properties of this join.

        :param rows: estimated output rows of the join.
        :param domains: base-table distinct count per qualified column —
            for a dense column, the size of its domain.

        Probe-streaming joins (HJ/SPHJ/BSJ) preserve the probe side's row
        order, so all probe-side guarantees survive; if the probe stream
        is sorted on the join key, the output is also sorted on the
        *build* key (equal values), and correlation closure then extends
        that to monotone-related build columns — the mechanism behind
        Figure 5's 2.8x case (DESIGN.md substitution #5).
        """
        if self.output_order is JoinOutputOrder.PROBE_ORDER:
            sorted_on = set(probe_props.sorted_on)
            clustered_on = set(probe_props.clustered_on)
            if probe_key in probe_props.sorted_on:
                sorted_on.add(build_key)
            if probe_key in probe_props.clustered_on:
                clustered_on.add(build_key)
        else:
            sorted_on = {build_key, probe_key}
            clustered_on = set(sorted_on)
        # Density is a value-domain property: an inner join removes rows,
        # never values' positions in the domain, so a dense column stays
        # dense as long as enough rows survive to reference (about) every
        # value — which a filtered or small input breaks. Documented as
        # substitution #5c.
        dense = {
            column
            for column in build_props.dense | probe_props.dense
            if stays_dense(domains.get(column, 0.0), rows)
        }
        result = PropertyVector(
            sorted_on=frozenset(sorted_on),
            clustered_on=frozenset(clustered_on) | frozenset(sorted_on),
            dense=frozenset(dense),
        )
        result = correlations.close_sorted(result)
        return result if scope is PropertyScope.FULL else result.restrict_to_orders()


def _recipe_mode(recipe: Granule) -> tuple[bool, str]:
    """(parallel, backend) of a recipe, normalised.

    Normalisation collapses the spurious molecule products: a serial
    recipe has no parallel work, so its ``backend`` binding is
    meaningless and pins to ``"thread"`` (keeping one DP entry per
    executable configuration).
    """
    parallel = recipe_loop(recipe) == "parallel"
    return parallel, recipe_backend(recipe) if parallel else "thread"


def grouping_options(
    config: OptimizerConfig, workers: int = 1
) -> tuple[GroupingOption, ...]:
    """The grouping implementation space of a configuration.

    Shallow configurations get the blackbox catalogue; deep ones get the
    recipes of the physiological lattice, deduplicated by (executable
    algorithm, loop mode, backend) — molecule variants with
    equal paper-model cost collapse to their default representative, kept
    distinct only in the recipe.

    The lattice is static, so this is the paper's *offline* half of the
    enumeration: the space is a pure function of ``(is_deep,
    max_granularity, backend, workers > 1)`` and is enumerated once per
    such configuration; every later search starts from the same
    immutable tuple.

    :param workers: the executor's worker count. Parallel-loop recipes
        are enumerated only when ``workers > 1`` — with one worker they
        are strictly worse (merge + dispatch overhead on top of the
        serial cost), so they are not worth DP entries — and
        process-backend recipes only when ``config.backend ==
        "process"`` (no process pool, no process plans). Shallow
        configurations never see the ``loop`` granule at all: it is
        below SQO's reach.
    """
    return _grouping_options(
        config.is_deep, config.max_granularity, config.backend, workers > 1
    )


@functools.cache
def _grouping_options(
    is_deep: bool, max_granularity: Granularity, config_backend: str, many_workers: bool
) -> tuple[GroupingOption, ...]:
    if not is_deep:
        return tuple(GroupingOption(algorithm) for algorithm in SQO_GROUPING_CATALOG)
    options: list[GroupingOption] = []
    seen: set[tuple[GroupingAlgorithm, bool, str]] = set()
    for recipe in enumerate_recipes(logical_grouping(), max_granularity):
        algorithm = recipe_algorithm(recipe)
        parallel, backend = _recipe_mode(recipe)
        if parallel and not many_workers:
            continue
        if backend == "process" and config_backend != "process":
            continue
        key = (algorithm, parallel, backend)
        if key in seen:
            continue
        seen.add(key)
        options.append(GroupingOption(algorithm, recipe, parallel, backend))
    return tuple(options)


def join_options(config: OptimizerConfig) -> tuple[JoinOption, ...]:
    """The join implementation space of a configuration: one option per
    algorithm, whatever the worker count or backend (enumerated once per
    configuration, like :func:`grouping_options`). Deep configurations
    keep each algorithm's first serial-loop recipe of the lattice."""
    return _join_options(config.is_deep, config.max_granularity)


@functools.cache
def _join_options(
    is_deep: bool, max_granularity: Granularity
) -> tuple[JoinOption, ...]:
    if not is_deep:
        return tuple(JoinOption(algorithm) for algorithm in SQO_JOIN_CATALOG)
    options: dict[JoinAlgorithm, JoinOption] = {}
    for recipe in enumerate_recipes(logical_join(), max_granularity):
        algorithm = recipe_join_algorithm(recipe)
        if algorithm not in options and recipe_loop(recipe) == "serial":
            options[algorithm] = JoinOption(algorithm, recipe)
    return tuple(options.values())
