"""Partial Algorithmic Views (§6).

*"Rather than fully materialising parts of a deep query plan into an AV,
or ... not materialising it at all, there is an interesting middle-ground:
it makes sense to partially optimise an AV offline and leave some
flexibility for DQO at query time."*

A :class:`PartialAlgorithmicView` freezes the decisions of a recipe down
to a chosen granularity level offline; the decisions below stay open for
query time. The measurable effect is the shrunken query-time enumeration
space — :meth:`query_time_recipes` vs optimising from scratch — which
:func:`enumeration_savings` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.granularity import Granularity
from repro.core.physiological import (
    Granule,
    enumerate_prefixes,
    enumerate_recipes,
    logical_grouping,
)
from repro.errors import ViewError


@dataclass(frozen=True)
class PartialAlgorithmicView:
    """A recipe frozen down to ``bound_level``; deeper decisions are open.

    ``prefix`` is the partially expanded/bound granule tree chosen
    offline. Query-time completion enumerates only its remaining open
    decisions.
    """

    name: str
    prefix: Granule
    bound_level: Granularity

    def query_time_recipes(
        self, max_level: Granularity = Granularity.MOLECULE
    ) -> list[Granule]:
        """The complete recipes still reachable at query time."""
        return enumerate_recipes(self.prefix, max_level)

    def query_time_choices(
        self, max_level: Granularity = Granularity.MOLECULE
    ) -> int:
        """Number of query-time alternatives left open."""
        return len(self.query_time_recipes(max_level))

    def describe(self) -> str:
        """Human-readable summary with the frozen prefix."""
        return (
            f"PartialAV({self.name}, bound to {self.bound_level.name}, "
            f"{self.query_time_choices()} query-time completions)\n"
            + self.prefix.explain(indent=1)
        )


def bind_offline(
    seed: Granule | None = None,
    bound_level: Granularity = Granularity.MACROMOLECULE,
    pick_index: int = 0,
    name: str = "grouping",
) -> PartialAlgorithmicView:
    """Create a partial AV by committing offline to one alternative at
    every decision down to ``bound_level``.

    :param seed: the logical granule to start from; defaults to Γ.
    :param bound_level: how deep the offline commitment goes.
    :param pick_index: which alternative to commit to at the bound level
        (index into the offline enumeration, e.g. 0 = the textbook hash
        path).
    :raises ViewError: when ``pick_index`` is out of range.
    """
    seed = seed or logical_grouping()
    offline_alternatives = enumerate_prefixes(seed, bound_level)
    if not 0 <= pick_index < len(offline_alternatives):
        raise ViewError(
            f"pick_index {pick_index} out of range "
            f"[0, {len(offline_alternatives)})"
        )
    return PartialAlgorithmicView(
        name=name,
        prefix=offline_alternatives[pick_index],
        bound_level=bound_level,
    )


def enumeration_savings(
    partial: PartialAlgorithmicView,
    max_level: Granularity = Granularity.MOLECULE,
) -> tuple[int, int]:
    """(from-scratch alternatives, query-time alternatives) — the partial
    AV's enumeration-work saving."""
    from_scratch = len(enumerate_recipes(logical_grouping(), max_level))
    return from_scratch, partial.query_time_choices(max_level)
