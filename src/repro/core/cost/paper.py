"""Table 2 of the paper, implemented exactly.

::

    Grouping                             Join
    HG(R)   = 4 * |R|                    HJ(R,S)   = 4 * (|R| + |S|)
    OG(R)   = |R|                        OJ(R,S)   = |R| + |S|
    SOG(R)  = |R|*log2|R| + |R|          SOJ(R,S)  = |R|*log2|R| + |S|*log2|S| + |R| + |S|
    SPHG(R) = |R|                        SPHJ(R,S) = |R| + |S|
    BSG(R)  = |R|*log2(#groups)          BSJ(R,S)  = |R|*log2(#groups) + |S|*log2(#groups)

Each formula is written once, as its terms. The build/probe split used
for Algorithmic View credit (§3) is the natural reading of each join
formula: the |R| (build-side) term is the build phase, the |S|
(probe-side) term the probe phase, and a term over both inputs a pass.
A group-by builds nothing that outlives its query, so every grouping
term is a pass.
"""

from __future__ import annotations

import math

from repro.core.cost.model import (
    BUILD,
    PASS,
    PROBE,
    RANDOM_ACCESS_WEIGHT,
    CostModel,
    Term,
)
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm

#: Table 2's "4", short enough to keep each term on one line.
_W = RANDOM_ACCESS_WEIGHT


def _log2(value: float) -> float:
    """log2 clamped at zero for degenerate cardinalities (<= 1)."""
    return math.log2(value) if value > 1 else 0.0


class PaperCostModel(CostModel):
    """The exact Table 2 formulas; scans are free, sorts are n·log2(n).

    Scans being free matches the paper's §4.3 accounting, which sums only
    the join and grouping terms. The term names are what EXPLAIN WHY
    prints as the decisive cost term of an algorithm choice.
    """

    grouping_terms = {
        GroupingAlgorithm.HG: (
            Term("hash build+probe 4*|R|", PASS, lambda t, n, g: t + _W * n),
        ),
        GroupingAlgorithm.OG: (Term("ordered pass |R|", PASS, lambda t, n, g: t + n),),
        GroupingAlgorithm.SOG: (
            Term("sort |R|*log2|R|", PASS, lambda t, n, g: t + n * _log2(n)),
            Term("pass |R|", PASS, lambda t, n, g: t + n),
        ),
        GroupingAlgorithm.SPHG: (
            Term("direct-address pass |R|", PASS, lambda t, n, g: t + n),
        ),
        GroupingAlgorithm.BSG: (
            Term(
                "binary-search probes |R|*log2(g)",
                PASS,
                lambda t, n, g: t + n * _log2(g),
            ),
        ),
    }

    join_terms = {
        JoinAlgorithm.HJ: (
            Term("hash build 4*|R|", BUILD, lambda t, r, s, g: t + _W * r),
            Term("hash probe 4*|S|", PROBE, lambda t, r, s, g: t + _W * s),
        ),
        JoinAlgorithm.OJ: (
            Term("merge pass |R|+|S|", PASS, lambda t, r, s, g: t + r + s),
        ),
        JoinAlgorithm.SOJ: (
            # The build-side sort can be pre-materialised.
            Term("sort build |R|*log2|R|", BUILD, lambda t, r, s, g: t + r * _log2(r)),
            Term("sort probe |S|*log2|S|", PROBE, lambda t, r, s, g: t + s * _log2(s)),
            Term("merge pass |R|+|S|", PASS, lambda t, r, s, g: t + r + s),
        ),
        JoinAlgorithm.SPHJ: (
            Term("dense build |R|", BUILD, lambda t, r, s, g: t + r),
            Term("probe pass |S|", PROBE, lambda t, r, s, g: t + s),
        ),
        JoinAlgorithm.BSJ: (
            Term(
                "binary-search build |R|*log2(g)",
                BUILD,
                lambda t, r, s, g: t + r * _log2(g),
            ),
            Term(
                "binary-search probe |S|*log2(g)",
                PROBE,
                lambda t, r, s, g: t + s * _log2(g),
            ),
        ),
    }

    def cache_fingerprint(self) -> tuple:
        # Stateless: every instance costs identically, so plan-cache
        # entries are shared across instances (each optimize_dqo() call
        # constructs a fresh default model).
        kind = type(self)
        return (kind.__module__, kind.__qualname__)

    def sort_cost(self, rows: float) -> float:
        """Cost of an explicit sort enforcer."""
        n = float(rows)
        return n * _log2(n)

    def scan_cost(self, rows: float) -> float:
        """Cost of scanning a base table."""
        return 0.0


class AccessPathCostModel(PaperCostModel):
    """Table 2 plus non-free scans: every base-table scan costs one unit
    per row.

    Under :class:`PaperCostModel` scans are free, so the §1 access-path
    decision ("unclustered B-tree vs scan") can never pay off. This model
    makes the decision real: a full scan costs |R| while an unclustered
    index fetch costs log2|R| + matches — the classic selectivity
    crossover, explored by ``benchmarks/bench_access_path.py``.
    """

    def scan_cost(self, rows: float) -> float:
        return float(rows)
