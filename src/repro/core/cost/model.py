"""The abstract cost model interface.

Costs are abstract work units (the paper's Table 2 counts "touched rows",
weighted); only *ratios* of costs are meaningful, which is also all that
Figure 5 reports (improvement factors).
"""

from __future__ import annotations

import math
from typing import Callable, ClassVar, Mapping, NamedTuple

from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm

#: Table 2's price of a random access against a sequential touch: the 4
#: in ``HG = 4*|R|`` and ``HJ = 4*(|R|+|S|)``. An unclustered index fetch
#: and a cold disk read are random accesses too, and pay the same.
RANDOM_ACCESS_WEIGHT = 4.0

#: The phase a formula's term prices. A build term is work over the join's
#: build input alone, which an Algorithmic View of the build side has
#: already done (§3); probe and pass terms run on every query.
BUILD, PROBE, PASS = "build", "probe", "pass"


class Term(NamedTuple):
    """One named term of a cost formula.

    ``add(total, *sizes)`` returns ``total`` plus this term, so a formula
    summed term by term keeps its left-to-right order to the last bit
    (SOJ's ``... + |R| + |S|`` is one term of two summands). The term's
    own value is ``add(0.0, *sizes)``.
    """

    name: str
    phase: str
    add: Callable[..., float]


class CostModel:
    """Base class: each algorithm family's formulas as term tables.

    A model lists, per algorithm, the terms of its formula in summation
    order (:attr:`grouping_terms` over ``(rows, groups)``,
    :attr:`join_terms` over ``(build rows, probe rows, groups)``); every
    price of a join or grouping here is a sum of those terms. A model
    also supplies ``sort_cost(rows)`` and ``scan_cost(rows)``.

    ``num_groups`` is the NDV of the grouping/join key — the paper
    assumes it known (§4.1) and Table 2's BSG/BSJ formulas depend on it.
    """

    grouping_terms: ClassVar[Mapping[GroupingAlgorithm, tuple[Term, ...]]]
    join_terms: ClassVar[Mapping[JoinAlgorithm, tuple[Term, ...]]]

    def cache_fingerprint(self) -> tuple:
        """What the plan cache keys this model on.

        The default is instance identity — safe for any model, including
        one that holds state, at the price of never sharing cache entries
        across instances. Stateless models (every instance costs
        identically) should override to drop the ``id`` term.
        """
        kind = type(self)
        return (kind.__module__, kind.__qualname__, id(self))

    def grouping_cost(
        self, algorithm: GroupingAlgorithm, input_rows: float, num_groups: float
    ) -> float:
        """Cost of grouping ``input_rows`` rows into ``num_groups`` groups."""
        total = 0.0
        for term in self.grouping_terms[algorithm]:
            total = term.add(total, input_rows, num_groups)
        return total

    def join_cost(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> float:
        """Cost of joining (build side left, probe side right)."""
        total = 0.0
        for term in self.join_terms[algorithm]:
            total = term.add(total, left_rows, right_rows, num_groups)
        return total

    def join_build_cost(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> float:
        """The build-phase terms of :meth:`join_cost`: what a matching
        Algorithmic View saves when it is already materialised (§3)."""
        total = 0.0
        for term in self.join_terms[algorithm]:
            if term.phase == BUILD:
                total = term.add(total, left_rows, right_rows, num_groups)
        return total

    # -- cost attribution (EXPLAIN WHY) ------------------------------------

    def grouping_cost_terms(
        self, algorithm: GroupingAlgorithm, input_rows: float, num_groups: float
    ) -> list[tuple[str, float]]:
        """:meth:`grouping_cost` as ``(name, value)`` terms, the largest
        of which is the *decisive* term ``EXPLAIN WHY`` reports."""
        return [
            (term.name, term.add(0.0, input_rows, num_groups))
            for term in self.grouping_terms[algorithm]
        ]

    def join_cost_terms(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> list[tuple[str, float]]:
        """:meth:`join_cost` as ``(name, value)`` terms (see
        :meth:`grouping_cost_terms`)."""
        return [
            (term.name, term.add(0.0, left_rows, right_rows, num_groups))
            for term in self.join_terms[algorithm]
        ]

    def index_scan_cost(self, total_rows: float, matching_rows: float) -> float:
        """Cost of fetching ``matching_rows`` of ``total_rows`` through an
        unclustered B-tree (§1's "unclustered B-tree vs scan"): a descent
        plus one *random-access* gather per match
        (:data:`RANDOM_ACCESS_WEIGHT`), putting the scan-vs-index
        crossover at 25% selectivity."""
        descent = math.log2(total_rows) if total_rows > 1 else 0.0
        return descent + RANDOM_ACCESS_WEIGHT * matching_rows

    # -- out-of-core I/O terms ---------------------------------------------

    def io_read_weight(self) -> float:
        """Cost per row of fetching it cold from disk — a random access
        (:data:`RANDOM_ACCESS_WEIGHT`), so a fully cold scan costs 5x an
        in-memory one (4 read + 1 touch)."""
        return RANDOM_ACCESS_WEIGHT

    def io_decode_weight(self, encoding: str) -> float:
        """Cost per row of decoding one on-disk page encoding: plain
        pages are served zero-copy from the mmap, dictionary pages pay a
        gather, RLE pages a repeat-expansion."""
        return {"plain": 0.0, "dictionary": 1.0, "rle": 0.5}.get(encoding, 1.0)

    def disk_scan_cost(
        self, rows: float, hit_fraction: float = 0.0, decode_weight: float = 0.0
    ) -> float:
        """Cost of scanning ``rows`` rows of a disk-resident table.

        ``hit_fraction`` is the expected buffer-hit probability (the
        table's current residency); only misses pay the cold-read
        weight. ``decode_weight`` is the residency-weighted per-row
        decode cost of the table's encoding mix. The in-memory
        ``scan_cost`` term rides on top — touched rows are touched
        rows wherever they live."""
        miss = min(max(1.0 - hit_fraction, 0.0), 1.0)
        return rows * (miss * self.io_read_weight() + decode_weight) + self.scan_cost(
            rows
        )

    # -- morsel-parallel loop variants (Figure 3e's "parallel load") -------

    def gil_fraction(self) -> float:
        """Fraction of kernel work the *thread* backend cannot overlap —
        the interpreter-held stretches around the GIL-releasing numpy
        calls (dispatch, dictionary decode, small-array glue). Amdahl's
        serial fraction of the thread backend; the process backend pays
        IPC instead (see :meth:`ipc_row_cost`)."""
        return 0.15

    def ipc_row_cost(self) -> float:
        """Abstract cost of moving one result row across the process
        boundary (pickle + queue copy). Inputs are free — they travel
        through shared memory — so only *outputs* (partial aggregates)
        are charged."""
        return 0.5

    def dispatch_cost(self, backend: str) -> float:
        """Per-worker scheduling cost of one parallel batch. Process
        dispatch crosses a command queue and wakes another process, so it
        is orders of magnitude heavier than a thread wake-up — which is
        what keeps small inputs off the process backend."""
        return 50.0 if backend == "process" else 1.0

    def effective_workers(self, workers: float, backend: str) -> float:
        """The speedup ``workers`` can actually deliver on ``backend``.

        Threads are Amdahl-limited by :meth:`gil_fraction`; processes
        scale linearly (each has its own interpreter)."""
        w = max(float(workers), 1.0)
        if backend == "process":
            return w
        g = self.gil_fraction()
        return 1.0 / (g + (1.0 - g) / w)

    def parallel_merge_cost(self, num_groups: float, workers: float) -> float:
        """Cost of merging the per-shard partial aggregates: the shards
        contribute up to ``workers * num_groups`` partial rows which are
        sorted (``np.unique``) and summed."""
        merged = max(float(workers) * max(float(num_groups), 1.0), 1.0)
        log_term = math.log2(merged) if merged > 1 else 0.0
        return merged * log_term + merged

    def parallel_grouping_cost(
        self,
        algorithm: GroupingAlgorithm,
        input_rows: float,
        num_groups: float,
        workers: float,
        backend: str = "thread",
    ) -> float:
        """Cost of the parallel-loop grouping variant: the serial work
        divides across the backend's :meth:`effective_workers`, then the
        partials merge, plus per-worker dispatch. The process backend
        additionally ships ``workers x num_groups`` partial rows back over
        the queue. At ``workers = 1`` this is strictly worse than
        :meth:`grouping_cost` — the optimiser then rightly keeps the
        serial loop."""
        w = max(float(workers), 1.0)
        ew = self.effective_workers(w, backend)
        serial = self.grouping_cost(algorithm, input_rows, num_groups)
        cost = (
            serial / ew
            + self.parallel_merge_cost(num_groups, w)
            + w * self.dispatch_cost(backend)
        )
        if backend == "process":
            cost += self.ipc_row_cost() * w * max(float(num_groups), 1.0)
        return cost
