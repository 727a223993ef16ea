"""The abstract cost model interface.

Costs are abstract work units (the paper's Table 2 counts "touched rows",
weighted); only *ratios* of costs are meaningful, which is also all that
Figure 5 reports (improvement factors).
"""

from __future__ import annotations

import math

from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.kernels.joins import JoinAlgorithm


class CostModel:
    """Base class: cost of each physical algorithm family.

    ``num_groups`` is the NDV of the grouping/join key — the paper
    assumes it known (§4.1) and Table 2's BSG/BSJ formulas depend on it.
    """

    def cache_fingerprint(self) -> tuple:
        """What the plan cache keys this model on.

        The default is instance identity — safe for any model, including
        stateful fitted ones, at the price of never sharing cache entries
        across instances. Stateless models (every instance costs
        identically) should override to drop the ``id`` term.
        """
        kind = type(self)
        return (kind.__module__, kind.__qualname__, id(self))

    def grouping_cost(
        self, algorithm: GroupingAlgorithm, input_rows: float, num_groups: float
    ) -> float:
        """Cost of grouping ``input_rows`` rows into ``num_groups`` groups."""
        raise NotImplementedError

    def join_cost(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> float:
        """Cost of joining (build side left, probe side right)."""
        raise NotImplementedError

    def sort_cost(self, rows: float) -> float:
        """Cost of an explicit sort enforcer."""
        raise NotImplementedError

    # -- cost attribution (EXPLAIN WHY) ------------------------------------

    def grouping_cost_terms(
        self, algorithm: GroupingAlgorithm, input_rows: float, num_groups: float
    ) -> list[tuple[str, float]]:
        """:meth:`grouping_cost` decomposed into named terms, largest of
        which is the *decisive* term ``EXPLAIN WHY`` reports. The default
        is the undecomposed total; models with structured formulas (Table
        2) override."""
        return [("total", self.grouping_cost(algorithm, input_rows, num_groups))]

    def join_cost_terms(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> list[tuple[str, float]]:
        """:meth:`join_cost` decomposed into named terms (see
        :meth:`grouping_cost_terms`)."""
        return [
            (
                "total",
                self.join_cost(algorithm, left_rows, right_rows, num_groups),
            )
        ]

    def scan_cost(self, rows: float) -> float:
        """Cost of scanning a base table."""
        raise NotImplementedError

    def index_scan_cost(self, total_rows: float, matching_rows: float) -> float:
        """Cost of fetching ``matching_rows`` of ``total_rows`` through an
        unclustered B-tree (§1's "unclustered B-tree vs scan"): a descent
        plus one *random-access* gather per match. Random accesses carry
        the same 4x factor Table 2 charges hash-based algorithms, putting
        the scan-vs-index crossover at 25% selectivity."""
        descent = math.log2(total_rows) if total_rows > 1 else 0.0
        return descent + 4.0 * matching_rows

    # -- out-of-core I/O terms ---------------------------------------------

    def io_read_weight(self) -> float:
        """Cost per row of fetching it cold from disk — the same 4x
        factor Table 2 charges random accesses, so a fully cold scan
        costs 5x an in-memory one (4 read + 1 touch)."""
        return 4.0

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
        :meth:`scan_cost` term rides on top — touched rows are touched
        rows wherever they live."""
        miss = min(max(1.0 - hit_fraction, 0.0), 1.0)
        return rows * (miss * self.io_read_weight() + decode_weight) + self.scan_cost(
            rows
        )

    def grouping_build_cost(
        self, algorithm: GroupingAlgorithm, input_rows: float, num_groups: float
    ) -> float:
        """The portion of :meth:`grouping_cost` spent building the
        algorithm's internal structure — what a matching Algorithmic View
        saves when it is already materialised (§3).

        Defaults to zero (no AV benefit) unless a model overrides it.
        """
        return 0.0

    def join_build_cost(
        self,
        algorithm: JoinAlgorithm,
        left_rows: float,
        right_rows: float,
        num_groups: float,
    ) -> float:
        """The build-side portion of :meth:`join_cost` (see
        :meth:`grouping_build_cost`)."""
        return 0.0

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
