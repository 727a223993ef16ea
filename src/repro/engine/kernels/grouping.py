"""The five grouping implementations of §4.1, as vectorised kernels.

Each §4.1 algorithm factors into two stages:

1. a **slot assignment** — map every input row to a dense group slot id
   (this stage is where the algorithms differ: hash table, perfect hash,
   run detection, sort + run detection, or binary search);
2. an **aggregation** over slots — the paper's kernels compute COUNT and
   SUM on the fly into an array; here stage 2 is the engine's shared
   :func:`~repro.engine.aggregates.compute_aggregate`, so that the
   *measured difference between algorithms is exactly the slot-assignment
   difference*, as in the paper.

Per DESIGN.md substitution #1 all five are implemented at the same batch
abstraction level; their relative costs then mirror the paper's:

=====  ==========================================  ===================
name   slot assignment                             asymptotic per row
=====  ==========================================  ===================
HG     open-addressing hash table, Murmur3         O(1) + random access
SPHG   ``key - min_key`` (static perfect hash)     O(1) sequential
OG     run boundary detection (requires clustered) O(1) sequential
SOG    full sort, then OG                          O(log n)
BSG    binary search in sorted key array           O(log #groups)
=====  ==========================================  ===================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro._util.arrays import runs_of
from repro.engine.aggregates import (
    AggregateSpec,
    compute_aggregate,
    count_star,
    sum_of,
)
from repro.errors import PreconditionError
from repro.indexes.hash_table import OpenAddressingHashTable
from repro.indexes.perfect_hash import MIN_DENSITY, StaticPerfectHash


class GroupingAlgorithm(enum.Enum):
    """The five grouping implementation variants of §4.1."""

    #: Hash-based Grouping — ``std::unordered_map`` + Murmur3 in the paper.
    HG = "hash"
    #: Static Perfect Hash-based Grouping — key as array offset.
    SPHG = "static_perfect_hash"
    #: Order-based Grouping — requires input clustered by the key.
    OG = "order"
    #: Sort & Order-based Grouping — sort first, then OG.
    SOG = "sort_order"
    #: Binary Search-based Grouping — sorted key array + binary search.
    BSG = "binary_search"


class KeyOrder(enum.Enum):
    """Order in which a grouping result's group keys are produced.

    §2.1's local-vs-global discussion hinges on this: a blackbox hash
    table yields an order *"we have to assume ... is unordered to be on
    the safe side"*, whereas SPH/order/binary-search variants yield sorted
    or first-occurrence orders the optimiser may exploit downstream.
    """

    #: group keys ascending.
    SORTED = "sorted"
    #: group keys in order of first appearance in the input.
    FIRST_OCCURRENCE = "first_occurrence"
    #: no usable guarantee (blackbox hash table order).
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class GroupingAssignment:
    """Stage-1 output: per-row slot ids plus the slot -> key mapping."""

    #: for each input row, the dense id of its group (``0..num_groups-1``).
    slots: np.ndarray
    #: for each slot id, the group key it represents.
    group_keys: np.ndarray
    #: guaranteed order of :attr:`group_keys`.
    key_order: KeyOrder
    #: bytes of the auxiliary structure stage 1 built (hash table, SPH
    #: array, sort order, ...) — the Table 1 footprint of the algorithm.
    structure_bytes: int = 0

    @property
    def num_groups(self) -> int:
        """Number of groups."""
        return int(self.group_keys.size)

    def memory_bytes(self) -> int:
        """Total bytes: the slot/key arrays plus the stage-1 structure."""
        return (
            int(self.slots.nbytes)
            + int(self.group_keys.nbytes)
            + self.structure_bytes
        )


@dataclass(frozen=True)
class GroupingResult:
    """Stage-2 output: one row per group with COUNT and SUM aggregates."""

    #: distinct group keys, in :attr:`key_order` order.
    keys: np.ndarray
    #: COUNT(*) per group.
    counts: np.ndarray
    #: SUM(value) per group; all zeros when no value column was given.
    sums: np.ndarray
    key_order: KeyOrder

    @property
    def num_groups(self) -> int:
        """Number of groups."""
        return int(self.keys.size)

    def sorted_by_key(self) -> "GroupingResult":
        """A canonical (key-ascending) copy, for comparing results across
        algorithms with different output orders."""
        if self.key_order is KeyOrder.SORTED:
            return self
        order = np.argsort(self.keys, kind="stable")
        return GroupingResult(
            keys=self.keys[order],
            counts=self.counts[order],
            sums=self.sums[order],
            key_order=KeyOrder.SORTED,
        )


# ---------------------------------------------------------------------------
# Stage 1: slot assignment, one function per §4.1 algorithm.
# ---------------------------------------------------------------------------


def hash_slots(
    keys: np.ndarray,
    num_distinct_hint: int | None = None,
    hash_name: str = "murmur3",
) -> GroupingAssignment:
    """HG slot assignment: insert every key into a hash table (§4.1 HG).

    :param num_distinct_hint: the paper *"always assume[s] the number of
        distinct values to be known"*; when omitted, the table is sized
        pessimistically at ``len(keys)``. A hint that proves too low
        costs a rebuild at that size, never correctness.
    :param hash_name: MOLECULE-level hash-function choice (Table 1).
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    table, slots = OpenAddressingHashTable.for_keys(
        keys, num_distinct_hint, hash_name
    )
    return GroupingAssignment(
        slots=slots,
        group_keys=table.slot_keys(),
        # Insertion order is an artefact of hash + arrival order; per §2.1
        # a consumer must treat it as unordered.
        key_order=KeyOrder.UNSPECIFIED,
        structure_bytes=table.memory_bytes(),
    )


def perfect_hash_slots(
    keys: np.ndarray,
    min_key: int | None = None,
    max_key: int | None = None,
    min_density: float = MIN_DENSITY,
) -> GroupingAssignment:
    """SPHG slot assignment: the key *is* the slot (§4.1 SPHG, §2.1).

    :param min_key: domain lower bound; measured from the data if omitted.
    :param max_key: domain upper bound; measured from the data if omitted.
    :param min_density: density guard threshold (see
        :class:`repro.indexes.perfect_hash.StaticPerfectHash`).
    :raises PreconditionError: on an empty input with no explicit domain,
        or on a too-sparse domain. A domain that ``len(keys)`` keys
        cannot fill to ``min_density`` even if all were distinct is
        rejected before any domain-sized array is allocated.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if min_key is None or max_key is None:
        if keys.size == 0:
            raise PreconditionError(
                "perfect_hash_slots on empty input requires an explicit domain"
            )
        min_key = int(keys.min()) if min_key is None else min_key
        max_key = int(keys.max()) if max_key is None else max_key
    domain_size = max_key - min_key + 1
    if keys.size < min_density * domain_size:
        raise PreconditionError(
            "static perfect hashing requires a dense key domain: at most "
            f"{keys.size} distinct keys over [{min_key}, {max_key}] "
            f"cannot reach density {min_density:.4f}"
        )
    sph = StaticPerfectHash(min_key, max_key, min_density=0.0)
    raw_slots = sph.slot_checked(keys)
    occupancy = np.bincount(raw_slots, minlength=sph.num_slots)
    occupied = occupancy > 0
    num_occupied = int(np.count_nonzero(occupied))
    if sph.num_slots and num_occupied / sph.num_slots < min_density:
        raise PreconditionError(
            "static perfect hashing requires a dense key domain: density "
            f"{num_occupied / sph.num_slots:.4f} < required {min_density:.4f}"
        )
    structure_bytes = sph.memory_bytes()
    if num_occupied == sph.num_slots:
        # Minimal SPH: slots are exactly the compacted key domain.
        slots = raw_slots
        group_keys = sph.key_of_slot(np.arange(sph.num_slots, dtype=np.int64))
    else:
        # Non-minimal: compact away the unused slots.
        compaction = np.cumsum(occupied) - 1
        slots = compaction[raw_slots]
        group_keys = sph.key_of_slot(np.flatnonzero(occupied).astype(np.int64))
        structure_bytes += int(compaction.nbytes)
    return GroupingAssignment(
        slots=slots.astype(np.int64),
        group_keys=np.asarray(group_keys, dtype=np.int64),
        key_order=KeyOrder.SORTED,
        structure_bytes=structure_bytes,
    )


def order_slots(keys: np.ndarray, validate: bool = False) -> GroupingAssignment:
    """OG slot assignment: runs of equal keys are the groups (§4.1 OG).

    Precondition: the input is *clustered* ("partitioned by the grouping
    key"); a globally sorted input satisfies this.

    :param validate: verify the clustering precondition (costs one extra
        pass); when false, violating the precondition silently produces
        one group per run, i.e. duplicate group keys.
    :raises PreconditionError: when ``validate`` and the input is not
        clustered.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    starts, run_values = runs_of(keys)
    if validate and run_values.size != np.unique(run_values).size:
        raise PreconditionError(
            "order-based grouping requires input clustered by the grouping key"
        )
    boundaries = np.append(starts, keys.size)
    lengths = np.diff(boundaries)
    slots = np.repeat(
        np.arange(run_values.size, dtype=np.int64), lengths
    )
    sorted_keys = bool(
        run_values.size <= 1 or np.all(run_values[:-1] < run_values[1:])
    )
    return GroupingAssignment(
        slots=slots,
        group_keys=run_values.astype(np.int64),
        key_order=KeyOrder.SORTED if sorted_keys else KeyOrder.FIRST_OCCURRENCE,
        # OG inspects run boundaries only; no auxiliary structure beyond
        # the per-run arrays.
        structure_bytes=int(starts.nbytes) + int(lengths.nbytes),
    )


def sort_order_slots(keys: np.ndarray) -> GroupingAssignment:
    """SOG slot assignment: sort, then OG (§4.1 SOG).

    The returned slots refer to the *original* row positions, so downstream
    aggregation is identical to every other algorithm's.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_assignment = order_slots(keys[order])
    slots = np.empty(keys.size, dtype=np.int64)
    slots[order] = sorted_assignment.slots
    return GroupingAssignment(
        slots=slots,
        group_keys=sorted_assignment.group_keys,
        key_order=KeyOrder.SORTED,
        # SOG pays for the sort permutation on top of OG's run arrays.
        structure_bytes=int(order.nbytes)
        + sorted_assignment.structure_bytes,
    )


def binary_search_slots(
    keys: np.ndarray, distinct_keys: np.ndarray | None = None
) -> GroupingAssignment:
    """BSG slot assignment: binary search in a sorted key array (§4.1 BSG).

    :param distinct_keys: the sorted distinct grouping keys, when known
        (the paper assumes NDV is known; knowing the keys themselves is the
        analogous AV-style precomputation). Derived from the input when
        omitted.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if distinct_keys is None:
        distinct_keys = np.unique(keys)
    else:
        distinct_keys = np.ascontiguousarray(distinct_keys, dtype=np.int64)
        if distinct_keys.size > 1 and not bool(
            np.all(distinct_keys[:-1] < distinct_keys[1:])
        ):
            raise PreconditionError(
                "distinct_keys must be strictly increasing"
            )
    slots = np.searchsorted(distinct_keys, keys)
    if keys.size and (
        int(slots.max(initial=0)) >= distinct_keys.size
        or not bool(np.all(distinct_keys[slots] == keys))
    ):
        raise PreconditionError("input key not present in distinct_keys")
    return GroupingAssignment(
        slots=slots.astype(np.int64),
        group_keys=distinct_keys,
        key_order=KeyOrder.SORTED,
        structure_bytes=int(distinct_keys.nbytes),
    )


# ---------------------------------------------------------------------------
# Stage 2: shared aggregation, plus the one-call kernels.
# ---------------------------------------------------------------------------


def aggregate_assignment(
    assignment: GroupingAssignment, values: np.ndarray | None
) -> GroupingResult:
    """Compute COUNT and SUM per group from a slot assignment."""
    slots, num_groups = assignment.slots, assignment.num_groups
    counts = compute_aggregate(count_star(), slots, num_groups, None)
    if values is None:
        sums = np.zeros(num_groups, dtype=np.int64)
    else:
        values = np.asarray(values)
        if values.size != slots.size:
            raise PreconditionError(
                f"values length {values.size} != keys length {slots.size}"
            )
        sums = compute_aggregate(sum_of("values"), slots, num_groups, values)
    return GroupingResult(
        keys=assignment.group_keys,
        counts=counts,
        sums=sums,
        key_order=assignment.key_order,
    )


def assign_slots(
    keys: np.ndarray,
    algorithm: GroupingAlgorithm,
    num_distinct_hint: int | None = None,
    validate: bool = False,
) -> GroupingAssignment:
    """Stage 1 with the chosen §4.1 algorithm.

    :param num_distinct_hint: known NDV (sizes HG's table).
    :param validate: verify algorithm preconditions (OG clustering).
    :raises PreconditionError: when the algorithm's precondition fails
        (SPHG on sparse domains always fails; OG only fails when
        ``validate`` is set).
    """
    if algorithm is GroupingAlgorithm.HG:
        return hash_slots(keys, num_distinct_hint)
    if algorithm is GroupingAlgorithm.SPHG:
        if len(keys) == 0:
            # No keys, no groups: an empty domain is dense enough.
            empty = np.empty(0, dtype=np.int64)
            return GroupingAssignment(empty, empty, KeyOrder.SORTED)
        return perfect_hash_slots(keys)
    if algorithm is GroupingAlgorithm.OG:
        return order_slots(keys, validate=validate)
    if algorithm is GroupingAlgorithm.SOG:
        return sort_order_slots(keys)
    if algorithm is GroupingAlgorithm.BSG:
        return binary_search_slots(keys)
    raise PreconditionError(f"unknown grouping algorithm: {algorithm!r}")


def aggregate_groups(
    keys: np.ndarray,
    inputs: dict[str, np.ndarray],
    aggregates: list[AggregateSpec],
    algorithm: GroupingAlgorithm,
    num_distinct_hint: int | None = None,
    validate: bool = False,
) -> tuple[GroupingAssignment, dict[str, np.ndarray]]:
    """Both stages for arbitrary aggregates: the body of a serial
    ``GroupBy`` and of every parallel partial alike.

    :param inputs: the aggregate input columns by name, row-aligned
        with ``keys``.
    :returns: the slot assignment and one per-group array per aggregate
        alias, indexed by slot. Nothing is cast to the aggregate's output
        type here — a float SUM stays float — so partial results merge
        without losing what a final cast would drop.
    """
    assignment = assign_slots(keys, algorithm, num_distinct_hint, validate)
    columns = {
        spec.alias: compute_aggregate(
            spec,
            assignment.slots,
            assignment.num_groups,
            None if spec.column is None else inputs[spec.column],
        )
        for spec in aggregates
    }
    return assignment, columns


def group_by(
    keys: np.ndarray,
    values: np.ndarray | None,
    algorithm: GroupingAlgorithm,
    num_distinct_hint: int | None = None,
    validate: bool = False,
) -> GroupingResult:
    """Group ``keys`` with the chosen §4.1 algorithm, computing COUNT + SUM.

    This is the function the Figure 4 benchmarks time.

    :param keys: grouping key per row.
    :param values: SUM input per row, or None for COUNT-only.
    :param algorithm: which of the five implementations to run.
    :param num_distinct_hint: known NDV (sizes HG's table).
    :param validate: verify algorithm preconditions (OG clustering).
    :raises PreconditionError: when the algorithm's precondition fails
        (see :func:`assign_slots`).
    """
    return aggregate_assignment(
        assign_slots(keys, algorithm, num_distinct_hint, validate), values
    )


#: Slot-assignment function per algorithm (for harnesses that sweep them).
GROUPING_KERNELS = {
    GroupingAlgorithm.HG: hash_slots,
    GroupingAlgorithm.SPHG: perfect_hash_slots,
    GroupingAlgorithm.OG: order_slots,
    GroupingAlgorithm.SOG: sort_order_slots,
    GroupingAlgorithm.BSG: binary_search_slots,
}
