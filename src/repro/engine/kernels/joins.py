"""The five join implementations corresponding to Table 2.

Footnote 1 of the paper: *"a join is merely a co-group-operation with
exactly two inputs"* — so every §4.1 grouping algorithm has a join
counterpart, and Table 2 costs all five:

=====  ====================================================  ==============
name   build / probe strategy                                output order
=====  ====================================================  ==============
HJ     hash table on the build side, stream the probe side   probe side's
SPHJ   dense-domain direct array on the build side           probe side's
OJ     merge of two key-sorted inputs                        key-ascending
SOJ    sort both inputs, then OJ                              key-ascending
BSJ    sorted build array, binary-search every probe          probe side's
=====  ====================================================  ==============

All kernels are equi-joins returning matching row-index pairs. The "output
order" column is the crucial DQO plan property behind Figure 5: HJ/SPHJ/BSJ
stream the probe input and hence *preserve its row order* (DESIGN.md
substitution #5a), while OJ/SOJ emit key order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro._util.arrays import is_nondecreasing
from repro.errors import PreconditionError
from repro.indexes.hash_table import OpenAddressingHashTable
from repro.indexes.perfect_hash import StaticPerfectHash
from repro.storage.dictionary import DictionaryEncoded, dictionary_encode

#: Maximum load of HJ's build-side table. A probe that meets its key in
#: its home bucket is resolved in the probe's full-width first round; the
#: rest walk the collision chain in narrow rounds that cost far more per
#: row. At 62 500 distinct keys and 500 000 probes (2-vCPU host), build +
#: probe took 25 / 17 / 14 ms at loads 0.5 / 0.25 / 0.125, for 2.5 / 4.5 /
#: 8.5 MiB of table. Unlike HG, whose output order is its slot order, a
#: join's slot numbering is not observable, only its index pairs.
JOIN_TABLE_LOAD = 0.25


class JoinAlgorithm(enum.Enum):
    """The five join implementation variants of Table 2."""

    HJ = "hash"
    SPHJ = "static_perfect_hash"
    OJ = "order"  # merge join over pre-sorted inputs
    SOJ = "sort_order"  # sort-merge join
    BSJ = "binary_search"


class JoinOutputOrder(enum.Enum):
    """Row-order guarantee of a join kernel's output."""

    #: matches appear in probe-side (right input) row order.
    PROBE_ORDER = "probe_order"
    #: matches appear in ascending join-key order.
    KEY_SORTED = "key_sorted"

    # Members are singletons compared by identity, so they may hash by
    # identity too: the optimiser keys its per-candidate derivation
    # memos on them, and Enum's own hash is a Python-level call.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class JoinResult:
    """Matching row-index pairs of an equi-join."""

    #: indices into the left (build) input, one per output row.
    left_indices: np.ndarray
    #: indices into the right (probe) input, one per output row.
    right_indices: np.ndarray
    output_order: JoinOutputOrder
    #: bytes of the build-side structure the kernel erected (hash table,
    #: SPH array, sort permutations, ...) — Table 2's footprint column.
    structure_bytes: int = 0

    @property
    def num_rows(self) -> int:
        """Number of matches."""
        return int(self.left_indices.size)

    def memory_bytes(self) -> int:
        """Total bytes: the index-pair arrays plus the build structure."""
        return (
            int(self.left_indices.nbytes)
            + int(self.right_indices.nbytes)
            + self.structure_bytes
        )

    def canonical_pairs(self) -> list[tuple[int, int]]:
        """Sorted (left, right) index pairs, for comparing join kernels."""
        return sorted(
            zip(self.left_indices.tolist(), self.right_indices.tolist())
        )


def expand_matches(
    probe_slots: np.ndarray,
    slot_offsets: np.ndarray,
    slot_counts: np.ndarray,
    build_rows_grouped: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-probe slot hits into (build_row, probe_row) pairs.

    The general (many-to-many) expansion, needed only when build keys
    repeat. ``build_rows_grouped`` lists build row ids grouped by slot
    (None = the build rows already lie in slot order);
    ``slot_offsets[s] .. slot_offsets[s] + slot_counts[s]`` is slot ``s``'s
    range in it. Probes with slot -1 produce no output. The expansion is
    probe-major, preserving probe order; within one probe row the build
    rows ascend.
    """
    hit_rows = np.flatnonzero(probe_slots >= 0)
    hit_slots = probe_slots[hit_rows]
    lengths = slot_counts[hit_slots]
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    probe_out = np.repeat(hit_rows, lengths)
    # Per output row, its rank within its probe's match list:
    boundaries = np.cumsum(lengths)
    ranks = np.arange(total, dtype=np.int64) - np.repeat(
        boundaries - lengths, lengths
    )
    build_out = np.repeat(slot_offsets[hit_slots], lengths) + ranks
    if build_rows_grouped is not None:
        build_out = build_rows_grouped[build_out]
    return build_out.astype(np.int64), probe_out.astype(np.int64)


# Compared by identity (eq=False): a join's ``lookup`` memo is keyed on it.
@dataclass(frozen=True, eq=False)
class BuildSide:
    """The probe-able form of a join's build input.

    Every probe-streaming join looks a probe key up in three steps: map
    the key to a *slot* (one slot per distinct build key, -1 for a key no
    build row has), map the slot to its build rows, emit the pairs; an
    encoded probe column (:meth:`probe_encoded`) takes the first two once
    per distinct value. The families differ in the first step only
    (:attr:`kind`):

    ``"hash"``
        an open-addressing table (:attr:`bucket_keys`, :attr:`bucket_slots`);
    ``"direct"``
        ``key - min_key``, the static perfect hash (an in-domain slot may
        be one no build key occupies);
    ``"sorted"``
        binary search in the ascending distinct build keys (:attr:`keys`).

    The second step depends on what the build keys are. **Distinct build
    keys** (:attr:`offsets` is None): a probe row has at most one match,
    ``rows[slot]``, so the pairs are one gather — no sorting of build
    rows, no match-list expansion. **Repeated build keys**: ``rows`` lists
    the build rows grouped by slot, :attr:`offsets`/:attr:`counts` delimit
    each slot's run, and :func:`expand_matches` produces the pairs. Both
    emit pairs probe-major with build rows ascending, so which of the two
    ran is not observable in the output.
    """

    kind: str
    #: distinct keys: the build row of each slot (-1 = unoccupied direct
    #: slot); repeated keys: build rows grouped by slot. None = the build
    #: rows are in slot order themselves (a sorted build input).
    rows: np.ndarray | None
    #: first position of each slot's run in ``rows``; None = distinct keys.
    offsets: np.ndarray | None = None
    #: build rows per slot; None = distinct keys.
    counts: np.ndarray | None = None
    bucket_keys: np.ndarray | None = None
    bucket_slots: np.ndarray | None = None
    min_key: int = 0
    #: the distinct build keys ("hash", "sorted") or the width of the
    #: direct array's key domain ("direct").
    num_slots: int = 0
    keys: np.ndarray | None = None
    #: bytes of the structure erected for this build side — Table 2's
    #: footprint column.
    structure_bytes: int = 0

    def slots(self, probe_keys: np.ndarray) -> np.ndarray:
        """Slot of each probe key; -1 where no build row can match."""
        probe_keys = np.ascontiguousarray(probe_keys, dtype=np.int64)
        if self.kind == "hash":
            table = OpenAddressingHashTable.from_state(
                "murmur3",
                self.bucket_keys,
                self.bucket_slots,
                self.bucket_keys[:0],
                self.num_slots,
            )
            return table.probe(probe_keys)
        if self.kind == "direct":
            raw = probe_keys - np.int64(self.min_key) if self.min_key else probe_keys
            if not raw.size or (raw.min() >= 0 and raw.max() < self.num_slots):
                return raw
            return np.where((raw >= 0) & (raw < self.num_slots), raw, -1)
        last = self.keys.size - 1
        positions = np.searchsorted(self.keys, probe_keys)
        np.minimum(positions, last, out=positions)
        found = self.keys[positions] == probe_keys
        return positions if found.all() else np.where(found, positions, -1)

    def range_rows(self, low: int, high: int) -> np.ndarray:
        """The build rows whose key lies in ``[low, high]``, in key order
        with ties in row order, of BSJ's build side: two binary searches
        over :attr:`keys` and one slice of :attr:`rows`, the stable
        argsort (an unclustered index's range scan). Empty if
        ``low > high``."""
        first = int(np.searchsorted(self.keys, low, side="left"))
        stop = max(first, int(np.searchsorted(self.keys, high, side="right")))
        if self.offsets is not None:
            # Slots to positions in ``rows``: each slot's run starts at
            # its offset, and the slot past the last ends them all.
            total = int(self.offsets[-1] + self.counts[-1])
            first = int(self.offsets[first]) if first < self.num_slots else total
            stop = int(self.offsets[stop]) if stop < self.num_slots else total
        return self.rows[first:stop]

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matching ``(build_row, probe_row)`` index arrays, probe-major.
        OJ's probe is sorted, one run per key: it probes its dictionary,
        which :func:`dictionary_encode` reads off the runs."""
        if self.rows is None:
            return self.probe_encoded(dictionary_encode(probe_keys))
        return self.pairs(self.slots(probe_keys))

    def probe_encoded(self, encoded: DictionaryEncoded) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe` of the column ``encoded`` encodes: each distinct
        value is looked up once, and the rows take its matches by a
        gather through the codes. The pairs are the row-by-row probe's,
        in its order."""
        return self.pairs(self.slots(encoded.dictionary), encoded)

    def num_matches(
        self,
        slots: np.ndarray,
        num_probe_rows: int,
        encoded: DictionaryEncoded | None = None,
    ) -> int:
        """How many pairs :meth:`pairs` of the same ``slots`` emits, without
        emitting them: ``num_probe_rows`` where each probe row finds its
        one build row (distinct build keys, no miss, no unoccupied direct
        slot), else the sum over hit slots of their build rows, weighted
        as in :meth:`pairs`."""
        rows_per_slot = (
            self.counts
            if self.offsets is not None
            else self.rows >= 0 if self.kind == "direct" else None
        )
        one_row_each = rows_per_slot is None or (
            self.offsets is None and rows_per_slot.all()
        )
        if one_row_each and int(slots.min(initial=0)) >= 0:
            return num_probe_rows
        per_key = slots >= 0
        if rows_per_slot is not None:
            # A -1 slot reads the last entry, which the slot test masks.
            per_key = np.where(per_key, rows_per_slot[slots], 0)
        if encoded is None:
            return int(per_key.sum())
        return int((per_key * encoded.counts).sum())

    def group_counts(
        self,
        slots: np.ndarray,
        encoded: DictionaryEncoded | None,
        row_groups: np.ndarray,
        num_groups: int,
    ) -> tuple[np.ndarray, int]:
        """Matches per group (int64) of the probe whose keys have ``slots``,
        build row ``i`` being in group ``row_groups[i]`` of ``num_groups``
        (``np.bincount`` of the groups of :meth:`pairs`' build rows), and
        their total, without a pair or a count per build row. ``encoded``
        weighs each slot as in :meth:`pairs`. With distinct build keys and
        no more slots than build slots, each slot's one build row is
        counted, weighted, into its group; else the slots are counted
        first, and each slot's count spread over its build rows."""
        weights = None if encoded is None else encoded.counts
        if self.offsets is None and slots.size <= self.num_slots:
            rows = slots if self.rows is None else self.rows[slots]
            # A miss is a -1 slot, which reads the last entry of ``rows``;
            # an unoccupied direct slot holds row -1.
            if slots.size and min(int(slots.min()), int(rows.min())) < 0:
                hit = (slots >= 0) & (rows >= 0)
                rows = rows[hit]
                weights = None if weights is None else weights[hit]
        else:
            if int(slots.min(initial=0)) < 0:
                hit = slots >= 0
                slots = slots[hit]
                weights = None if weights is None else weights[hit]
            weights = np.bincount(slots, weights, minlength=self.num_slots)
            rows = self.rows
            if self.offsets is not None:
                weights = np.repeat(weights, self.counts)
            elif self.kind == "direct":
                occupied = rows >= 0
                rows, weights = rows[occupied], weights[occupied]
        groups = row_groups if rows is None else row_groups[rows]
        counts = np.bincount(groups, weights, minlength=num_groups)
        return counts.astype(np.int64, copy=False), int(counts.sum())

    def pairs(
        self,
        slots: np.ndarray,
        encoded: DictionaryEncoded | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pairs of a probe whose keys have ``slots`` (:meth:`slots`):
        one slot per probe row or, with ``encoded``, one per distinct
        value of that probe column (its dictionary), which its rows take
        by a gather through the codes."""
        if self.offsets is not None:
            slots = slots if encoded is None else slots[encoded.codes]
            return expand_matches(slots, self.offsets, self.counts, self.rows)
        build_rows = slots if self.rows is None else self.rows[slots]
        # Misses are -1 slots; an unoccupied direct slot holds row -1. An
        # out-of-range slot of -1 reads the last entry of ``rows``, which
        # the slot test masks out again.
        hit = slots >= 0
        if self.kind == "direct":
            hit &= build_rows >= 0
        if encoded is not None:
            build_rows = np.where(hit, build_rows, -1)[encoded.codes]
            hit = build_rows >= 0
        if hit.all():
            probe_rows = np.arange(build_rows.size, dtype=np.int64)
        else:
            probe_rows = np.flatnonzero(hit)
            build_rows = build_rows[probe_rows]
        return build_rows.astype(np.int64, copy=False), probe_rows.astype(
            np.int64, copy=False
        )


def _rows_by_slot(
    build_slots: np.ndarray, slot_counts: np.ndarray | None, num_slots: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``(rows, offsets, counts)`` of a build side whose rows map to
    ``build_slots``; ``slot_counts`` is None when no slot holds more than
    one row."""
    if slot_counts is None:
        rows = np.full(num_slots, -1, dtype=np.int64)
        rows[build_slots] = np.arange(build_slots.size, dtype=np.int64)
        return rows, None, None
    counts = slot_counts.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    # Stable: the rows of one slot stay ascending.
    grouped = np.argsort(build_slots, kind="stable").astype(np.int64)
    return grouped, offsets, counts


def _nbytes(*arrays: np.ndarray | None) -> int:
    return sum(int(array.nbytes) for array in arrays if array is not None)


def build_side(build_keys: np.ndarray, algorithm: JoinAlgorithm) -> BuildSide:
    """Erect the build side of a join over non-empty ``build_keys``.

    Whether the keys are distinct is read off data the kernel touches
    anyway, in O(n): the hash table's key count (HJ), the occupancy of
    the perfect-hash array (SPHJ), strict monotonicity of the sorted keys
    (BSJ after its sort, OJ on its pre-sorted input). HJ's table is
    sized for one distinct key per row.

    :raises PreconditionError: SPHJ over a sparse domain; an algorithm
        with no shared build side (SOJ).
    """
    num_rows = int(build_keys.size)
    if algorithm is JoinAlgorithm.HJ:
        table, build_slots = OpenAddressingHashTable.for_keys(
            build_keys, max_load=JOIN_TABLE_LOAD
        )
        slot_counts = (
            None
            if table.num_keys == num_rows
            else np.bincount(build_slots, minlength=table.num_keys)
        )
        rows, offsets, counts = _rows_by_slot(
            build_slots, slot_counts, table.num_keys
        )
        return BuildSide(
            "hash",
            rows,
            offsets,
            counts,
            bucket_keys=table.bucket_keys,
            bucket_slots=table.bucket_slots,
            num_slots=table.num_keys,
            structure_bytes=table.memory_bytes() + _nbytes(rows, offsets, counts),
        )
    if algorithm is JoinAlgorithm.SPHJ:
        sph = StaticPerfectHash.for_keys(build_keys)
        build_slots = sph.slot(build_keys)
        slot_counts = (
            None
            if sph.num_distinct == num_rows
            else np.bincount(build_slots, minlength=sph.num_slots)
        )
        rows, offsets, counts = _rows_by_slot(
            build_slots, slot_counts, sph.num_slots
        )
        return BuildSide(
            "direct",
            rows,
            offsets,
            counts,
            min_key=sph.min_key,
            num_slots=sph.num_slots,
            # With distinct keys ``rows`` is the SPH array itself.
            structure_bytes=sph.memory_bytes()
            if counts is None
            else sph.memory_bytes() + _nbytes(rows, offsets, counts),
        )
    if algorithm is JoinAlgorithm.BSJ:
        rows = np.argsort(build_keys, kind="stable").astype(np.int64, copy=False)
        keys = build_keys[rows]
    elif algorithm is JoinAlgorithm.OJ:
        rows, keys = None, build_keys
    else:
        raise PreconditionError(
            f"{algorithm.value!r} join has no probe-able build side"
        )
    offsets = counts = None
    if num_rows > 1 and not bool(np.all(keys[1:] > keys[:-1])):
        # Repeated (or, for an unvalidated OJ, out-of-order) keys: one
        # slot per run of equal keys.
        offsets = np.concatenate(
            [[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        ).astype(np.int64)
        counts = np.diff(np.append(offsets, num_rows))
        keys = keys[offsets]
    # ``keys`` is the caller's array unless it was sorted or compacted.
    owned = keys if (rows is not None or offsets is not None) else None
    return BuildSide(
        "sorted",
        rows,
        offsets,
        counts,
        num_slots=int(keys.size),
        keys=keys,
        structure_bytes=_nbytes(rows, offsets, counts, owned),
    )


def _probe_join(
    build_keys: np.ndarray, probe_keys: np.ndarray, algorithm: JoinAlgorithm
) -> JoinResult:
    """Erect ``algorithm``'s build side over ``build_keys`` and probe it
    with all of ``probe_keys`` — the serial form of every join but SOJ."""
    build_keys = np.ascontiguousarray(build_keys, dtype=np.int64)
    probe_keys = np.ascontiguousarray(probe_keys, dtype=np.int64)
    order = (
        JoinOutputOrder.KEY_SORTED
        if algorithm is JoinAlgorithm.OJ
        else JoinOutputOrder.PROBE_ORDER
    )
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return JoinResult(empty, empty.copy(), order)
    build = build_side(build_keys, algorithm)
    left, right = build.probe(probe_keys)
    return JoinResult(left, right, order, structure_bytes=build.structure_bytes)


def hash_join(build_keys: np.ndarray, probe_keys: np.ndarray) -> JoinResult:
    """HJ: build a hash table on ``build_keys``, stream ``probe_keys``.

    Handles duplicate keys on both sides (full inner equi-join semantics).
    Output preserves probe order — the property Figure 5's 2.8x case rests
    on (DESIGN.md substitution #5a).
    """
    return _probe_join(build_keys, probe_keys, JoinAlgorithm.HJ)


def perfect_hash_join(build_keys: np.ndarray, probe_keys: np.ndarray) -> JoinResult:
    """SPHJ: dense-domain direct-array join (Table 2's SPHJ).

    The build side's key domain must be dense; the probe side streams and
    indexes directly into the array, so output preserves probe order.

    :raises PreconditionError: when the build-side domain is too sparse.
    """
    return _probe_join(build_keys, probe_keys, JoinAlgorithm.SPHJ)


def merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray, validate: bool = False
) -> JoinResult:
    """OJ: merge two key-sorted inputs (Table 2's OJ).

    The sorted left input is its own build side: each run of equal right
    keys finds its matching left range by binary search, and because the
    right keys are sorted too, the probe-major output *is* key order.

    :param validate: verify both inputs are sorted (one extra pass each).
    :raises PreconditionError: when ``validate`` and an input is unsorted.
    """
    if validate:
        check_merge_inputs(left_keys, right_keys)
    return _probe_join(left_keys, right_keys, JoinAlgorithm.OJ)


def check_merge_inputs(left_keys: np.ndarray, right_keys: np.ndarray) -> None:
    """Raise :class:`PreconditionError` unless both inputs are sorted."""
    for name, keys in (("left", left_keys), ("right", right_keys)):
        if not is_nondecreasing(np.asarray(keys)):
            raise PreconditionError(
                f"merge join requires sorted inputs; {name} is unsorted"
            )


def sort_merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> JoinResult:
    """SOJ: sort both inputs, then merge (Table 2's SOJ)."""
    left_keys = np.ascontiguousarray(left_keys, dtype=np.int64)
    right_keys = np.ascontiguousarray(right_keys, dtype=np.int64)
    left_order = np.argsort(left_keys, kind="stable")
    right_order = np.argsort(right_keys, kind="stable")
    merged = merge_join(left_keys[left_order], right_keys[right_order])
    return JoinResult(
        left_indices=left_order[merged.left_indices],
        right_indices=right_order[merged.right_indices],
        output_order=JoinOutputOrder.KEY_SORTED,
        # SOJ pays for both sort permutations on top of OJ's structure.
        structure_bytes=int(left_order.nbytes + right_order.nbytes)
        + merged.structure_bytes,
    )


def binary_search_join(build_keys: np.ndarray, probe_keys: np.ndarray) -> JoinResult:
    """BSJ: sorted array on the build side, binary-search each probe
    (Table 2's BSJ). Output preserves probe order."""
    return _probe_join(build_keys, probe_keys, JoinAlgorithm.BSJ)


def join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    algorithm: JoinAlgorithm,
    validate: bool = False,
) -> JoinResult:
    """Dispatch to the chosen Table 2 join kernel."""
    if algorithm is JoinAlgorithm.HJ:
        return hash_join(build_keys, probe_keys)
    if algorithm is JoinAlgorithm.SPHJ:
        return perfect_hash_join(build_keys, probe_keys)
    if algorithm is JoinAlgorithm.OJ:
        return merge_join(build_keys, probe_keys, validate=validate)
    if algorithm is JoinAlgorithm.SOJ:
        return sort_merge_join(build_keys, probe_keys)
    if algorithm is JoinAlgorithm.BSJ:
        return binary_search_join(build_keys, probe_keys)
    raise PreconditionError(f"unknown join algorithm: {algorithm!r}")


#: Kernel function per algorithm (for harnesses that sweep them).
JOIN_KERNELS = {
    JoinAlgorithm.HJ: hash_join,
    JoinAlgorithm.SPHJ: perfect_hash_join,
    JoinAlgorithm.OJ: merge_join,
    JoinAlgorithm.SOJ: sort_merge_join,
    JoinAlgorithm.BSJ: binary_search_join,
}
