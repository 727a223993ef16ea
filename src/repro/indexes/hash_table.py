"""Hash tables.

Two implementations at two granularity levels of Table 1:

* :class:`ChainedHashTable` — the textbook "out-of-the-box hash table"
  (the paper's HG uses ``std::unordered_map``, which is chained); a
  tuple-at-a-time Python structure kept for pedagogy and correctness tests.
* :class:`OpenAddressingHashTable` — a vectorised linear-probing table over
  numpy arrays; this is what the benchmarked HG/HJ kernels use so that all
  five algorithm families are compared at the same (batch) abstraction
  level (DESIGN.md substitution #1).

Both use the Murmur3 finaliser as the hash function, as in §4.1. The choice
of table *and* of hash function are exactly the MOLECULE-level decisions
(Table 1) that DQO exposes to the optimiser; see
:mod:`repro.core.physiological`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import IndexError_

#: Multiplicative constants of the 64-bit Murmur3 finaliser.
_MURMUR3_C1 = np.uint64(0xFF51AFD7ED558CCD)
_MURMUR3_C2 = np.uint64(0xC4CEB9FE1A85EC53)


def murmur3_finalizer(keys: np.ndarray | int) -> np.ndarray | int:
    """The 64-bit Murmur3 finaliser (fmix64), scalar or vectorised.

    This is the hash function the paper's HG implementation uses. It is a
    bijective mixer on 64-bit integers, so it is collision-free on the key
    domain and spreads dense keys over the full 64-bit space.
    """
    scalar = np.isscalar(keys)
    h = np.asarray(keys).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= _MURMUR3_C1
        h ^= h >> np.uint64(33)
        h *= _MURMUR3_C2
        h ^= h >> np.uint64(33)
    return int(h) if scalar else h


def identity_hash(keys: np.ndarray | int) -> np.ndarray | int:
    """The identity "hash" — the degenerate molecule choice.

    Cheap but catastrophic on clustered key distributions; kept so the
    deep optimiser has a real hash-function decision to make.
    """
    if np.isscalar(keys):
        return int(keys)
    return np.asarray(keys).astype(np.uint64, copy=False)


#: Named hash functions available to the MOLECULE-level optimiser choice.
HASH_FUNCTIONS = {
    "murmur3": murmur3_finalizer,
    "identity": identity_hash,
}


class ChainedHashTable:
    """A separate-chaining hash table mapping int keys to Python values.

    Mirrors ``std::unordered_map`` structurally: an array of buckets, each
    a list of (key, value) pairs. Grows by doubling at load factor 1.0.
    """

    def __init__(self, initial_buckets: int = 16, hash_name: str = "murmur3") -> None:
        if initial_buckets < 1:
            raise IndexError_(
                f"initial_buckets must be >= 1, got {initial_buckets}"
            )
        if hash_name not in HASH_FUNCTIONS:
            raise IndexError_(
                f"unknown hash function {hash_name!r}; "
                f"have {sorted(HASH_FUNCTIONS)}"
            )
        self._hash = HASH_FUNCTIONS[hash_name]
        self._num_buckets = initial_buckets
        self._buckets: list[list[tuple[int, object]]] = [
            [] for __ in range(initial_buckets)
        ]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self._find(key) is not None

    @property
    def load_factor(self) -> float:
        """Entries per bucket."""
        return self._size / self._num_buckets

    def insert(self, key: int, value: object) -> None:
        """Insert or overwrite the entry for ``key``."""
        bucket = self._bucket_of(key)
        for position, (existing, __) in enumerate(bucket):
            if existing == key:
                bucket[position] = (key, value)
                return
        bucket.append((key, value))
        self._size += 1
        if self._size > self._num_buckets:
            self._grow()

    def probe(self, key: int) -> object:
        """The value stored under ``key``.

        :raises KeyError: if absent.
        """
        found = self._find(key)
        if found is None:
            raise KeyError(key)
        return found

    def get(self, key: int, default: object = None) -> object:
        """The value stored under ``key``, or ``default`` if absent."""
        found = self._find(key)
        return default if found is None else found

    def memory_bytes(self) -> int:
        """Estimated bytes of the chained structure: 8 per bucket pointer
        plus a nominal 24 per (key, value) entry — chaining's per-entry
        node overhead, the Table 1 cost SPH avoids."""
        return self._num_buckets * 8 + self._size * 24

    def key_set(self) -> Iterator[int]:
        """Iterate over all keys in (hash-table) bucket order.

        The iteration order is an artefact of the hash function and table
        size — exactly the "unknown order" the paper warns a blackbox hash
        table imposes on grouping output (§2.1).
        """
        for bucket in self._buckets:
            for key, __ in bucket:
                yield key

    def items(self) -> Iterator[tuple[int, object]]:
        """Iterate over (key, value) pairs in bucket order."""
        for bucket in self._buckets:
            yield from bucket

    def _bucket_of(self, key: int) -> list[tuple[int, object]]:
        return self._buckets[self._hash(key) % self._num_buckets]

    def _find(self, key: int) -> object | None:
        for existing, value in self._bucket_of(key):
            if existing == key:
                return value
        return None

    def _grow(self) -> None:
        old_buckets = self._buckets
        self._num_buckets *= 2
        self._buckets = [[] for __ in range(self._num_buckets)]
        for bucket in old_buckets:
            for key, value in bucket:
                self._bucket_of(key).append((key, value))


class OpenAddressingHashTable:
    """A vectorised linear-probing hash table over int64 keys.

    Designed for *batch* build and probe: both operations take whole numpy
    arrays and resolve collisions in vectorised probing rounds. The table
    maps each distinct key to a dense slot id ``0..num_keys-1`` (assigned
    at build time); callers keep their per-slot aggregate state in plain
    arrays indexed by slot id.

    :param capacity_hint: expected number of *distinct* keys. The table
        allocates ``capacity_hint / max_load`` buckets rounded up to a
        power of two.
    :param max_load: maximum load factor before the constructor widens
        the allocation.
    :param hash_name: one of :data:`HASH_FUNCTIONS`.
    """

    #: slot id of an empty bucket, and of a probe key never inserted. Slot
    #: ids are >= 0, so — unlike any value of the key domain, -1 included —
    #: it cannot be mistaken for an entry: emptiness is always read off
    #: the slot array, never off the keys.
    _EMPTY = np.int64(-1)

    def __init__(
        self,
        capacity_hint: int,
        max_load: float = 0.5,
        hash_name: str = "murmur3",
    ) -> None:
        if capacity_hint < 1:
            raise IndexError_(
                f"capacity_hint must be >= 1, got {capacity_hint}"
            )
        if not 0.0 < max_load < 1.0:
            raise IndexError_(f"max_load must be in (0, 1), got {max_load}")
        if hash_name not in HASH_FUNCTIONS:
            raise IndexError_(
                f"unknown hash function {hash_name!r}; "
                f"have {sorted(HASH_FUNCTIONS)}"
            )
        self._hash = HASH_FUNCTIONS[hash_name]
        buckets = 1
        while buckets * max_load < capacity_hint:
            buckets *= 2
        self._mask = np.uint64(buckets - 1)
        self._bucket_keys = np.full(buckets, self._EMPTY, dtype=np.int64)
        self._bucket_slots = np.full(buckets, self._EMPTY, dtype=np.int64)
        self._num_slots = 0
        self._slot_keys = np.empty(capacity_hint, dtype=np.int64)

    @classmethod
    def from_state(
        cls,
        hash_name: str,
        bucket_keys: np.ndarray,
        bucket_slots: np.ndarray,
        slot_keys: np.ndarray,
        num_slots: int,
    ) -> "OpenAddressingHashTable":
        """Reassemble a built table around existing arrays without copying.

        Process workers use this to probe a build side whose bucket and
        slot arrays live in shared memory: the parent builds once, ships
        the array views, and every worker probes the same physical table.
        The arrays are used as-is (they may be read-only views).
        """
        if hash_name not in HASH_FUNCTIONS:
            raise IndexError_(
                f"unknown hash function {hash_name!r}; "
                f"have {sorted(HASH_FUNCTIONS)}"
            )
        table = cls.__new__(cls)
        table._hash = HASH_FUNCTIONS[hash_name]
        table._mask = np.uint64(bucket_keys.size - 1)
        table._bucket_keys = bucket_keys
        table._bucket_slots = bucket_slots
        table._slot_keys = slot_keys
        table._num_slots = int(num_slots)
        return table

    @classmethod
    def for_keys(
        cls,
        keys: np.ndarray,
        num_distinct_hint: int | None = None,
        hash_name: str = "murmur3",
        max_load: float = 0.5,
    ) -> tuple["OpenAddressingHashTable", np.ndarray]:
        """A table built over ``keys``, and the per-row slot ids.

        The table is sized for ``num_distinct_hint`` distinct keys (the
        row count when there is no hint) at ``max_load``. A hint below the
        true distinct count overflows the table; it is then rebuilt at the
        row count, which always fits — a low estimate costs time, never
        correctness.
        """
        num_rows = max(int(keys.size), 1)
        capacity = num_distinct_hint if num_distinct_hint else num_rows
        table = cls(capacity, max_load, hash_name)
        try:
            return table, table.build(keys)
        except IndexError_:
            if capacity >= num_rows:
                raise
        table = cls(num_rows, max_load, hash_name)
        return table, table.build(keys)

    @property
    def num_buckets(self) -> int:
        """Allocated bucket count (a power of two)."""
        return int(self._bucket_keys.size)

    @property
    def bucket_keys(self) -> np.ndarray:
        """Key held by each occupied bucket (an empty bucket's entry means
        nothing); with :attr:`bucket_slots` the whole probe-side state
        (see :meth:`from_state`)."""
        return self._bucket_keys

    @property
    def bucket_slots(self) -> np.ndarray:
        """Slot id of the key each bucket holds; -1 = empty bucket."""
        return self._bucket_slots

    @property
    def num_keys(self) -> int:
        """Number of distinct keys inserted so far."""
        return self._num_slots

    def slot_keys(self) -> np.ndarray:
        """Key of each slot, indexed by slot id (insertion order)."""
        return self._slot_keys[: self._num_slots].copy()

    def memory_bytes(self) -> int:
        """Bytes held by the bucket and slot arrays — the HG footprint
        Table 1 contrasts with SPH's dense array."""
        return int(
            self._bucket_keys.nbytes
            + self._bucket_slots.nbytes
            + self._slot_keys.nbytes
        )

    def _claim(self, positions: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Give each of ``keys`` (distinct, each won its empty bucket at
        ``positions``) the next slot id, in order; returns the slot ids."""
        count = keys.size
        if self._num_slots + count > self._slot_keys.size:
            raise IndexError_(
                "hash table overflow: more distinct keys than "
                f"capacity hint ({self._slot_keys.size})"
            )
        new_slots = np.arange(
            self._num_slots, self._num_slots + count, dtype=np.int64
        )
        self._bucket_keys[positions] = keys
        self._bucket_slots[positions] = new_slots
        self._slot_keys[new_slots] = keys
        self._num_slots += count
        return new_slots

    def build(self, keys: np.ndarray) -> np.ndarray:
        """Insert ``keys`` (duplicates allowed) and return per-row slot ids.

        Vectorised: each probing round resolves every not-yet-placed row at
        once. Slot ids are dense, assigned in the order rows win their
        bucket. Into an empty table the first round runs at full width with
        no row-index indirection: every home bucket is claimed by
        scatter-then-check, then every row re-reads its home bucket once,
        so each row whose key now holds that bucket is resolved there.
        Only the collision tail enters the round loop, one bucket on.

        :raises IndexError_: if the table overflows its allocation (more
            distinct keys than ``capacity_hint``).
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        mask = np.int64(self._mask)
        # Arbitration scratch: only ever read at positions written in the
        # same round, so it needs no initialisation.
        arbiter = np.empty(self.num_buckets, dtype=np.int64)
        # Masked hashes fit in 63 bits: reinterpreting them is exact.
        positions = (self._hash(keys) & self._mask).view(np.int64)
        rounds = 0
        if self._num_slots == 0 and keys.size:
            # Every bucket is empty, so every row claims its home bucket
            # and one row per distinct home bucket wins it.
            rows = np.arange(keys.size, dtype=np.int64)
            arbiter[positions] = rows
            winners = np.flatnonzero(arbiter[positions] == rows)
            self._claim(positions[winners], keys[winners])
            # Every home bucket is occupied now.
            slots = self._bucket_slots[positions]
            pending = np.flatnonzero(self._bucket_keys[positions] != keys)
            # The rows left met a different key: the loop would spend its
            # second round advancing them, claiming nothing — do it here.
            positions = (positions[pending] + 1) & mask
            pending_keys = keys[pending]
            rounds = 2
        else:
            slots = np.full(keys.size, self._EMPTY, dtype=np.int64)
            # The unplaced rows, their keys and buckets.
            pending = np.arange(keys.size, dtype=np.int64)
            pending_keys = keys
        # Each row advances at most num_buckets times; additionally a row
        # may hold position for one round per arbitration loss, and losses
        # coincide with global slot placements (at most capacity per run).
        max_rounds = self.num_buckets + self._slot_keys.size + 2
        while pending_keys.size:
            rounds += 1
            if rounds > max_rounds:
                raise IndexError_(
                    "hash table overflow: more distinct keys than capacity "
                    f"hint ({self._slot_keys.size})"
                )
            occupant_slots = self._bucket_slots[positions]
            empty = occupant_slots == self._EMPTY
            # Case 1: bucket already holds this row's key -> resolve. An
            # empty bucket whose stale key happens to equal the row's
            # "resolves" to -1, which case 3 then overwrites or retries.
            matches = self._bucket_keys[positions] == pending_keys
            if np.any(matches):
                matched = np.flatnonzero(matches)
                slots[pending[matched]] = occupant_slots[matched]
            # Case 2: bucket occupied by a different key -> advance (probe).
            mismatched = np.flatnonzero(~(matches | empty))
            # Case 3: bucket empty -> try to claim. Multiple rows may race
            # for one bucket within a round; scatter-then-check arbitrates:
            # the last writer wins the scatter, then every row re-reads the
            # bucket and only the winner (same row index) proceeds. Equal
            # keys share a home bucket, so at most one row wins per key.
            claiming = np.flatnonzero(empty)
            lost = claiming[:0]
            if claiming.size:
                claim_pos = positions[claiming]
                claimers = pending[claiming]
                arbiter[claim_pos] = claimers
                won = arbiter[claim_pos] == claimers
                winners = claimers[won]
                slots[winners] = self._claim(claim_pos[won], keys[winners])
                lost = claiming[~won]
                # A loser whose key the winner just placed is resolved
                # now; the next round's case 1 would do the same and
                # change nothing else.
                lost_pos = claim_pos[~won]
                same = self._bucket_keys[lost_pos] == pending_keys[lost]
                if np.any(same):
                    slots[pending[lost[same]]] = self._bucket_slots[lost_pos[same]]
                    lost = lost[~same]
            # Mismatches advance to the next bucket. The other losers must
            # NOT advance yet: they re-read this bucket next round (case
            # 2); arriving at the next one a round early could change
            # which row wins it.
            remaining = np.concatenate([mismatched, lost])
            positions = np.concatenate(
                [(positions[mismatched] + 1) & mask, positions[lost]]
            )
            pending = pending[remaining]
            pending_keys = keys[pending]
        return slots

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Look up slot ids for ``keys``; -1 for keys never inserted.

        The first probing round runs at full width; later rounds carry
        only the keys that hit a bucket holding a different key."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        mask = np.int64(self._mask)
        positions = (self._hash(keys) & self._mask).view(np.int64)
        occupant_slots = self._bucket_slots[positions]
        matches = self._bucket_keys[positions] == keys
        # A key that "matches" an empty bucket's stale entry reads that
        # bucket's slot, -1: missing keys resolve to -1 either way, and
        # only keys that met a different key continue.
        slots = np.where(matches, occupant_slots, self._EMPTY)
        pending = np.flatnonzero(~matches & (occupant_slots != self._EMPTY))
        positions = (positions[pending] + 1) & mask
        pkeys = keys[pending]
        for __ in range(self.num_buckets):
            if not pending.size:
                break
            occupant_slots = self._bucket_slots[positions]
            matches = self._bucket_keys[positions] == pkeys
            slots[pending[matches]] = occupant_slots[matches]
            continuing = ~matches & (occupant_slots != self._EMPTY)
            pending = pending[continuing]
            pkeys = pkeys[continuing]
            positions = (positions[continuing] + 1) & mask
        return slots
