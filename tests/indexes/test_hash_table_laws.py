"""The build law and the probe law of the open-addressing table.

**Build law.** ``build`` resolves every uncontested row in one
full-width round, and a collision loser whose key the winner placed in
the round it lost; it must still produce exactly what the round-by-round
algorithm below produces: the same slot per row, the same bucket of
every key, the same slot order. HG's output row order *is* its slot
order, so this is observable. :class:`RoundByRound` is that algorithm,
kept here as an independent oracle: every round carries every unplaced
row, a loser re-reads its bucket in the next round.

**Probe law.** ``probe`` returns what a dict lookup returns, hits and
misses, at every load factor the kernels build tables at.
"""

import numpy as np
import pytest
from hash_preimages import key_with_hash
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.engine.kernels.joins import JOIN_TABLE_LOAD
from repro.errors import IndexError_
from repro.indexes.hash_table import HASH_FUNCTIONS, OpenAddressingHashTable

INT64 = np.iinfo(np.int64)
#: every load a kernel constructs a table at: HG's default, HJ's build side.
LOADS = (0.5, JOIN_TABLE_LOAD)


class Overflow(Exception):
    pass


class RoundByRound:
    """The oracle: linear probing, one vectorised round per probe step."""

    EMPTY = np.int64(-1)

    def __init__(self, capacity_hint, max_load=0.5, hash_name="murmur3"):
        self.hash = HASH_FUNCTIONS[hash_name]
        buckets = 1
        while buckets * max_load < capacity_hint:
            buckets *= 2
        self.mask = np.uint64(buckets - 1)
        self.bucket_keys = np.full(buckets, self.EMPTY, dtype=np.int64)
        self.bucket_slots = np.full(buckets, self.EMPTY, dtype=np.int64)
        self.num_slots = 0
        self.slot_keys = np.empty(capacity_hint, dtype=np.int64)

    def build(self, keys):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        mask = np.int64(self.mask)
        slots = np.full(keys.size, self.EMPTY, dtype=np.int64)
        arbiter = np.empty(self.bucket_keys.size, dtype=np.int64)
        pending = None
        pending_keys = keys
        positions = (self.hash(keys) & self.mask).astype(np.int64)
        rounds = 0
        max_rounds = self.bucket_keys.size + self.slot_keys.size + 2
        while pending_keys.size:
            rounds += 1
            if rounds > max_rounds:
                raise Overflow
            occupant_slots = self.bucket_slots[positions]
            empty = occupant_slots == self.EMPTY
            # Case 1: the bucket holds this row's key.
            matches = self.bucket_keys[positions] == pending_keys
            if np.any(matches):
                matched = np.flatnonzero(matches)
                rows = matched if pending is None else pending[matched]
                slots[rows] = occupant_slots[matched]
            # Case 2: another key -> advance.
            mismatched = np.flatnonzero(~(matches | empty))
            # Case 3: empty -> claim; the last writer of the scatter wins.
            claiming = np.flatnonzero(empty)
            lost = claiming[:0]
            if claiming.size:
                claim_pos = positions[claiming]
                claimers = claiming if pending is None else pending[claiming]
                arbiter[claim_pos] = claimers
                won = arbiter[claim_pos] == claimers
                winners = claimers[won]
                count = winners.size
                if self.num_slots + count > self.slot_keys.size:
                    raise Overflow
                new_slots = np.arange(
                    self.num_slots, self.num_slots + count, dtype=np.int64
                )
                wpos = claim_pos[won]
                self.bucket_keys[wpos] = keys[winners]
                self.bucket_slots[wpos] = new_slots
                self.slot_keys[new_slots] = keys[winners]
                self.num_slots += count
                slots[winners] = new_slots
                lost = claiming[~won]
            # Losers hold position and re-read their bucket next round.
            remaining = np.concatenate([mismatched, lost])
            positions = np.concatenate(
                [(positions[mismatched] + 1) & mask, positions[lost]]
            )
            pending = remaining if pending is None else pending[remaining]
            pending_keys = keys[pending]
        return slots


def oracle_for_keys(keys, hint, hash_name):
    """``for_keys``' sizing rule over the oracle: a low hint rebuilds at
    the row count."""
    num_rows = max(int(keys.size), 1)
    capacity = hint or num_rows
    table = RoundByRound(capacity, hash_name=hash_name)
    try:
        return table, table.build(keys)
    except Overflow:
        if capacity >= num_rows:
            raise
    table = RoundByRound(num_rows, hash_name=hash_name)
    return table, table.build(keys)


def assert_same_state(table, oracle):
    assert table.num_keys == oracle.num_slots
    assert np.array_equal(table.bucket_slots, oracle.bucket_slots)
    occupied = oracle.bucket_slots >= 0
    assert np.array_equal(table.bucket_keys[occupied], oracle.bucket_keys[occupied])
    assert np.array_equal(table.slot_keys(), oracle.slot_keys[: oracle.num_slots])


# ---------------------------------------------------------------------------
# key shapes

EXTREMES = (-1, INT64.min, INT64.max, INT64.min + 1, INT64.max - 1, 0, -2)


def arrays(elements, max_size=300):
    return st.lists(elements, min_size=1, max_size=max_size).map(
        lambda values: np.array(values, dtype=np.int64)
    )


#: a handful of keys, each repeated many times.
duplicate_heavy = st.lists(
    st.integers(INT64.min, INT64.max), min_size=1, max_size=8, unique=True
).flatmap(lambda pool: arrays(st.sampled_from(pool)))

#: no key twice.
all_distinct = st.lists(
    st.integers(INT64.min, INT64.max), min_size=1, max_size=300, unique=True
).map(lambda values: np.array(values, dtype=np.int64))

#: -1 (the empty marker's value), both ends of int64 and their neighbours.
extremes = arrays(st.sampled_from(EXTREMES) | st.integers(-3, 3))

#: runs of consecutive keys near a power of two: under the identity hash
#: they fill neighbouring buckets, so chains get long and wrap around
#: past the last bucket of any table up to that power of two.
clustered = st.tuples(
    st.sampled_from((0, 64, 2**10, 2**20)),
    st.lists(st.integers(-40, 8), min_size=1, max_size=200),
).map(lambda pair: np.array([pair[0] + d for d in pair[1]], dtype=np.int64))

#: home buckets (hash bits below 2**20) of the piled keys: neighbours,
#: so chains run into each other, and the last bucket, so they wrap.
PILE_HOMES = (0, 1, 2, 5, (1 << 20) - 2, (1 << 20) - 1)


def piled(hash_name: str):
    """Keys sharing a few home buckets in every table of up to 2**20
    buckets: many rows contend for each empty bucket along the chains."""
    pool = [
        key_with_hash(home + (j << 20), hash_name)
        for home in PILE_HOMES
        for j in range(1, 6)
    ]
    return arrays(st.sampled_from(pool))


hash_names = st.sampled_from(sorted(HASH_FUNCTIONS))


@st.composite
def cases(draw, arrays_per_case=1):
    """A hash function and ``arrays_per_case`` key arrays of any shape."""
    hash_name = draw(hash_names)
    shapes = st.one_of(
        duplicate_heavy, all_distinct, extremes, clustered, piled(hash_name)
    )
    return (hash_name, *(draw(shapes) for __ in range(arrays_per_case)))


#: identity-hashed keys ``j << 20 | home``, homes 5, 1, 2, 5, 2, 5, 1:
#: a loser to a different key that stepped on at once, instead of holding
#: its bucket for a round, would win a later bucket a round early.
EARLY_STEP = np.array(
    [j << 20 | home for j, home in ((3, 5), (5, 1), (5, 2), (1, 5), (1, 2), (5, 5), (4, 1))]
)


@settings(max_examples=300, deadline=None)
@given(case=cases(), hint_scale=st.sampled_from((0.25, 0.5, 1.0, 2.0, None)))
@example(case=("identity", EARLY_STEP), hint_scale=None)
def test_build_law(case, hint_scale):
    """Hints below (overflow, then a rebuild at the row count), at and
    above the true distinct count, and no hint."""
    hash_name, keys = case
    distinct = np.unique(keys).size
    hint = None if hint_scale is None else max(1, int(distinct * hint_scale))
    table, slots = OpenAddressingHashTable.for_keys(keys, hint, hash_name)
    oracle, oracle_slots = oracle_for_keys(keys, hint, hash_name)
    assert np.array_equal(slots, oracle_slots)
    assert_same_state(table, oracle)


@settings(max_examples=200, deadline=None)
@given(case=cases(arrays_per_case=2), slack=st.integers(0, 64))
def test_build_law_incremental(case, slack):
    """A second build into a non-empty table — the round loop from its
    first round, with keys already placed."""
    hash_name, first, second = case
    capacity = np.unique(np.concatenate([first, second])).size + slack
    table = OpenAddressingHashTable(capacity, hash_name=hash_name)
    oracle = RoundByRound(capacity, hash_name=hash_name)
    for keys in (first, second):
        assert np.array_equal(table.build(keys), oracle.build(keys))
        assert_same_state(table, oracle)


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_overflow_is_raised_where_the_rounds_raise_it(case):
    hash_name, keys = case
    distinct = np.unique(keys).size
    assume(distinct >= 2)
    table = OpenAddressingHashTable(distinct - 1, hash_name=hash_name)
    oracle = RoundByRound(distinct - 1, hash_name=hash_name)
    with pytest.raises(Overflow):
        oracle.build(keys)
    with pytest.raises(IndexError_, match="overflow"):
        table.build(keys)


@pytest.mark.parametrize("hash_name", sorted(HASH_FUNCTIONS))
def test_tail_wraps_past_the_last_bucket(hash_name):
    """Eight keys whose home is the last bucket and four whose home is
    bucket 0: all but one of the first eight walk off the end, and the
    chain they continue at bucket 0 runs into the second group."""
    table = OpenAddressingHashTable(12, hash_name=hash_name)
    buckets = table.num_buckets
    keys = np.array(
        [key_with_hash(buckets - 1 + buckets * i, hash_name) for i in range(8)]
        + [key_with_hash(buckets * i, hash_name) for i in range(1, 5)],
        dtype=np.int64,
    )
    homes = np.asarray(HASH_FUNCTIONS[hash_name](keys)) % buckets
    assert set(homes.tolist()) == {0, buckets - 1}
    keys = np.random.default_rng(0).permutation(np.repeat(keys, 5))
    oracle = RoundByRound(12, hash_name=hash_name)
    assert np.array_equal(table.build(keys), oracle.build(keys))
    assert_same_state(table, oracle)
    # One key holds the last bucket; eleven form one chain from bucket 0.
    assert np.count_nonzero(table.bucket_slots[: buckets // 2] >= 0) == 11


@settings(max_examples=200, deadline=None)
@given(case=cases(arrays_per_case=2), load=st.sampled_from(LOADS))
def test_probe_law(case, load):
    hash_name, keys, probes = case
    table, slots = OpenAddressingHashTable.for_keys(keys, None, hash_name, load)
    lookup = dict(zip(keys.tolist(), slots.tolist()))
    assert len(lookup) == table.num_keys
    for probe in (keys, probes, np.concatenate([probes, keys])):
        expected = [lookup.get(key, -1) for key in probe.tolist()]
        assert table.probe(probe).tolist() == expected
