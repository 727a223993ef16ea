"""No key value is special to the hash kernels.

The open-addressing table used to mark an empty bucket with the key -1,
so a -1 among the grouping keys split into several groups
(``group_by([-1, 3, -1, 5, 3, -1, 7, 8, 9], HG)`` returned three of
them) and a -1 among join keys lost matches. Emptiness is now read off
the slot array, which no key can equal. HG and HJ are compared with the
sort-based SOG and SOJ over keys drawn from a pool that holds -1 and
both ends of ``int64``. These are the serial kernels; the same keys on
every parallel grouping route are ``test_parallel_routes.py``'s
``test_no_key_value_is_special``.

Colliding keys — keys that share a home bucket in every table of up to
2**20 buckets, one group of them at the last bucket — are checked on
every grouping route here, and through the (always serial) join: they
are the rows HG/HJ's first round cannot resolve, so they exercise the
round loop behind it and its wrap-around past the last bucket.
"""

from functools import partial

import numpy as np
import pytest
from hash_preimages import key_with_hash
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels.grouping import GroupingAlgorithm, group_by
from repro.engine.kernels.joins import JoinAlgorithm, join
from repro.engine.kernels.parallel import parallel_group_by
from repro.indexes.hash_table import murmur3_finalizer

INT64 = np.iinfo(np.int64)
POOL = (-1, INT64.min, INT64.max, 0, -2, 1, INT64.min + 1, INT64.max - 1, 7)

keys_of = st.lists(st.sampled_from(POOL), min_size=1, max_size=60).map(
    lambda values: np.array(values, dtype=np.int64)
)


#: six keys whose hash ends in twenty 1 bits (home: the last bucket of any
#: table up to 2**20 buckets), four ending in twenty 0 bits (home: bucket
#: 0, where the wrapped chain continues), and -1 and both ends of int64.
COLLIDING = tuple(
    key_with_hash(low + (j << 20))
    for low, count in (((1 << 20) - 1, 6), (0, 4))
    for j in range(1, count + 1)
) + (-1, INT64.min, INT64.max)

colliding_keys = st.lists(st.sampled_from(COLLIDING), min_size=1, max_size=80).map(
    lambda values: np.array(values, dtype=np.int64)
)


#: route -> the group_by run on it.
ROUTES = {
    "serial": group_by,
    "thread": partial(parallel_group_by, shards=3, workers=2),
    "process": partial(parallel_group_by, shards=3, workers=2, backend="process"),
}


def groups(result) -> dict:
    sums = result.sums if result.sums is not None else result.counts
    return {
        int(key): (int(count), int(total))
        for key, count, total in zip(result.keys, result.counts, sums)
    }


def check_grouping(keys, run):
    values = np.arange(keys.size, dtype=np.int64)
    hashed = run(keys, values, GroupingAlgorithm.HG)
    assert hashed.keys.size == np.unique(keys).size
    assert groups(hashed) == groups(group_by(keys, values, GroupingAlgorithm.SOG))


def pairs(result) -> list:
    return sorted(zip(result.left_indices.tolist(), result.right_indices.tolist()))


def check_join(build, probe, run):
    assert pairs(run(build, probe, JoinAlgorithm.HJ)) == pairs(
        join(build, probe, JoinAlgorithm.SOJ)
    )


def test_the_reported_case():
    result = group_by(
        np.array([-1, 3, -1, 5, 3, -1, 7, 8, 9]), None, GroupingAlgorithm.HG
    )
    assert sorted(result.keys.tolist()) == [-1, 3, 5, 7, 8, 9]
    assert groups(result)[-1][0] == 3


@settings(max_examples=100, deadline=None)
@given(keys_of, keys_of)
def test_serial(build, probe):
    check_grouping(build, group_by)
    check_join(build, probe, join)


@pytest.mark.usefixtures("fork_pool")
@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(max_examples=30, deadline=None)
@given(keys=colliding_keys)
def test_colliding_keys(route, keys):
    """HG against SOG on keys that collide in every table any route
    builds."""
    check_grouping(keys, ROUTES[route])


@settings(max_examples=30, deadline=None)
@given(build=colliding_keys, probe=colliding_keys)
def test_colliding_join_keys(build, probe):
    """HJ against SOJ on keys that collide in every table it builds."""
    check_join(build, probe, join)


def test_colliding_keys_share_their_home_buckets():
    hashed = murmur3_finalizer(np.array(COLLIDING[:10], dtype=np.int64))
    low_bits = hashed & np.uint64((1 << 20) - 1)
    assert low_bits.tolist() == [(1 << 20) - 1] * 6 + [0] * 4
