"""Bit identity of the join kernels' distinct-build fast path.

With distinct build keys a probe row has at most one match, and the
kernels emit the pairs by one gather instead of grouping build rows by
slot and expanding match lists. Which of the two paths ran must not be
observable: ``left_indices``/``right_indices`` are compared — values,
order and dtype — with

* a reference that shares no code with the kernels (nested Python
  loops), and
* the kernels' own general expansion, reached without any switch by
  appending one duplicate of the largest build key (which forces it)
  and dropping the pairs of the appended row,

over build keys {distinct, duplicated, empty} x probe keys {all hit,
some miss, out of domain, empty} x {sorted, unsorted} x {dense, dense
with unoccupied slots, sparse} x the five algorithms, on the serial
kernels (every parallel route is held bit-identical to these, distinct
and duplicated build keys alike, by ``test_parallel_routes.py``). Each
hypothesis example is one build side; every probe kind and both orders
run against it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels.grouping import hash_slots
from repro.engine.kernels.joins import JoinAlgorithm, build_side, join
from repro.errors import PreconditionError

KEY_SORTED = (JoinAlgorithm.OJ, JoinAlgorithm.SOJ)


PROBE_KINDS = ("all_hit", "some_miss", "out_of_domain", "empty")


@st.composite
def build_keys(draw):
    """(build keys, seed): {distinct, duplicated, empty} x {dense, dense
    with unoccupied slots ("gappy"), sparse}."""
    kind = draw(st.sampled_from(["distinct", "duplicated", "empty"]))
    density = draw(st.sampled_from(["dense", "gappy", "sparse"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    size = 0 if kind == "empty" else draw(st.integers(1, 40))
    spread = 1_000 if density == "sparse" else 1
    domain = size + size // 2 if density == "gappy" else size
    offset = draw(st.integers(-100, 100))
    if kind == "duplicated":
        build = rng.integers(0, max(domain // 2, 1), size) * spread + offset
    else:
        build = rng.permutation(domain)[:size] * spread + offset
    return build.astype(np.int64), seed


def probe_keys(build, kind, seed, count=60):
    """Probe keys of one ``kind`` against ``build``."""
    rng = np.random.default_rng(seed)
    low, high = (int(build.min()), int(build.max())) if build.size else (0, 1)
    if kind == "empty":
        probe = build[:0]
    elif kind == "all_hit" and build.size:
        probe = rng.choice(build, count)
    elif kind == "out_of_domain":
        probe = np.concatenate(
            [
                rng.integers(low - 2_000, low, count),
                rng.integers(high + 1, high + 2_000, count),
            ]
        )
    else:
        probe = rng.integers(low - 2, high + 3, count)
    return probe.astype(np.int64)


def reference_pairs(build, probe, algorithm):
    """Matching pairs by nested loops: probe-major (key order for the
    merge joins), the build rows of one probe row ascending."""
    order = range(probe.size)
    if algorithm in KEY_SORTED:
        order = np.argsort(probe, kind="stable").tolist()
    pairs = [
        (b, p)
        for p in order
        for b in range(build.size)
        if build[b] == probe[p]
    ]
    left = np.array([b for b, _ in pairs], dtype=np.int64)
    right = np.array([p for _, p in pairs], dtype=np.int64)
    return left, right


def general_expansion_pairs(build, probe, run):
    """``run`` over the build keys plus one duplicate of the largest
    (forcing the general expansion), minus the appended row's pairs."""
    forced = np.append(build, build.max())
    result = run(forced, probe)
    keep = result.left_indices != build.size
    return result.left_indices[keep], result.right_indices[keep]


def applicable(algorithm, build, probe, is_sorted) -> bool:
    if algorithm is JoinAlgorithm.OJ:
        return is_sorted
    if algorithm is JoinAlgorithm.SPHJ and build.size and probe.size:
        try:
            build_side(build, JoinAlgorithm.SPHJ)
        except PreconditionError:
            return False
    return True


def check_route(built, algorithms, run_with):
    """Every probe kind, unsorted and sorted, against one build side."""
    unsorted_build, seed = built
    for kind in PROBE_KINDS:
        unsorted_probe = probe_keys(unsorted_build, kind, seed)
        for is_sorted in (False, True):
            build, probe = unsorted_build, unsorted_probe
            if is_sorted:
                build, probe = np.sort(build), np.sort(probe)
            for algorithm in algorithms:
                if applicable(algorithm, build, probe, is_sorted):
                    check_join(build, probe, algorithm, run_with)


def check_join(build, probe, algorithm, run_with):
    def run(build_keys, probe_keys):
        return run_with(build_keys, probe_keys, algorithm)

    result = run(build, probe)
    expected = reference_pairs(build, probe, algorithm)
    for got, want in zip((result.left_indices, result.right_indices), expected):
        assert got.dtype == np.int64
        assert np.array_equal(got, want), algorithm
    if build.size:
        general = general_expansion_pairs(build, probe, run)
        assert np.array_equal(result.left_indices, general[0]), algorithm
        assert np.array_equal(result.right_indices, general[1]), algorithm


@settings(max_examples=60, deadline=None)
@given(build_keys())
def test_serial_kernels(built):
    check_route(built, JoinAlgorithm, join)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-1_000, 1_000), max_size=200),
    st.integers(1, 50),
)
def test_hash_slots_with_a_low_hint_equals_unhinted(keys, hint):
    """A distinct-count hint below the truth overflows the table, which
    is rebuilt at the unhinted size: same slots, same group keys."""
    keys = np.array(keys, dtype=np.int64)
    unhinted = hash_slots(keys)
    if hint >= unhinted.num_groups:
        return
    hinted = hash_slots(keys, num_distinct_hint=hint)
    assert np.array_equal(hinted.slots, unhinted.slots)
    assert np.array_equal(hinted.group_keys, unhinted.group_keys)
    assert hinted.structure_bytes == unhinted.structure_bytes
