"""The five Table 2 join kernels: correctness, order guarantees, agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels.joins import (
    JoinAlgorithm,
    JoinOutputOrder,
    binary_search_join,
    build_side,
    hash_join,
    join,
    merge_join,
    perfect_hash_join,
    sort_merge_join,
)
from repro.errors import PreconditionError
from repro.storage import dictionary_encode


def naive_pairs(build, probe):
    return sorted(
        (i, j)
        for i in range(len(build))
        for j in range(len(probe))
        if build[i] == probe[j]
    )


class TestHashJoin:
    def test_duplicates_both_sides(self):
        build = np.array([1, 2, 1])
        probe = np.array([1, 3, 1])
        result = hash_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.num_rows == 4

    def test_preserves_probe_order(self, rng):
        build = rng.integers(0, 20, 50)
        probe = rng.integers(0, 20, 80)
        result = hash_join(build, probe)
        assert result.output_order is JoinOutputOrder.PROBE_ORDER
        assert np.all(np.diff(result.right_indices) >= 0)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert hash_join(empty, np.array([1])).num_rows == 0
        assert hash_join(np.array([1]), empty).num_rows == 0


class TestPerfectHashJoin:
    def test_dense_build(self):
        build = np.array([10, 11, 12])
        probe = np.array([12, 9, 10, 13])
        result = perfect_hash_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.output_order is JoinOutputOrder.PROBE_ORDER

    def test_sparse_build_rejected(self):
        with pytest.raises(PreconditionError, match="dense"):
            perfect_hash_join(np.array([0, 10_000]), np.array([0]))

    def test_out_of_domain_probes_miss(self):
        result = perfect_hash_join(np.array([5, 6]), np.array([4, 7, 5]))
        assert result.canonical_pairs() == [(0, 2)]


class TestMergeJoin:
    def test_sorted_inputs(self):
        build = np.array([1, 2, 2, 5])
        probe = np.array([2, 2, 5, 6])
        result = merge_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.output_order is JoinOutputOrder.KEY_SORTED

    def test_output_key_sorted(self):
        build = np.array([1, 3, 5])
        probe = np.array([1, 3, 5])
        result = merge_join(build, probe)
        keys = build[result.left_indices]
        assert np.all(np.diff(keys) >= 0)

    def test_validation(self):
        with pytest.raises(PreconditionError, match="unsorted"):
            merge_join(np.array([2, 1]), np.array([1]), validate=True)
        # Without validation the caller is on their own; no raise.
        merge_join(np.array([2, 1]), np.array([1]))


class TestSortMergeAndBinarySearch:
    def test_sort_merge_unsorted_inputs(self, rng):
        build = rng.integers(0, 15, 40)
        probe = rng.integers(0, 15, 60)
        result = sort_merge_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)

    def test_binary_search_preserves_probe_order(self, rng):
        build = rng.integers(0, 15, 40)
        probe = rng.integers(0, 15, 60)
        result = binary_search_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert np.all(np.diff(result.right_indices) >= 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=60),
    st.lists(st.integers(0, 12), max_size=60),
)
def test_all_join_kernels_agree(build_values, probe_values):
    """Property (Table 2 / footnote 1): every applicable join kernel
    produces exactly the same match multiset."""
    build = np.array(build_values, dtype=np.int64)
    probe = np.array(probe_values, dtype=np.int64)
    expected = naive_pairs(build_values, probe_values)
    for algorithm in JoinAlgorithm:
        if algorithm is JoinAlgorithm.OJ:
            # OJ requires sorted inputs; sorting permutes row identities,
            # so compare against the naive pairs of the sorted inputs.
            sorted_build = np.sort(build)
            sorted_probe = np.sort(probe)
            result = join(sorted_build, sorted_probe, algorithm)
            assert result.canonical_pairs() == naive_pairs(
                sorted_build.tolist(), sorted_probe.tolist()
            )
            continue
        try:
            result = join(build, probe, algorithm)
        except PreconditionError:
            assert algorithm is JoinAlgorithm.SPHJ
            continue
        assert result.canonical_pairs() == expected, algorithm


# --------------------------------------------------------------------------
# BuildSide.group_counts: the pairs' per-group count, without the pairs,
# and BuildSide.pairs: the pairs, off the same slots

#: (algorithm, BuildSide kind): HJ hashes, SPHJ indexes directly, BSJ and
#: OJ binary-search (OJ's build rows are in slot order: ``rows`` is None).
COUNTING_JOINS = {
    JoinAlgorithm.HJ: "hash",
    JoinAlgorithm.SPHJ: "direct",
    JoinAlgorithm.BSJ: "sorted",
    JoinAlgorithm.OJ: "sorted",
}
#: groups of the build rows: key // 10, so group 0 (and the last) has no
#: build row, and every build key of a group shares it.
NUM_GROUPS = 14


def counting_build_keys(algorithm, repeated: bool) -> np.ndarray:
    """Build keys over 10..129 with every seventh key absent (unoccupied
    direct slots), distinct or each repeated up to three times; shuffled
    except for OJ, whose build input is sorted."""
    rng = np.random.default_rng(31)
    keys = np.array([key for key in range(10, 130) if key % 7], dtype=np.int64)
    if repeated:
        keys = np.repeat(keys, rng.integers(1, 4, keys.size))
    return keys if algorithm is JoinAlgorithm.OJ else rng.permutation(keys)


def counting_probes() -> dict:
    """Probe key columns: hits only, misses inside the build keys' domain
    (absent keys) and outside it (below and above), none at all, and a
    few distinct keys among which every kind of miss (fewer distinct
    probe keys than build slots)."""
    rng = np.random.default_rng(37)
    return {
        "hits": rng.choice([key for key in range(10, 130) if key % 7], 900),
        "misses": rng.integers(0, 150, 900),
        "out_of_domain": np.concatenate(
            [rng.integers(-40, 10, 50), rng.integers(10, 130, 800), [10**12, -(10**12)]]
        ),
        "empty": np.empty(0, dtype=np.int64),
        "few_keys": rng.choice([-5, 3, 14, 21, 22, 35, 64, 98, 129, 130, 10**9], 600),
    }


def counting_case(algorithm, repeated, probe_kind, probe_form):
    """The build keys, probe keys, build side, probe encoding (None for a
    raw probe), the probe's slots and the kernel's pairs of one case;
    checks that ``pairs`` of the slots are the probe's pairs. The
    ``"rle"`` form is the probe sorted into runs, then encoded: the
    dictionary a sorted probe column holds."""
    build_keys = counting_build_keys(algorithm, repeated)
    probe = counting_probes()[probe_kind].astype(np.int64)
    if algorithm is JoinAlgorithm.OJ or probe_form == "rle":
        probe = np.sort(probe)
    build = build_side(build_keys, algorithm)
    assert build.kind == COUNTING_JOINS[algorithm]
    assert (build.offsets is not None) == repeated
    if probe_form == "raw":
        expected = build.probe(probe)
        encoded, keys = None, probe
    else:
        encoded = dictionary_encode(probe)
        expected = build.probe_encoded(encoded)
        keys = encoded.dictionary
    slots = build.slots(keys)
    for got, want in zip(build.pairs(slots, encoded), expected):
        assert np.array_equal(got, want)
    return build_keys, probe, build, encoded, slots, expected


@pytest.mark.parametrize("probe_form", ["raw", "rle", "dictionary"])
@pytest.mark.parametrize(
    "probe_kind", ["hits", "misses", "out_of_domain", "empty", "few_keys"]
)
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("algorithm", list(COUNTING_JOINS), ids=lambda a: a.name)
def test_group_counts_equal_bincount_of_the_pairs(algorithm, repeated, probe_kind, probe_form):
    """``group_counts`` of a probe column's slots, one per row, or one
    per dictionary entry weighted by its count, equals
    ``np.bincount`` of the groups of the build rows the same probe pairs
    with, and its total (and ``num_matches``) is the number of pairs;
    ``pairs`` of the same slots are the probe's pairs."""
    build_keys, probe, build, encoded, slots, expected = counting_case(
        algorithm, repeated, probe_kind, probe_form
    )
    row_groups = build_keys // 10
    left = expected[0]
    counts, total = build.group_counts(slots, encoded, row_groups, NUM_GROUPS)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(row_groups[left], minlength=NUM_GROUPS))
    assert total == build.num_matches(slots, probe.size, encoded) == left.size
    # Independently: a group matches every probe row with a key of its
    # build rows, once per build row.
    assert counts.tolist() == [
        sum(int(np.sum(probe == key)) for key in build_keys[row_groups == group])
        for group in range(NUM_GROUPS)
    ]
    assert counts[0] == counts[-1] == 0


@pytest.mark.parametrize("probe_form", ["raw", "rle", "dictionary"])
@pytest.mark.parametrize("probe_kind", ["hits", "misses", "out_of_domain", "empty"])
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("algorithm", list(COUNTING_JOINS), ids=lambda a: a.name)
def test_match_counts_equal_bincount_of_the_pairs(algorithm, repeated, probe_kind, probe_form):
    """The pairs' per-build-row match counts, without the pairs:
    ``group_counts`` with every build row its own group equals
    ``np.bincount`` of the build rows the same probe pairs with, so
    repeated build keys each count their own matches."""
    build_keys, probe, build, encoded, slots, expected = counting_case(
        algorithm, repeated, probe_kind, probe_form
    )
    left = expected[0]
    counts, total = build.group_counts(
        slots, encoded, np.arange(build_keys.size), build_keys.size
    )
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.bincount(left, minlength=build_keys.size))
    assert total == left.size
    # Independently: a build row matches every probe row with its key.
    assert counts.tolist() == [int(np.sum(probe == key)) for key in build_keys]
