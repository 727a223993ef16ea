"""The five §4.1 grouping kernels: correctness, preconditions, agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import Density, Sortedness, make_grouping_dataset, zipf_keys
from repro.engine.kernels.grouping import (
    GroupingAlgorithm,
    KeyOrder,
    binary_search_slots,
    group_by,
    hash_slots,
    order_slots,
    perfect_hash_slots,
    sort_order_slots,
)
from repro.errors import PreconditionError


def naive_group(keys, values):
    """Ground truth: dict-based COUNT and SUM."""
    counts: dict[int, int] = {}
    sums: dict[int, int] = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        counts[key] = counts.get(key, 0) + 1
        sums[key] = sums.get(key, 0) + value
    return counts, sums


def check_result(result, keys, values):
    counts, sums = naive_group(keys, values)
    canonical = result.sorted_by_key()
    assert canonical.keys.tolist() == sorted(counts)
    assert canonical.counts.tolist() == [counts[k] for k in sorted(counts)]
    assert canonical.sums.tolist() == [sums[k] for k in sorted(sums)]


class TestIndividualKernels:
    def test_hash_slots_first_occurrence_grouping(self):
        keys = np.array([7, 3, 7, 9, 3, 7])
        assignment = hash_slots(keys)
        assert assignment.num_groups == 3
        assert assignment.key_order is KeyOrder.UNSPECIFIED
        assert np.array_equal(assignment.group_keys[assignment.slots], keys)

    def test_perfect_hash_minimal_dense(self):
        keys = np.array([2, 0, 1, 2])
        assignment = perfect_hash_slots(keys)
        assert assignment.key_order is KeyOrder.SORTED
        assert list(assignment.group_keys) == [0, 1, 2]
        assert list(assignment.slots) == [2, 0, 1, 2]

    def test_perfect_hash_offset_domain(self):
        keys = np.array([1000, 1001, 1000])
        assignment = perfect_hash_slots(keys)
        assert list(assignment.group_keys) == [1000, 1001]

    def test_perfect_hash_nonminimal_compacts(self):
        # 3 of 4 domain values used: density 0.75 passes, slots compact.
        keys = np.array([0, 1, 3, 3])
        assignment = perfect_hash_slots(keys)
        assert list(assignment.group_keys) == [0, 1, 3]
        assert assignment.num_groups == 3

    def test_perfect_hash_sparse_rejected(self):
        with pytest.raises(PreconditionError, match="dense"):
            perfect_hash_slots(np.array([0, 1000]))

    def test_sphg_refuses_zipf_1_5_keys(self):
        """Skew interacts with density: the tail of a Zipf(1.5) draw over
        10 000 keys is never drawn, so the realised domain has gaps and
        SPHG must refuse. Density is a fact about the data at hand, not
        about the nominal domain."""
        keys = zipf_keys(300_000, 10_000, 1.5, np.random.default_rng(0))
        realised = np.unique(keys).size
        domain = int(keys.max()) - int(keys.min()) + 1
        assert realised / domain < 0.5
        with pytest.raises(PreconditionError, match="dense"):
            group_by(keys, None, GroupingAlgorithm.SPHG)

    def test_perfect_hash_empty_needs_domain(self):
        with pytest.raises(PreconditionError):
            perfect_hash_slots(np.empty(0, dtype=np.int64))

    def test_sphg_assignment_over_no_keys_is_empty(self):
        result = group_by(np.empty(0, dtype=np.int64), None, GroupingAlgorithm.SPHG)
        assert result.num_groups == 0

    def test_perfect_hash_full_int64_domain_is_a_precondition(self):
        info = np.iinfo(np.int64)
        with pytest.raises(PreconditionError, match="dense"):
            perfect_hash_slots(np.array([info.min, 0, info.max]))

    def test_perfect_hash_rejects_before_allocating_the_domain(self):
        import tracemalloc

        # 62 500 keys over a domain of 2 * 10**7: a domain-sized count
        # array alone would be 160 MB.
        keys = np.arange(62_500, dtype=np.int64) * 320
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="dense"):
                perfect_hash_slots(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * keys.nbytes

    def test_order_slots_on_sorted(self):
        keys = np.array([1, 1, 2, 5, 5, 5])
        assignment = order_slots(keys)
        assert assignment.key_order is KeyOrder.SORTED
        assert list(assignment.group_keys) == [1, 2, 5]
        assert list(assignment.slots) == [0, 0, 1, 2, 2, 2]

    def test_order_slots_on_clustered(self):
        keys = np.array([5, 5, 1, 1, 3])
        assignment = order_slots(keys, validate=True)
        assert assignment.key_order is KeyOrder.FIRST_OCCURRENCE
        assert list(assignment.group_keys) == [5, 1, 3]

    def test_order_slots_validation_catches_unclustered(self):
        with pytest.raises(PreconditionError, match="clustered"):
            order_slots(np.array([1, 2, 1]), validate=True)

    def test_order_slots_silent_wrong_without_validation(self):
        # Documented hazard: violating the precondition silently yields
        # one group per run.
        assignment = order_slots(np.array([1, 2, 1]))
        assert assignment.num_groups == 3

    def test_sort_order_slots_reference_original_rows(self):
        keys = np.array([9, 1, 9, 4])
        assignment = sort_order_slots(keys)
        assert assignment.key_order is KeyOrder.SORTED
        assert list(assignment.group_keys) == [1, 4, 9]
        assert list(assignment.slots) == [2, 0, 2, 1]

    def test_binary_search_slots(self):
        keys = np.array([30, 10, 30])
        assignment = binary_search_slots(keys)
        assert list(assignment.group_keys) == [10, 30]
        assert list(assignment.slots) == [1, 0, 1]

    def test_binary_search_with_known_directory(self):
        directory = np.array([10, 20, 30])
        assignment = binary_search_slots(np.array([20, 10]), directory)
        assert list(assignment.slots) == [1, 0]
        assert assignment.num_groups == 3  # directory keys are the groups

    def test_binary_search_rejects_bad_directory(self):
        with pytest.raises(PreconditionError):
            binary_search_slots(np.array([1]), np.array([2, 1]))
        with pytest.raises(PreconditionError, match="not present"):
            binary_search_slots(np.array([99]), np.array([1, 2]))


class TestGroupByDispatch:
    @pytest.mark.parametrize("algorithm", list(GroupingAlgorithm))
    def test_counts_and_sums(self, algorithm, rng):
        keys = np.sort(rng.integers(0, 50, 2_000))
        values = rng.integers(0, 100, 2_000)
        result = group_by(keys, values, algorithm, num_distinct_hint=50)
        check_result(result, keys, values)

    def test_count_only(self):
        result = group_by(np.array([1, 1, 2]), None, GroupingAlgorithm.SOG)
        assert list(result.counts) == [2, 1]
        assert list(result.sums) == [0, 0]

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            group_by(np.array([1, 2]), np.array([1]), GroupingAlgorithm.SOG)

    def test_float_sums(self):
        result = group_by(
            np.array([0, 0, 1]),
            np.array([0.5, 0.25, 1.0]),
            GroupingAlgorithm.SOG,
        )
        assert result.sums.tolist() == [0.75, 1.0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=300),
    st.randoms(use_true_random=False),
)
def test_all_applicable_kernels_agree(key_values, _random):
    """Property (§4.1): every applicable implementation computes the same
    groups, counts, and sums on arbitrary input."""
    keys = np.array(key_values, dtype=np.int64)
    values = np.arange(keys.size, dtype=np.int64)
    counts, sums = naive_group(keys, values)
    results = {}
    for algorithm in GroupingAlgorithm:
        if algorithm is GroupingAlgorithm.OG:
            # Respect OG's precondition: feed it the sorted input (the
            # agreement claim is about the groups, which sorting keeps).
            order = np.argsort(keys, kind="stable")
            result = group_by(keys[order], values[order], algorithm)
        else:
            try:
                result = group_by(keys, values, algorithm)
            except PreconditionError:
                assert algorithm is GroupingAlgorithm.SPHG  # sparse domain
                continue
        results[algorithm] = result.sorted_by_key()
    reference = results[GroupingAlgorithm.SOG]
    assert reference.keys.tolist() == sorted(counts)
    for algorithm, result in results.items():
        assert result.keys.tolist() == reference.keys.tolist(), algorithm
        assert result.counts.tolist() == reference.counts.tolist(), algorithm
        assert result.sums.tolist() == reference.sums.tolist(), algorithm


@pytest.mark.parametrize("sortedness", list(Sortedness))
@pytest.mark.parametrize("density", list(Density))
def test_kernels_agree_on_figure4_datasets(sortedness, density):
    """All applicable kernels agree on each §4.1 dataset configuration."""
    dataset = make_grouping_dataset(
        3_000, 64, sortedness=sortedness, density=density, seed=11
    )
    reference = group_by(
        dataset.keys, dataset.payload, GroupingAlgorithm.SOG
    ).sorted_by_key()
    for algorithm in GroupingAlgorithm:
        if algorithm is GroupingAlgorithm.SPHG and density is Density.SPARSE:
            continue
        if algorithm is GroupingAlgorithm.OG and sortedness is Sortedness.UNSORTED:
            continue
        result = group_by(
            dataset.keys, dataset.payload, algorithm, num_distinct_hint=64
        ).sorted_by_key()
        assert np.array_equal(result.keys, reference.keys)
        assert np.array_equal(result.counts, reference.counts)
        assert np.array_equal(result.sums, reference.sums)

