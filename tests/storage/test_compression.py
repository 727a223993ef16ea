"""Dictionary and run-length compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ColumnError
from repro.storage import Column, code_column, dictionary_encode, rle_encode
from repro.storage import dictionary as dictionary_module
from repro.storage.dictionary import code_dtype, narrow_counts
from repro.storage.statistics import OCCUPANCY_MAX_SPREAD


@pytest.mark.parametrize(
    "count,dtype",
    [
        (0, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (1 << 16, np.uint16),
        ((1 << 16) + 1, np.uint32),
        (1 << 32, np.uint32),
        ((1 << 32) + 1, np.uint64),
    ],
)
def test_code_dtype_is_the_narrowest_that_holds_every_code(count, dtype):
    assert code_dtype(count) == np.dtype(dtype)


@pytest.mark.parametrize("distinct", [255, 256, 257, 65_536, 65_537])
def test_dictionary_codes_use_the_one_width_rule(distinct):
    values = np.arange(distinct, dtype=np.int64)[::-1].repeat(2)
    encoded = dictionary_encode(values)
    assert encoded.codes.dtype == code_dtype(distinct)
    assert np.array_equal(encoded.decode(), values)


@pytest.mark.parametrize("most", [1, 255, 256, 65_536])
def test_dictionary_counts_use_the_one_width_rule(most):
    values = np.concatenate([np.full(most, 7), np.arange(3)]).astype(np.int64)
    encoded = dictionary_encode(values[::-1])
    assert encoded.counts.dtype == code_dtype(most + 1)
    assert encoded.counts.tolist() == [1, 1, 1, most]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=200))
def test_dictionary_counts_are_rows_per_entry(values):
    values = np.array(values, dtype=np.int64)
    encoded = dictionary_encode(values)
    assert int(encoded.counts.sum()) == values.size
    assert encoded.counts.tolist() == np.bincount(encoded.codes).tolist()
    assert encoded.memory_bytes() == (
        encoded.codes.nbytes + encoded.dictionary.nbytes + encoded.counts.nbytes
    )


@pytest.mark.parametrize("longest", [1, 255, 256, 65_536])
def test_run_lengths_use_the_one_width_rule(longest):
    values = np.concatenate([np.zeros(longest), np.ones(3)]).astype(np.int64)
    encoded = rle_encode(values)
    assert encoded.lengths.dtype == code_dtype(longest + 1)
    assert encoded.lengths.tolist() == [longest, 3]
    assert np.array_equal(encoded.decode(), values)


class TestDictionary:
    def test_codes_are_dense_from_zero(self):
        encoded = dictionary_encode(np.array([100, 500, 100, 900]))
        assert set(encoded.codes.tolist()) == {0, 1, 2}
        assert encoded.cardinality == 3

    def test_order_preserving(self):
        values = np.array([50, 10, 90, 10])
        encoded = dictionary_encode(values)
        # codes compare exactly like the originals
        for i in range(len(values)):
            for j in range(len(values)):
                assert (values[i] < values[j]) == (
                    encoded.codes[i] < encoded.codes[j]
                )

    def test_decode_roundtrip(self):
        values = np.array([7, 3, 7, 9, 3])
        assert np.array_equal(dictionary_encode(values).decode(), values)

    def test_encode_values_unknown(self):
        encoded = dictionary_encode(np.array([1, 2, 3]))
        with pytest.raises(ColumnError):
            encoded.encode_values(np.array([99]))

    def test_column_encoding_manufactures_density(self):
        # A sparse sorted column becomes a dense sorted code column —
        # the §2.1 dictionary-compression-enables-SPH observation.
        column = Column("k", np.array([10, 10, 500, 9000]))
        stats = code_column(column, dictionary_encode(column.values)).statistics
        assert stats.is_dense
        assert stats.is_sorted
        assert stats.distinct == 3

    @given(st.lists(st.integers(-500, 500), min_size=1, max_size=100))
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        encoded = dictionary_encode(array)
        assert np.array_equal(encoded.decode(), array)
        # dictionary is sorted & distinct
        d = encoded.dictionary
        assert np.all(d[:-1] < d[1:]) if d.size > 1 else True


# --------------------------------------------------------------------------
# An integer column over a domain of at most OCCUPANCY_MAX_SPREAD times its
# length is encoded by counting, without a sort: the result is np.unique's.


@pytest.fixture
def counted(monkeypatch) -> list:
    """The row count of every array ``dictionary_encode`` encodes by
    counting."""
    calls = []
    real = dictionary_module._encode_by_counting

    def spy(values, minimum, domain):
        calls.append(values.size)
        return real(values, minimum, domain)

    monkeypatch.setattr(dictionary_module, "_encode_by_counting", spy)
    return calls


def assert_equals_unique(values: np.ndarray) -> None:
    """``dictionary_encode(values)`` is ``np.unique``'s dictionary,
    inverse and counts, bit for bit, in the one width rule's types."""
    encoded = dictionary_encode(values)
    dictionary, codes, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    assert encoded.dictionary.dtype == dictionary.dtype == values.dtype
    assert np.array_equal(encoded.dictionary, dictionary)
    assert encoded.codes.dtype == code_dtype(dictionary.size)
    assert np.array_equal(encoded.codes, codes)
    assert encoded.counts.dtype == narrow_counts(counts).dtype
    assert np.array_equal(encoded.counts, counts)


def spread_of(values: np.ndarray) -> int:
    return int(values.max()) - int(values.min()) + 1


COUNTED_CASES = {
    # A naive offset in int8 would wrap: 127 - (-128) does not fit.
    "int8_full_range": np.array([-128, 127, 0, -1, 5, 127, -128], dtype=np.int8)
    .repeat(40),
    "int8_wide": np.random.default_rng(1).integers(-128, 128, 300).astype(np.int8),
    "int32": np.random.default_rng(2).integers(-50_000, 50_000, 60_000).astype(np.int32),
    "int64_negative": np.random.default_rng(3).integers(-2**62, -2**62 + 900, 1_000),
    "int64_minimum": np.array([-2**63, -2**63 + 3, -2**63, -2**63 + 1]),
    "int64_maximum": np.array([2**63 - 1, 2**63 - 4, 2**63 - 1]),
    "uint32_above_2_31": (
        np.uint32(2**31) + np.random.default_rng(4).integers(0, 2_000, 1_500)
    ).astype(np.uint32),
    "uint64_above_2_63": np.uint64(2**63) + np.arange(12, dtype=np.uint64)[::-1],
    "one_value": np.full(25, -7, dtype=np.int64),
    "one_row": np.array([3], dtype=np.uint16),
}


@pytest.mark.parametrize("name", sorted(COUNTED_CASES))
def test_counting_encoder_equals_unique(name, counted):
    values = COUNTED_CASES[name]
    assert spread_of(values) <= OCCUPANCY_MAX_SPREAD * values.size
    assert_equals_unique(values)
    assert counted == [values.size]


@pytest.mark.parametrize("rows", [2, 7, 100])
@pytest.mark.parametrize("extra", [0, 1], ids=["at_bound", "one_past"])
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint32])
def test_counting_bound_is_the_occupancy_spread(rows, extra, dtype, counted):
    """A domain of exactly OCCUPANCY_MAX_SPREAD times the rows is
    counted; one value wider is sorted. Both equal ``np.unique``. Signed
    domains start at the type's minimum, unsigned ones at 2**31."""
    domain = OCCUPANCY_MAX_SPREAD * rows + extra
    low = int(np.iinfo(dtype).min) if np.dtype(dtype).kind == "i" else 2**31
    offsets = np.random.default_rng(rows + extra).integers(0, domain, rows)
    offsets[0], offsets[-1] = 0, domain - 1
    values = (low + offsets).astype(dtype)
    assert spread_of(values) == domain
    assert_equals_unique(values)
    assert counted == ([] if extra else [rows])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]),
    st.data(),
)
def test_dictionary_encode_equals_unique_on_any_integers(dtype, data):
    limits = np.iinfo(dtype)
    values = data.draw(
        st.lists(st.integers(int(limits.min), int(limits.max)), min_size=1, max_size=60)
    )
    if data.draw(st.booleans()):
        # Cluster the values so the domain is narrow enough to count.
        low = data.draw(st.integers(int(limits.min), int(limits.max) - 100))
        values = [low + value % 100 for value in values]
    assert_equals_unique(np.array(values, dtype=dtype))


# --------------------------------------------------------------------------
# A non-decreasing integer column too wide to count is encoded from its
# runs, in one pass and without a sort: the result is np.unique's.


@pytest.fixture
def from_runs(monkeypatch) -> list:
    """The row count of every array ``dictionary_encode`` encodes from
    its runs."""
    calls = []
    real = dictionary_module._encode_runs

    def spy(values):
        calls.append(values.size)
        return real(values)

    monkeypatch.setattr(dictionary_module, "_encode_runs", spy)
    return calls


RUN_CASES = {
    "dense": np.repeat(np.arange(-3, 200), 3),
    "sparse": np.sort(np.random.default_rng(5).integers(0, 10**9, 4_000)),
    "negative": np.sort(np.random.default_rng(6).integers(-(2**40), -(2**39), 900)),
    "int64_extremes": np.array([-(2**63), -(2**63), -1, 0, 2**63 - 2, 2**63 - 1]),
    "uint64_extremes": np.array([0, 1, 2**63, 2**64 - 1, 2**64 - 1], dtype=np.uint64),
    "int8": np.array([-128, -128, -5, 90, 127], dtype=np.int8),
    "257_runs": np.repeat(np.arange(257) * 1_000, 2).astype(np.int32),
    "one_row": np.array([42], dtype=np.int16),
    "one_value": np.full(30, -(2**62)),
}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_encoder_equals_unique(name):
    """The run path itself, on any non-decreasing integer input: dense
    (which ``dictionary_encode`` counts instead), sparse, negative, at
    the extremes of the type, one row or one value."""
    values = RUN_CASES[name]
    encoded = dictionary_module._encode_runs(values)
    dictionary, codes, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    assert encoded.dictionary.dtype == dictionary.dtype == values.dtype
    assert np.array_equal(encoded.dictionary, dictionary)
    assert encoded.codes.dtype == code_dtype(dictionary.size)
    assert np.array_equal(encoded.codes, codes)
    assert encoded.counts.dtype == narrow_counts(counts).dtype
    assert np.array_equal(encoded.counts, counts)


@pytest.mark.parametrize("name", ["sparse", "negative", "int64_extremes", "257_runs"])
def test_sorted_wide_column_is_encoded_from_its_runs(name, from_runs, counted):
    values = RUN_CASES[name]
    assert spread_of(values) > OCCUPANCY_MAX_SPREAD * values.size
    assert_equals_unique(values)
    assert from_runs == [values.size] and counted == []


def test_unsorted_wide_column_is_sorted(from_runs, counted):
    values = RUN_CASES["sparse"][::-1].copy()
    assert_equals_unique(values)
    assert from_runs == counted == []


class TestRLE:
    def test_basic_runs(self):
        encoded = rle_encode(np.array([3, 3, 5, 5, 5, 3]))
        assert list(encoded.values) == [3, 5, 3]
        assert list(encoded.lengths) == [2, 3, 1]
        assert encoded.num_runs == 3
        assert encoded.decoded_size == 6

    def test_empty(self):
        encoded = rle_encode(np.empty(0, dtype=np.int64))
        assert encoded.num_runs == 0
        assert encoded.decoded_size == 0
        assert encoded.compression_ratio == 1.0

    def test_compression_ratio(self):
        encoded = rle_encode(np.zeros(100, dtype=np.int64))
        assert encoded.compression_ratio == 100.0

    @given(st.lists(st.integers(0, 5), max_size=200))
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(rle_encode(array).decode(), array)
