"""Dictionary and run-length compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ColumnError
from repro.storage import (
    Column,
    dictionary_encode,
    dictionary_encode_column,
    rle_encode,
)
from repro.storage.dictionary import code_dtype


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
        code_column, __ = dictionary_encode_column(column)
        stats = code_column.statistics
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
