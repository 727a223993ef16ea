"""Columns, schemas, and logical types."""

import numpy as np
import pytest

from repro.errors import ColumnError, SchemaError
from repro.storage import Column, ColumnSpec, DataType, Schema, Table


class TestDataType:
    def test_numpy_mapping_roundtrip(self):
        for member in DataType:
            assert DataType.from_numpy(member.numpy_dtype) is member

    def test_promotion_of_exotic_widths(self):
        assert DataType.from_numpy(np.int8) is DataType.INT64
        assert DataType.from_numpy(np.float32) is DataType.FLOAT64
        assert DataType.from_numpy(np.uint16) is DataType.UINT32

    def test_unsupported_dtype(self):
        with pytest.raises(ColumnError):
            DataType.from_numpy(np.dtype("U5"))

    def test_byte_width(self):
        assert DataType.INT32.byte_width == 4
        assert DataType.INT64.byte_width == 8

    def test_is_integer(self):
        assert DataType.UINT32.is_integer
        assert not DataType.FLOAT64.is_integer
        assert not DataType.BOOL.is_integer


class TestColumn:
    def test_backing_array_is_readonly(self):
        column = Column("x", [1, 2, 3])
        with pytest.raises(ValueError):
            column.values[0] = 99

    def test_statistics_cached(self):
        column = Column("x", [3, 1, 2])
        assert column.statistics is column.statistics

    def test_renamed_shares_data(self):
        column = Column("x", [1, 2])
        renamed = column.renamed("y")
        assert renamed.name == "y"
        assert renamed.values is column.values

    def test_rejects_2d(self):
        with pytest.raises(ColumnError):
            Column("x", np.zeros((2, 2)))

    def test_rejects_empty_name(self):
        with pytest.raises(ColumnError):
            Column("", [1])

    def test_take(self):
        column = Column("x", [10, 20, 30])
        assert list(column.take(np.array([2, 0])).values) == [30, 10]

    def test_uint64_beyond_int64_is_rejected_not_wrapped(self):
        values = np.uint64(2**63) + np.arange(10, dtype=np.uint64)
        with pytest.raises(ColumnError, match="do not fit"):
            Column("x", values)
        with pytest.raises(ColumnError, match="do not fit"):
            Table.from_arrays({"x": values})

    def test_uint64_that_fits_is_kept_exactly(self):
        values = np.array([0, 7, 2**63 - 1], dtype=np.uint64)
        column = Column("x", values)
        assert column.dtype is DataType.INT64
        assert column.values.tolist() == [0, 7, 2**63 - 1]
        assert column.statistics.minimum == 0
        assert column.statistics.maximum == 2**63 - 1

    def test_explicit_narrower_type_must_hold_every_value(self):
        assert Column("x", np.array([-5, 2**31 - 1]), DataType.INT32).values.tolist() == [
            -5,
            2**31 - 1,
        ]
        with pytest.raises(ColumnError, match="do not fit"):
            Column("x", np.array([2**31]), DataType.INT32)
        with pytest.raises(ColumnError, match="do not fit"):
            Column("x", np.array([-1]), DataType.UINT32)

    def test_equals(self):
        assert Column("x", [1, 2]).equals(Column("x", [1, 2]))
        assert not Column("x", [1, 2]).equals(Column("y", [1, 2]))
        assert not Column("x", [1, 2]).equals(Column("x", [1, 3]))


class TestSchema:
    def test_of_and_lookup(self):
        schema = Schema.of(a=DataType.INT64, b=DataType.FLOAT64)
        assert schema.names == ("a", "b")
        assert schema["b"].dtype is DataType.FLOAT64
        assert schema.position("b") == 1

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnSpec("a", DataType.INT64)] * 2)

    def test_missing_lookup(self):
        schema = Schema.of(a=DataType.INT64)
        with pytest.raises(SchemaError):
            schema["b"]
        with pytest.raises(SchemaError):
            schema.position("b")

    def test_project(self):
        schema = Schema.of(a=DataType.INT64, b=DataType.INT64, c=DataType.INT64)
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_qualified(self):
        schema = Schema.of(a=DataType.INT64).qualified("T")
        assert schema.names == ("T.a",)

    def test_concat_conflict(self):
        a = Schema.of(x=DataType.INT64)
        with pytest.raises(SchemaError):
            a.concat(a)

    def test_equality_and_hash(self):
        a = Schema.of(x=DataType.INT64)
        b = Schema.of(x=DataType.INT64)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Schema.of(x=DataType.INT32)
