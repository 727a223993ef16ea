"""Statistics are the same statistics.

The distinct count of a narrow-domain integer column now comes from an
occupancy array instead of a sort, zone maps and the encoding choice
share that count, and ``append_table`` merges statistics instead of
re-measuring the table. None of it may change a number: the definitions
these replaced are kept here (``np.unique`` and ``runs_of``) and every
field is compared with them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.arrays import is_nondecreasing, runs_of
from repro.storage import Table
from repro.storage.disk import BufferManager, append_table, write_table
from repro.storage.disk.format import _zone_map, choose_encoding, encode_segment
from repro.storage.statistics import (
    OCCUPANCY_MAX_SPREAD,
    ColumnStatistics,
    collect_statistics,
    merge_statistics,
    occupancy_distinct,
)

FIELDS = (
    "count",
    "minimum",
    "maximum",
    "distinct",
    "is_sorted",
    "is_clustered",
    "is_dense",
)


def reference_statistics(values: np.ndarray) -> ColumnStatistics:
    """``collect_statistics`` as it was defined before the occupancy
    primitive: distinct values by ``np.unique``, runs by ``runs_of``."""
    if values.size == 0:
        return ColumnStatistics(0, None, None, 0, True, True, False)
    minimum, maximum = values.min(), values.max()
    is_sorted = is_nondecreasing(values)
    runs = int(runs_of(values)[1].size)
    distinct = runs if is_sorted else int(np.unique(values).size)
    if np.issubdtype(values.dtype, np.integer):
        dense = distinct == int(maximum) - int(minimum) + 1
        low, high = int(minimum), int(maximum)
    else:
        dense = False
        low, high = float(minimum), float(maximum)
    return ColumnStatistics(
        int(values.size), low, high, distinct, is_sorted, is_sorted or runs == distinct, dense
    )


def same(left, right) -> bool:
    """Equality under which NaN equals NaN (a NaN-bearing float column
    has NaN extremes) and an int never equals a float."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return type(left) is type(right) and left == right


def assert_same_statistics(got: ColumnStatistics, want: ColumnStatistics) -> None:
    for name in FIELDS:
        assert same(getattr(got, name), getattr(want, name)), (name, got, want)


#: every ``DataType`` (int32, int64, uint32, bool, float64 — with and
#: without NaN) plus the narrow integers ``collect_statistics`` accepts raw.
KINDS = ("int8", "int16", "int32", "int64", "uint32", "bool", "float64", "float64_nan")
ORDERS = ("sorted", "clustered", "shuffled")
#: dense, one hole, the occupancy threshold from below / at / above, and
#: the whole of the dtype (for int64, [INT64_MIN, INT64_MAX]).
SHAPES = ("dense", "one_hole", "constant", "below", "at", "above", "extremes")
SIZES = (0, 1, 2, 3, 17, 200)


def make_column(kind: str, order: str, shape: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "bool":
        values = rng.integers(0, 2, size).astype(np.bool_)
        if shape == "constant":
            values[:] = True
    elif kind.startswith("float"):
        values = integers(rng, np.dtype(np.int64), shape, size).astype(np.float64) / 2
    else:
        values = integers(rng, np.dtype(kind), shape, size)
    if order == "sorted":
        values = np.sort(values)
    elif order == "clustered" and values.size:
        # Equal values contiguous, the runs in random order.
        distinct, counts = np.unique(values, return_counts=True)
        runs = rng.permutation(distinct.size)
        values = np.repeat(distinct[runs], counts[runs])
    else:
        values = rng.permutation(values)
    if kind == "float64_nan" and values.size:
        values[rng.integers(0, values.size, max(values.size // 8, 1))] = np.nan
    return values


def integers(rng, dtype: np.dtype, shape: str, size: int) -> np.ndarray:
    """``size`` integers of ``dtype`` whose domain has the given shape."""
    info = np.iinfo(dtype)
    if size == 0:
        return np.empty(0, dtype=dtype)
    if shape == "extremes":
        picks = rng.integers(info.min, info.max, size, dtype=dtype, endpoint=True)
        picks[0] = info.min
        picks[-1] = info.max
        return picks
    if shape in ("dense", "one_hole", "constant"):
        domain = 1 if shape == "constant" else int(rng.integers(1, size + 1))
    else:
        domain = OCCUPANCY_MAX_SPREAD * size + {"below": -1, "at": 0, "above": 1}[shape]
    domain = max(min(domain, int(info.max) - int(info.min)), 1)
    low = int(rng.integers(int(info.min), int(info.max) - domain + 1, endpoint=True))
    offsets = rng.integers(0, domain, size)
    if shape in ("dense", "one_hole"):
        offsets[:domain] = np.arange(domain)[:size]  # every value occurs
        if shape == "one_hole" and domain >= 3:
            offsets[offsets == domain // 2] = 0
    else:
        offsets[0], offsets[-1] = 0, domain - 1  # the domain is as stated
    # Python integers: ``low + offset`` must not wrap in a narrow dtype.
    return np.array([low + int(offset) for offset in offsets], dtype=dtype)


columns = st.builds(
    make_column,
    st.sampled_from(KINDS),
    st.sampled_from(ORDERS),
    st.sampled_from(SHAPES),
    st.sampled_from(SIZES),
    st.integers(0, 2**32 - 1),
)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS)
def test_collect_statistics_equals_the_sorting_definition_on_the_grid(kind, order):
    for shape in SHAPES:
        for size in SIZES:
            values = make_column(kind, order, shape, size, seed=size)
            assert_same_statistics(
                collect_statistics(values), reference_statistics(values)
            )


@settings(max_examples=300, deadline=None)
@given(columns)
def test_collect_statistics_equals_the_sorting_definition(values):
    assert_same_statistics(collect_statistics(values), reference_statistics(values))


def test_occupancy_threshold_is_exercised_on_both_sides(monkeypatch):
    """The strategy's below/at/above shapes do straddle the threshold:
    at it the occupancy array counts, above it the sort does."""
    calls = []
    original = occupancy_distinct

    def counted(values, minimum, domain):
        calls.append(domain)
        return original(values, minimum, domain)

    monkeypatch.setattr("repro.storage.statistics.occupancy_distinct", counted)
    size = 100
    for domain, expected in ((2 * size, 1), (2 * size + 1, 0)):
        calls.clear()
        values = np.array([domain - 1] + [0] * (size - 1), dtype=np.int64)
        collect_statistics(values)
        assert len(calls) == expected


def test_int64_extremes_do_not_wrap():
    info = np.iinfo(np.int64)
    values = np.array([info.max, info.min, 0, info.min], dtype=np.int64)
    stats = collect_statistics(values)
    assert (stats.minimum, stats.maximum, stats.distinct) == (info.min, info.max, 3)
    assert not stats.is_dense and stats.domain_size == 2**64


# -- zone maps and the encoding choice -----------------------------------


def reference_zone_map(values: np.ndarray) -> dict:
    null_count = 0
    present = values
    if np.issubdtype(values.dtype, np.floating):
        nan_mask = np.isnan(values)
        null_count = int(np.count_nonzero(nan_mask))
        present = values[~nan_mask] if null_count else values
    if present.size == 0:
        return {"min": None, "max": None, "null_count": null_count, "distinct": 1 if null_count else 0}
    return {
        "min": present.min().item(),
        "max": present.max().item(),
        "null_count": null_count,
        "distinct": int(np.unique(present).size) + (1 if null_count else 0),
    }


def reference_encoding(values: np.ndarray) -> str:
    n = int(values.size)
    if n == 0:
        return "plain"
    itemsize = int(values.dtype.itemsize)
    sizes = {"plain": n * itemsize, "rle": int(runs_of(values)[1].size) * (itemsize + 8)}
    if not (values.dtype.kind == "f" and np.isnan(values).any()):
        cardinality = int(np.unique(values).size)
        width = 1 if cardinality <= 1 << 8 else 2 if cardinality <= 1 << 16 else 4
        sizes["dictionary"] = cardinality * itemsize + n * width
    order = {"plain": 0, "rle": 1, "dictionary": 2}
    return min(sizes, key=lambda name: (sizes[name], order[name]))


def format_corpus() -> list[np.ndarray]:
    """The arrays ``tests/storage/test_disk_format.py`` writes."""
    rng = np.random.default_rng(12345)
    shuffled = np.arange(5000, dtype=np.int64)
    np.random.default_rng(1).shuffle(shuffled)
    return [
        rng.integers(0, 50, size=1000).astype(np.int64),
        rng.normal(size=500).round(2),
        np.array([], dtype=np.int64),
        np.full(64, np.nan),
        np.array([1.0, np.nan, 2.0, np.nan]),
        np.full(10_000, 7, dtype=np.int64),
        np.arange(100, dtype=np.int64),
        np.full(5000, 3, dtype=np.int64),
        rng.integers(0, 4, size=5000).astype(np.int64),
        shuffled,
        np.where(np.arange(5000) % 2 == 0, np.nan, 1.0),
        np.array([5, 1, 9, 1, 5], dtype=np.int64),
        np.array([2.0, np.nan, 8.0]),
        np.full(3, np.nan),
    ]


@pytest.mark.parametrize("values", format_corpus(), ids=lambda v: f"{v.dtype}[{v.size}]")
def test_segment_footers_are_the_same_bytes(values):
    assert choose_encoding(values) == reference_encoding(values)
    zone = _zone_map(values)
    assert all(same(zone[key], value) for key, value in reference_zone_map(values).items())
    __, meta = encode_segment(values)
    assert meta["encoding"] == reference_encoding(values)
    assert {key: meta[key] for key in zone} == zone


@settings(max_examples=200, deadline=None)
@given(columns)
def test_zone_maps_and_encodings_equal_the_sorting_definition(values):
    assert choose_encoding(values) == reference_encoding(values)
    zone, want = _zone_map(values), reference_zone_map(values)
    assert all(same(zone[key], want[key]) for key in want)


# -- append_table merges ---------------------------------------------------

#: (rule, stored column, appended batch); ``None`` marks the fallback.
MERGE_CASES = [
    ("beyond the maximum, sorted", [0, 1, 1, 4], [5, 6, 6]),
    ("beyond the maximum, unsorted batch", [0, 1, 1, 4], [9, 6, 7]),
    ("beyond the maximum, unclustered head", [3, 0, 3, 1], [5, 6]),
    ("below the minimum", [10, 11, 12], [3, 4, 4]),
    ("sorted, boundary value shared", [0, 1, 4, 4], [4, 4, 7]),
    ("all one value", [4, 4], [4, 4, 4]),
    ("dense head, batch inside its domain", [2, 0, 1, 2, 0], [1, 1, 0]),
    ("dense head stays unclustered", [0, 1, 0, 2], [2, 2]),
    ("empty batch", [1, 5, 2], []),
    ("empty table", [], [3, 1, 3]),
    ("floats beyond the maximum", [0.5, 1.5], [2.5, 2.5]),
    (None, [0, 5, 9], [3, 4]),  # overlapping ranges over a sparse head
    (None, [0, 1, 2], [1, 1]),  # dense and clustered head, clustered batch
    (None, [4, 0, 7], [7, 8]),  # boundary value shared, head unsorted
    (None, [1.0, np.nan], [2.0]),  # NaN extremes
]


@pytest.mark.parametrize("rule,head,tail", MERGE_CASES, ids=lambda case: str(case))
def test_merge_rules_are_exact(rule, head, tail, tmp_path):
    dtype = np.float64 if any(isinstance(v, float) for v in head + tail) else np.int64
    head, tail = np.array(head, dtype=dtype), np.array(tail, dtype=dtype)
    whole = reference_statistics(np.concatenate([head, tail]))
    merged = merge_statistics(collect_statistics(head), collect_statistics(tail))
    if rule is None:
        assert merged is None
    else:
        assert_same_statistics(merged, whole)
    # Through the file format, where the fallback measures the column.
    if head.size:
        directory = str(tmp_path / "t")
        pool = BufferManager(budget_bytes=1 << 20)
        write_table(Table.from_arrays({"c": head}), directory, segment_rows=2, buffer=pool)
        appended = append_table(directory, Table.from_arrays({"c": tail}), buffer=pool)
        assert_same_statistics(appended.column("c").statistics, whole)
        if rule is not None:
            assert pool.stats()["misses"] == 0  # merged without decoding a row


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ORDERS),
    st.sampled_from(("dense", "one_hole", "at")),
    st.sampled_from(ORDERS),
    st.sampled_from(("inside", "beyond", "touching")),
    st.integers(0, 2**32 - 1),
)
def test_a_batch_related_to_the_table_merges_exactly(order, shape, batch_order, relation, seed):
    """Batches placed where the rules apply: inside the stored domain,
    wholly beyond the stored maximum, and sharing it."""
    rng = np.random.default_rng(seed)
    head = make_column("int32", order, shape, 17, seed).astype(np.int64)
    picks = rng.integers(0, 6, size=9)
    tail = {
        "inside": rng.choice(head, size=9),
        "beyond": head.max() + 1 + picks,
        "touching": head.max() + picks,
    }[relation]
    tail = np.sort(tail) if batch_order == "sorted" else tail
    merged = merge_statistics(collect_statistics(head), collect_statistics(tail))
    if merged is not None:
        assert_same_statistics(merged, reference_statistics(np.concatenate([head, tail])))
    elif relation == "beyond":
        raise AssertionError("a batch beyond the maximum is always decided")


@settings(max_examples=300, deadline=None)
@given(columns, columns)
def test_a_decided_merge_equals_measuring_the_whole(head, tail):
    if head.dtype != tail.dtype:
        head, tail = head.astype(np.float64), tail.astype(np.float64)
    merged = merge_statistics(collect_statistics(head), collect_statistics(tail))
    if merged is not None:
        assert_same_statistics(merged, reference_statistics(np.concatenate([head, tail])))
