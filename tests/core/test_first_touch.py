"""Correlations are the same correlations, and a first query costs what
it executes.

``detect_monotone_correlation`` decides from statistics where it can,
lets a small sample refute, and sorts only a pair that survives — each
stage must give the answer of the one stable ``argsort`` it replaces
(kept here as the reference), on memory and disk tables alike. The memo
lives on the table object, so a new table is never answered with a dead
one's pairs. And the bounds the design promises are counted: segments
read by a first optimise, rows decoded by an append, statistics and
recipes computed by a second optimise, the sorts a first touch runs and
the tracer spans its correlation detection records.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import properties
from repro.core.granularity import Granularity
from repro.core.optimizer import rules
from repro.core.optimizer.base import dqo_config
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.plancache import PlanCache
from repro.core.properties import (
    correlations_from_table,
    detect_monotone_correlation,
)
from repro.obs import capture_observability
from repro.sql import plan_query
from repro.storage import Catalog, StatisticsOverlay, Table
from repro.storage.disk import BufferManager, append_table, write_table


def reference(x: np.ndarray, y: np.ndarray, sample_limit: int) -> bool:
    """The definition: ``y`` non-decreasing under a stable order by ``x``,
    over the first ``sample_limit`` rows."""
    x, y = x[:sample_limit], y[:sample_limit]
    reordered = y[np.argsort(x, kind="stable")]
    return reordered.size <= 1 or bool(np.all(reordered[:-1] <= reordered[1:]))


def on_disk(table: Table, directory: str, segment_rows: int = 16):
    return write_table(
        table,
        directory,
        segment_rows=segment_rows,
        buffer=BufferManager(budget_bytes=1 << 22),
    )


def assert_detects_like_the_sort(x, y, sample_limit=100_000):
    table = Table.from_arrays({"x": x, "y": y})
    with tempfile.TemporaryDirectory() as directory:
        for candidate in (table, on_disk(table, directory)):
            for a, b in (("x", "y"), ("y", "x")):
                assert detect_monotone_correlation(
                    candidate, a, b, sample_limit
                ) == reference(table[a], table[b], sample_limit), (type(candidate), a, b)


#: how ``column_pairs`` draws its ascending ``x``: with ties, or unique
#: over a domain as wide as its length, within twice it (the widest a
#: scatter takes), far beyond it, or unsigned.
X_KINDS = {
    "tied": lambda rng, size: np.sort(rng.integers(0, max(size // 3, 1), size)),
    "unique": lambda rng, size: np.arange(size) + int(rng.integers(-50, 50)),
    "unique_gaps": lambda rng, size: np.sort(rng.choice(2 * size, size, replace=False)),
    "unique_sparse": lambda rng, size: np.sort(rng.choice(50 * size, size, replace=False)),
    "unique_unsigned": lambda rng, size: np.sort(
        rng.choice(2 * size, size, replace=False)
    ).astype(np.uint32)
    + np.uint32(2**31),
}


@st.composite
def column_pairs(draw):
    """Pairs over a tied or a unique ``x``: correlated, correlated but for
    one late swap, anti-correlated, constant, unrelated; sorted or
    shuffled together."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    size = draw(st.sampled_from([0, 1, 2, 5, 40, 90]))
    x = X_KINDS[draw(st.sampled_from(sorted(X_KINDS)))](rng, size)
    relation = draw(
        st.sampled_from(["monotone", "late_swap", "anti", "constant", "random", "nan"])
    )
    y = x // 2
    if relation == "late_swap" and size > 2:
        y = y.copy()
        y[-1], y[-2] = y.min() - 1, y[-1]
    elif relation == "anti":
        y = -y.astype(np.int64)
    elif relation == "constant":
        y = np.full(size, 7)
    elif relation == "random":
        y = rng.integers(0, 5, size)
    elif relation == "nan" and size:
        y = y.astype(np.float64)
        y[rng.integers(0, size)] = np.nan
    if draw(st.booleans()):
        order = rng.permutation(size)
        x, y = x[order], y[order]
    return x, y


@settings(max_examples=300, deadline=None)
@given(column_pairs(), st.sampled_from([4, 16, 64, 100_000]))
def test_detection_equals_the_stable_sort(pair, sample_limit):
    # A sample of 8 rows, so that 40- and 90-row tables reach every stage;
    # a limit of 4 or 16 leaves a unique x's prefix too few rows for a
    # scatter over the column's domain, one of 64 does not.
    with mock.patch.object(properties, "CORRELATION_SAMPLE_ROWS", 8):
        assert_detects_like_the_sort(*pair, sample_limit)


def test_a_pair_that_passes_the_sample_and_fails_later():
    rows = properties.CORRELATION_SAMPLE_ROWS * 3
    x = np.random.default_rng(0).permutation(rows)
    y = x.copy()
    y[-1] = -5  # the only violating row lies far beyond the sample
    assert_detects_like_the_sort(x, y)
    assert not detect_monotone_correlation(Table.from_arrays({"x": x, "y": y}), "x", "y")


def test_tables_above_the_sample_limit_are_judged_on_their_prefix():
    rows, limit = 6_000, 5_000
    rng = np.random.default_rng(1)
    x = rng.permutation(rows)
    beyond = x.copy()
    beyond[limit + 10] = -1  # violates, but outside the rows looked at
    within = x.copy()
    within[limit - 10] = -1  # violates inside them, beyond the sample
    for y, expected in ((beyond, True), (within, False)):
        assert_detects_like_the_sort(x, y, limit)
        table = Table.from_arrays({"x": x, "y": y})
        assert detect_monotone_correlation(table, "x", "y", limit) is expected
    # Sorted x: the prefix of y decides, its whole-column statistic cannot.
    ascending = np.arange(rows)
    assert_detects_like_the_sort(ascending, beyond, limit)
    assert_detects_like_the_sort(ascending, within, limit)


# -- the memo lives and dies with the table --------------------------------


def test_a_dead_tables_correlations_are_not_served_to_a_new_one():
    """CPython recycles addresses: keyed by ``id(table)``, the second
    table below was answered with the first one's pairs 200 times out of
    200, planned as ``sorted(y)``, and could run an order-based kernel
    on unsorted data."""
    up = np.arange(50)
    for _ in range(200):
        a = Table.from_arrays({"x": up, "y": up})
        assert ("x", "y") in correlations_from_table(a).pairs
        del a
        b = Table.from_arrays({"x": up, "y": up[::-1].copy()})
        assert correlations_from_table(b).pairs == frozenset()
        del b


def test_overlay_tables_are_fresh_objects_with_fresh_answers():
    up = np.arange(50)
    for y, expected in ((up, {("T.x", "T.y"), ("T.y", "T.x")}), (up[::-1].copy(), set())):
        catalog = Catalog()
        catalog.register("T", Table.from_arrays({"x": up, "y": y}))
        overlay = StatisticsOverlay().set_cardinality("T", 10**6).apply(catalog)
        assert correlations_from_table(overlay.table("T"), "T").pairs == expected
        del catalog, overlay


def test_a_hypothetical_sort_order_forges_no_correlation(memory_storage):
    """Correlations are facts about the data: an overlay that pretends
    ``x`` is sorted is answered from the base table's real statistics."""
    rng = np.random.default_rng(2)
    x = rng.permutation(500)
    catalog = Catalog()
    catalog.register("T", Table.from_arrays({"x": x, "y": x // 3, "z": rng.integers(0, 9, 500)}))
    overlay = StatisticsOverlay().set_sorted("T", "x").set_sorted("T", "z").apply(catalog)
    patched = overlay.table("T")
    assert patched.column("z").statistics.is_sorted  # the overlay does lie
    assert correlations_from_table(patched).pairs == {("x", "y")}
    assert correlations_from_table(patched) == correlations_from_table(catalog.table("T"))


# -- what a first touch may cost --------------------------------------------


def scan_shape(rng, rows: int, first_key: int = 0) -> dict:
    """The ``disk_scan`` table: sorted key, two dense unsorted columns."""
    return {
        "k": np.arange(first_key, first_key + rows, dtype=np.int64),
        "g": rng.integers(0, 512, size=rows),
        "v": rng.integers(0, 1000, size=rows),
    }


def optimise(catalog, sql="SELECT T.g, COUNT(*) FROM T GROUP BY T.g"):
    optimizer = DynamicProgrammingOptimizer(
        catalog, config=dqo_config(), plan_cache=PlanCache()
    )
    return optimizer.optimize(plan_query(sql, catalog))


def test_first_optimise_reads_only_the_segments_covering_the_sample(tmp_path):
    rows, segment_rows = 250_000, 25_000
    limit = properties.CORRELATION_PREFIX_ROWS
    pool = BufferManager(budget_bytes=1 << 26)
    directory = str(tmp_path / "T")
    table = Table.from_arrays(scan_shape(np.random.default_rng(3), rows))
    catalog = Catalog()
    catalog.register(
        "T", write_table(table, directory, segment_rows=segment_rows, buffer=pool)
    )
    before = pool.stats()["misses"]
    optimise(catalog)
    covering = -(-limit // segment_rows)  # per column
    loaded = pool.stats()["misses"] - before
    assert 0 < loaded <= 3 * covering < 3 * (rows // segment_rows)
    assert correlations_from_table(catalog.table("T")).pairs == frozenset(
        (a, b)
        for a in table.schema.names
        for b in table.schema.names
        if a != b and reference(table[a], table[b], limit)
    )


def test_append_on_the_scan_shape_decodes_nothing(tmp_path):
    rng = np.random.default_rng(4)
    pool = BufferManager(budget_bytes=1 << 24)
    directory = str(tmp_path / "T")
    write_table(
        Table.from_arrays(scan_shape(rng, 40_000)), directory, segment_rows=4_096, buffer=pool
    )
    batch = Table.from_arrays(scan_shape(rng, 4_096, first_key=40_000))
    before = pool.stats()
    appended = append_table(directory, batch, buffer=pool)
    after = pool.stats()
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    k = appended.column("k").statistics
    assert (k.count, k.maximum, k.distinct, k.is_sorted, k.is_dense) == (
        44_096, 44_095, 44_096, True, True
    )


def test_second_optimise_computes_no_statistic_and_enumerates_no_recipe(
    memory_storage, monkeypatch
):
    rng = np.random.default_rng(5)
    catalog = Catalog()
    catalog.register("T", Table.from_arrays(scan_shape(rng, 5_000)))
    calls = {"statistics": 0, "correlation": 0, "recipes": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    from repro.storage import column

    monkeypatch.setattr(
        column, "collect_statistics", counting("statistics", column.collect_statistics)
    )
    monkeypatch.setattr(
        properties,
        "detect_monotone_correlation",
        counting("correlation", detect_monotone_correlation),
    )
    monkeypatch.setattr(
        rules, "enumerate_recipes", counting("recipes", rules.enumerate_recipes)
    )
    first = optimise(catalog)
    assert calls["statistics"] == 3 and calls["correlation"] == 6
    calls.update(statistics=0, correlation=0, recipes=0)
    second = optimise(catalog)  # a new optimiser, an empty plan cache
    assert calls == {"statistics": 0, "correlation": 0, "recipes": 0}
    assert second.plan_fingerprint == first.plan_fingerprint
    assert second.stats.generated == first.stats.generated > 0


def test_correlation_detection_is_one_span_per_table_on_first_touch(memory_storage):
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.register("R", Table.from_arrays({"ID": rng.permutation(500), "A": rng.integers(0, 50, 500)}))
    catalog.register("S", Table.from_arrays({"R_ID": rng.integers(0, 500, 900)}))
    sql = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
    for expected in (2, 0):  # the second optimise reads the memo
        with capture_observability() as (_, tracer):
            optimise(catalog, sql)
        spans = [span for span in tracer.finished_spans if span.name == "optimizer.correlations"]
        assert len(spans) == expected
        assert all(span.parent_id is not None for span in spans)  # inside optimize


@pytest.mark.parametrize("is_deep", [False, True])
@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("many_workers", [False, True])
def test_option_spaces_are_the_same_memoised_and_not(
    is_deep, granularity, backend, many_workers
):
    # The join space depends on neither the backend nor the worker count.
    spaces = (
        (rules._grouping_options, (is_deep, granularity, backend, many_workers)),
        (rules._join_options, (is_deep, granularity)),
    )
    for space, key in spaces:
        memoised = space(*key)
        assert isinstance(memoised, tuple) and memoised is space(*key)
        assert list(memoised) == list(space.__wrapped__(*key))


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("stored_sorted", [True, False], ids=["sorted", "unsorted"])
def test_first_touch_sorts_only_in_the_documented_fallbacks(
    stored_sorted, dense, memory_storage, monkeypatch
):
    """Section 4.3's R and S in the four layouts: ``np.unique`` runs only
    for an unsorted column over a sparse domain, and a sort longer than
    the sample only for a pair the sample could not refute. ``R.ID`` has
    no ties, so that pair is never sorted stably: over a dense domain it
    is scattered, over a sparse one sorted unstably."""
    rng = np.random.default_rng(6)
    rows = 3 * properties.CORRELATION_SAMPLE_ROWS
    ids = np.arange(rows)
    attrs = np.sort(rng.integers(0, rows // 3, rows))  # monotone in ID, with ties
    if not dense:
        ids, attrs = ids * 1000 + 7, attrs * 1000 + 3
    if not stored_sorted:
        order = rng.permutation(rows)
        ids, attrs = ids[order], attrs[order]
    references = ids[rng.integers(0, rows, 2 * rows)]
    if stored_sorted:
        references.sort()
    tables = {
        "R": Table.from_arrays({"ID": ids, "A": attrs}),
        "S": Table.from_arrays({"R_ID": references, "B": rng.integers(0, 1000, 2 * rows)}),
    }
    uniques, sorts = [], []
    unique, argsort = np.unique, np.argsort

    def counting_argsort(a, *args, **kwargs):
        sorts.append((a.size, kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", lambda a, *r, **k: uniques.append(a.size) or unique(a, *r, **k))
    monkeypatch.setattr(np, "argsort", counting_argsort)
    for table in tables.values():
        properties.properties_from_table(table)
        correlations_from_table(table)
    monkeypatch.undo()
    unsorted_sparse_columns = 0 if dense or stored_sorted else 3  # all but S.B
    assert len(uniques) == unsorted_sparse_columns
    longer = [kind for size, kind in sorts if size > properties.CORRELATION_SAMPLE_ROWS]
    # (R.ID, R.A), reached through a shuffle of a sparse domain
    assert longer == ([None] if not (dense or stored_sorted) else [])
    assert ("ID", "A") in correlations_from_table(tables["R"]).pairs
