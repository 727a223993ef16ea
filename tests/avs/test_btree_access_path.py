"""The §1 access-path decision: unclustered B-tree vs scan.

Under the paper's Table 2 model scans are free and the decision is moot;
:class:`~repro.core.cost.paper.AccessPathCostModel` prices scans at one
unit per row (and index gathers at 4 units, Table 2's random-access
factor), making it the classic selectivity crossover at 25%.
"""

import numpy as np
import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import DynamicProgrammingOptimizer, dqo_config, to_operator
from repro.core.cost import AccessPathCostModel
from repro.engine import execute
from repro.engine.kernels.joins import JoinAlgorithm, build_side
from repro.engine.operators import IndexRangeScan
from repro.engine.operators.joins import memoised_build_side
from repro.logical import evaluate_naive
from repro.sql import plan_query
from repro.storage import Catalog, Table
from repro.storage.disk import BufferManager, write_table

ROWS = 20_000


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.register(
        "T",
        Table.from_arrays(
            {
                "k": rng.permutation(ROWS),
                "v": rng.integers(0, 100, ROWS),
            }
        ),
    )
    registry = AVRegistry([materialize_view(catalog, ViewKind.BTREE, "T", "k")])
    return catalog, registry


def optimizer_for(catalog, registry):
    return DynamicProgrammingOptimizer(
        catalog, AccessPathCostModel(), dqo_config(views=registry)
    )


#: the range law's key columns: repeated and distinct keys, negative
#: keys, a narrow dtype, and the degenerate sizes.
LAW_COLUMNS = {
    "duplicates": np.array([5, 5, 1, 5, 3, 1, 9]),
    "negative": np.array([-4, 7, -10, 0, 3, 2]),
    "int32": np.array([40, -2, 40, 9, 0, 13], dtype=np.int32),
    "one-row": np.array([6]),
    "empty": np.array([], dtype=np.int64),
}

#: the range law's ``[low, high]`` over a column's smallest and largest
#: key and its first one.
LAW_RANGES = {
    "inside": lambda lo, hi, first: (lo + 1, hi - 1),
    "inverted": lambda lo, hi, first: (hi, lo - 1),
    "below": lambda lo, hi, first: (lo - 10, lo - 1),
    "above": lambda lo, hi, first: (hi + 1, hi + 10),
    "single": lambda lo, hi, first: (first, first),
    "whole": lambda lo, hi, first: (lo, hi),
}


def indexed_table(keys, storage, tmp_path):
    """A catalog holding ``T(k, v)`` in ``storage``, and its ``btree``
    view on ``k``."""
    table = Table.from_arrays({"k": keys, "v": np.arange(keys.size)})
    if storage == "disk":
        table = write_table(
            table,
            str(tmp_path / "T"),
            segment_rows=2,
            buffer=BufferManager(budget_bytes=1 << 20),
        )
    catalog = Catalog()
    catalog.register("T", table)
    return catalog, materialize_view(catalog, ViewKind.BTREE, "T", "k")


class TestIndexRangeScanOperator:
    def test_matches_filter_semantics(self, setting, rng):
        catalog, registry = setting
        table = catalog.table("T")
        index = registry.get(ViewKind.BTREE, "T", "k").artifact
        scan = IndexRangeScan(table, "k", index, 500, 800)
        result = scan.to_table()
        assert sorted(result["k"].tolist()) == list(range(500, 801))

    def test_output_in_index_order(self, setting):
        catalog, registry = setting
        table = catalog.table("T")
        index = registry.get(ViewKind.BTREE, "T", "k").artifact
        result = IndexRangeScan(table, "k", index, 100, 5_000).to_table()
        values = result["k"]
        assert bool(np.all(values[:-1] <= values[1:]))

    def test_duplicate_values_all_fetched(self, memory_storage, tmp_path):
        catalog, view = indexed_table(np.array([5, 5, 1, 5]), "memory", tmp_path)
        result = IndexRangeScan(catalog.table("T"), "k", view.artifact, 5, 5)
        assert result.to_table()["v"].tolist() == [0, 1, 3]

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    @pytest.mark.parametrize("bounds", list(LAW_RANGES))
    @pytest.mark.parametrize("name", list(LAW_COLUMNS))
    def test_range_law(self, name, bounds, storage, memory_storage, tmp_path):
        """The scan is the stable sort of the rows, filtered to the
        range, bit for bit; the view's artifact is the column's one
        sorted build side."""
        keys = LAW_COLUMNS[name]
        lo, hi, first = (
            (int(keys.min()), int(keys.max()), int(keys[0])) if keys.size else (0, 0, 0)
        )
        low, high = LAW_RANGES[bounds](lo, hi, first)
        catalog, view = indexed_table(keys, storage, tmp_path)
        table = catalog.table("T")
        result = IndexRangeScan(table, "k", view.artifact, low, high).to_table()
        order = np.argsort(keys, kind="stable")
        source = table.to_memory() if storage == "disk" else table
        expected = source.take(order[(keys[order] >= low) & (keys[order] <= high)])
        assert result.equals(expected)
        assert result["k"].dtype == keys.dtype
        if storage == "memory":
            # A disk column memoises nothing: only a resident one shares.
            shared = memoised_build_side(table.column("k"), JoinAlgorithm.BSJ)
            sorted_keys = materialize_view(catalog, ViewKind.SORTED_KEYS, "T", "k")
            assert view.artifact is shared
            assert sorted_keys.artifact is shared


    def test_disk_range_reads_only_the_segments_holding_its_rows(self, tmp_path):
        """A 1 % range over a 100 000-row, two-column disk table whose key
        is clustered (each block of 1 000 rows holds its own keys,
        shuffled): the scan misses the buffer pool no more often than
        there are segments holding its rows, per column, and returns the
        in-memory scan's rows."""
        rows, segment_rows = 100_000, 4_096
        rng = np.random.default_rng(11)
        keys = np.concatenate(
            [block + rng.permutation(1_000) for block in range(0, rows, 1_000)]
        )
        table = Table.from_arrays({"k": keys, "v": rng.integers(0, 100, rows)})
        pool = BufferManager(budget_bytes=256 << 10)
        disk = write_table(table, str(tmp_path / "T"), segment_rows=segment_rows, buffer=pool)
        build = build_side(keys, JoinAlgorithm.BSJ)
        low, high = 40_000, 40_999
        covering = np.unique(build.range_rows(low, high) // segment_rows).size
        misses = pool.stats()["misses"]
        result = IndexRangeScan(disk, "k", build, low, high).to_table()
        assert pool.stats()["misses"] - misses <= covering * disk.num_columns
        assert result.equals(IndexRangeScan(table, "k", build, low, high).to_table())
        assert result.num_rows == rows // 100


class TestAccessPathChoice:
    def test_selective_filter_uses_index(self, setting, paper_query):
        catalog, registry = setting
        logical = plan_query(
            "SELECT k, v FROM T WHERE k >= 100 AND k < 200", catalog
        )
        result = optimizer_for(catalog, registry).optimize(logical)
        scan = next(n for n in result.plan.walk() if n.op == "scan")
        assert scan.decision.view == ("btree", "k")
        assert scan.decision.index_range == (100, 199)
        # cost ~ log2(20000) + 4 * 100 matches, far below a 20,000 scan
        assert result.cost < 1_000

    def test_unselective_filter_uses_full_scan(self, setting):
        catalog, registry = setting
        logical = plan_query("SELECT k, v FROM T WHERE k >= 100", catalog)
        result = optimizer_for(catalog, registry).optimize(logical)
        scan = next(n for n in result.plan.walk() if n.op == "scan")
        assert scan.decision.view == ("", "")  # plain scan wins at ~100% sel.

    def test_crossover_around_quarter_selectivity(self, setting):
        catalog, registry = setting
        optimizer = optimizer_for(catalog, registry)
        narrow = plan_query(
            f"SELECT k FROM T WHERE k < {ROWS // 5}", catalog
        )  # 20% selective -> index
        wide = plan_query(
            f"SELECT k FROM T WHERE k < {ROWS // 3}", catalog
        )  # 33% selective -> scan
        narrow_scan = next(
            n for n in optimizer.optimize(narrow).plan.walk() if n.op == "scan"
        )
        wide_scan = next(
            n for n in optimizer.optimize(wide).plan.walk() if n.op == "scan"
        )
        assert narrow_scan.decision.view[0] == "btree"
        assert wide_scan.decision.view[0] == ""

    def test_equality_predicate(self, setting):
        catalog, registry = setting
        logical = plan_query("SELECT v FROM T WHERE k = 42", catalog)
        result = optimizer_for(catalog, registry).optimize(logical)
        scan = next(n for n in result.plan.walk() if n.op == "scan")
        assert scan.decision.view[0] == "btree"
        assert scan.decision.index_range == (42, 42)

    def test_unsupported_predicate_shape_falls_back(self, setting):
        catalog, registry = setting
        # k <> 5 cannot be served by a range; k + 1 < 10 neither.
        for sql in (
            "SELECT v FROM T WHERE k <> 5",
            "SELECT v FROM T WHERE k + 1 < 10",
        ):
            logical = plan_query(sql, catalog)
            result = optimizer_for(catalog, registry).optimize(logical)
            scan = next(n for n in result.plan.walk() if n.op == "scan")
            assert scan.decision.view[0] == ""

    def test_index_order_property_pays_downstream(self, setting):
        """The index emits k-sorted rows, so ORDER BY k after a selective
        filter is free — the access path's property side effect."""
        catalog, registry = setting
        optimizer = optimizer_for(catalog, registry)
        plain = optimizer.optimize(
            plan_query("SELECT k FROM T WHERE k < 500", catalog)
        )
        ordered = optimizer.optimize(
            plan_query("SELECT k FROM T WHERE k < 500 ORDER BY k", catalog)
        )
        assert ordered.cost == pytest.approx(plain.cost)


class TestExecution:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT k, v FROM T WHERE k >= 100 AND k < 200",
            "SELECT k, v FROM T WHERE k = 777",
            "SELECT k, v FROM T WHERE k < 300 AND v >= 50",
            "SELECT k, SUM(v) AS s FROM T WHERE k < 400 GROUP BY k ORDER BY k",
        ],
    )
    def test_index_plans_match_naive(self, setting, sql):
        catalog, registry = setting
        logical = plan_query(sql, catalog)
        result = optimizer_for(catalog, registry).optimize(logical)
        truth = evaluate_naive(logical, catalog)
        output = execute(
            to_operator(result.plan, catalog, validate=True, views=registry)
        )
        assert output.equals_unordered(truth)
