"""The operator contract after late materialisation.

A materialised operator (table scan, join, group-by, sort) hands its
whole table to a materialising parent, and lowering tells every node
which columns its ancestors read. Neither may change what a caller can
observe: row and chunk counts per node, governance (deadline, memory
budget), the columns of a join nobody narrows, segment-skipping
counters, and the rows themselves on every storage mode and backend.
"""

import numpy as np
import pytest

from repro import optimize_dqo, plan_query, to_operator
from repro.core.optimizer.rules import JoinOption
from repro.core.plan import AccessPath, Implementation, PhysicalNode
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import (
    GroupBy,
    GroupingAlgorithm,
    Join,
    JoinAlgorithm,
    TableScan,
    col,
    count_star,
    execute,
    explain_analyze,
)
from repro.engine.operators import SegmentScan, chunk_count
from repro.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.logical.naive import evaluate_naive
from repro.service.context import QueryContext
from repro.service.session import QueryService, ServiceConfig
from repro.settings import scoped_settings
from repro.storage import Table
from repro.storage.disk import BufferManager, write_table

PAPER_SQL = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
N_R, N_S, GROUPS = 3_000, 10_000, 120


@pytest.fixture(scope="module")
def scenario():
    return make_join_scenario(
        n_r=N_R,
        n_s=N_S,
        num_groups=GROUPS,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=3,
    )


@pytest.fixture(scope="module")
def catalog(scenario):
    return scenario.build_catalog()


def paper_plan(catalog):
    return optimize_dqo(plan_query(PAPER_SQL, catalog), catalog).plan


class TestExplainAnalyzeCounts:
    def test_rows_and_chunks_per_node(self, catalog, memory_storage):
        """Every node of the section 4.3 plan reports the rows it
        produced and the chunks those rows are sliced into — the counts
        a chunk-at-a-time drain reports — although no node below the
        root produced a single chunk."""
        analyzed = explain_analyze(to_operator(paper_plan(catalog), catalog))
        group = analyzed.root
        (join,) = group.children
        scan_r, scan_s = join.children
        expected = [(scan_r, N_R), (scan_s, N_S), (join, N_S), (group, GROUPS)]
        for node, rows in expected:
            assert node.rows_out == rows, node.description
            assert node.chunks_out == chunk_count(rows), node.description
        assert join.rows_in == N_R + N_S
        assert analyzed.table.num_rows == GROUPS

    def test_streamed_and_handed_over_counts_agree(self, catalog, memory_storage):
        from repro.obs import instrumented

        operator = to_operator(paper_plan(catalog), catalog)
        with instrumented(operator) as stats:
            streamed = sum(chunk.num_rows for chunk in operator.chunks())
            by_chunks = [(n.rows_out, n.chunks_out) for n in stats.walk()]
            handed = operator.to_table().num_rows
            by_table = [(n.rows_out, n.chunks_out) for n in stats.walk()]
        assert streamed == handed == GROUPS
        assert by_chunks == by_table


class TestGovernance:
    def tables(self, scenario):
        return (
            TableScan(scenario.r.qualified("R")),
            TableScan(scenario.s.qualified("S")),
        )

    def test_expired_deadline_aborts_inside_join(self, scenario):
        join = Join(*self.tables(scenario), "R.ID", "S.R_ID")
        with pytest.raises(DeadlineExceeded):
            execute(join, context=QueryContext.start(deadline=0.0))

    def test_expired_deadline_aborts_inside_group_by(self, scenario):
        group = GroupBy(
            self.tables(scenario)[1],
            key="S.R_ID",
            aggregates=[count_star()],
            algorithm=GroupingAlgorithm.HG,
        )
        with pytest.raises(DeadlineExceeded):
            execute(group, context=QueryContext.start(deadline=0.0))

    def test_memory_budget_fires_on_the_same_budget(self, catalog, memory_storage):
        """One S column alone is 80 KB: a 64 KiB budget is exceeded by
        the narrowed plan exactly as it was by the one that gathered
        every column."""
        operator = to_operator(paper_plan(catalog), catalog)
        context = QueryContext.start(memory_budget_bytes=64 * 1024)
        with pytest.raises(MemoryBudgetExceeded):
            execute(operator, context=context)
        roomy = QueryContext.start(memory_budget_bytes=64 * 1024 * 1024)
        assert execute(operator, context=roomy).num_rows == GROUPS


class TestJoinColumns:
    ALL = ["R.ID", "R.A", "S.R_ID", "S.B"]

    def join_node(self):
        scan_r = PhysicalNode(op="scan", decision=AccessPath("R", "R"))
        scan_s = PhysicalNode(op="scan", decision=AccessPath("S", "S"))
        return PhysicalNode(
            op="join",
            decision=Implementation(JoinOption(JoinAlgorithm.HJ), ("R.ID", "S.R_ID")),
            children=(scan_r, scan_s),
        )

    def expected(self, catalog):
        logical = plan_query(
            "SELECT R.ID, R.A, S.R_ID, S.B FROM R JOIN S ON R.ID = S.R_ID", catalog
        )
        return evaluate_naive(logical, catalog).sort_by(["S.B", "S.R_ID"])

    def test_join_with_no_parent_returns_every_column(self, catalog, memory_storage):
        table = execute(to_operator(self.join_node(), catalog))
        assert list(table.schema.names) == self.ALL
        assert table.sort_by(["S.B", "S.R_ID"]).equals(self.expected(catalog))

    def test_join_under_limit_returns_every_column(self, catalog, memory_storage):
        node = PhysicalNode(op="limit", decision=N_S, children=(self.join_node(),))
        table = execute(to_operator(node, catalog))
        assert list(table.schema.names) == self.ALL
        assert table.sort_by(["S.B", "S.R_ID"]).equals(self.expected(catalog))

    def test_join_under_project_gathers_what_the_project_reads(
        self, catalog, memory_storage
    ):
        every = tuple((name, col(name)) for name in self.ALL)
        node = PhysicalNode(op="project", decision=every, children=(self.join_node(),))
        operator = to_operator(node, catalog)
        assert list(operator.children[0].output_schema.names) == self.ALL
        table = execute(operator)
        assert table.sort_by(["S.B", "S.R_ID"]).equals(self.expected(catalog))
        one = PhysicalNode(
            op="project", decision=(("b", col("S.B")),), children=(self.join_node(),)
        )
        narrowed = to_operator(one, catalog)
        assert list(narrowed.children[0].output_schema.names) == ["S.B"]
        np.testing.assert_array_equal(
            np.sort(execute(narrowed)["b"]), np.sort(self.expected(catalog)["S.B"])
        )


class TestPrunedSegmentScan:
    def scan_counters(self, tmp_path, name, columns):
        table = Table.from_arrays(
            {
                "k": np.arange(4_000, dtype=np.int64),
                "g": np.tile(np.arange(8, dtype=np.int64), 500),
                "v": np.arange(4_000, dtype=np.int64) * 7 % 1_000,
            }
        )
        disk = write_table(
            table,
            str(tmp_path / name),
            segment_rows=500,
            buffer=BufferManager(budget_bytes=16 * 1024 * 1024),
        )
        scan = SegmentScan(
            disk, alias="T", predicates=(col("T.k") < 700,), columns=columns
        )
        return scan.to_table(), scan.io_counters()

    def test_same_segments_fewer_bytes(self, tmp_path):
        whole, (read, skipped, cold) = self.scan_counters(tmp_path, "all", None)
        pruned, counters = self.scan_counters(tmp_path, "one", {"T.g"})
        assert list(whole.schema.names) == ["T.k", "T.g", "T.v"]
        assert list(pruned.schema.names) == ["T.g"]
        np.testing.assert_array_equal(pruned["T.g"], whole["T.g"])
        # The zone maps of k prune although k itself is not scanned.
        assert counters[:2] == (read, skipped) == (2, 6)
        assert 0 < counters[2] < cold


@pytest.mark.usefixtures("fork_pool")
class TestEveryRoute:
    def rows(self, catalog, **config):
        service = QueryService(catalog, ServiceConfig(**config))
        try:
            return service.execute(PAPER_SQL).table.sort_by(["R.A"])
        finally:
            service.shutdown()

    def test_memory_disk_and_both_backends_agree(self, scenario, tmp_path):
        with scoped_settings(storage="memory"):
            memory = scenario.build_catalog()
        expected = evaluate_naive(plan_query(PAPER_SQL, memory), memory)
        expected = expected.sort_by(["R.A"])
        with scoped_settings(storage="disk", spill_dir=str(tmp_path), segment_rows=1024):
            disk = scenario.build_catalog()
        for catalog in (memory, disk):
            assert self.rows(catalog).equals(expected)
            for backend in ("thread", "process"):
                with scoped_settings(workers=2):
                    got = self.rows(catalog, workers=2, backend=backend)
                assert got.equals(expected), backend
