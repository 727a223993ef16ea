"""Per-operator memory accounting and the per-execution counter reset.

The ``memory_bytes()`` protocol runs through every layer: storage
structures and indexes report their resident footprint, kernels report
the auxiliary structures they build (the Table 1 contrast), operators
report their peak working set, and ``explain_analyze`` surfaces all of
it per plan node.
"""

import numpy as np
import pytest

from repro.engine.aggregates import count_star
from repro.engine.kernels.grouping import hash_slots, perfect_hash_slots
from repro.engine.operators.grouping import GroupBy, GroupingAlgorithm
from repro.engine.operators.scan import TableScan
from repro.engine.executor import explain_analyze
from repro.storage.table import Table


def make_table(values, name="K"):
    return Table.from_arrays({name: np.asarray(values, dtype=np.int64)})


class TestStorageAndIndexFootprints:
    def test_table_footprint_is_sum_of_columns(self):
        table = Table.from_arrays(
            {
                "A": np.arange(100, dtype=np.int64),
                "B": np.arange(100, dtype=np.int64),
            }
        )
        assert table.memory_bytes() == 2 * 100 * 8

    def test_sph_is_denser_than_hash_table_on_dense_keys(self):
        """Table 1: SPH's dense array beats a general hash table."""
        from repro.indexes.hash_table import OpenAddressingHashTable
        from repro.indexes.perfect_hash import StaticPerfectHash

        keys = np.arange(10_000, dtype=np.int64)
        sph = StaticPerfectHash.for_keys(keys)
        table = OpenAddressingHashTable(capacity_hint=keys.size)
        table.build(keys)
        assert 0 < sph.memory_bytes() < table.memory_bytes()


class TestKernelStructureBytes:
    def test_hash_grouping_carries_table_footprint(self):
        keys = np.arange(5_000, dtype=np.int64)
        assignment = hash_slots(keys)
        assert assignment.structure_bytes > 0
        assert assignment.memory_bytes() > assignment.structure_bytes

    def test_sphg_structure_is_smaller_than_hg_on_dense_keys(self):
        """The Table 1 footprint contrast, at the kernel level."""
        keys = np.arange(5_000, dtype=np.int64)
        assert (
            perfect_hash_slots(keys).structure_bytes
            < hash_slots(keys).structure_bytes
        )

    def test_empty_input_reports_zero_structure(self):
        from repro.engine.kernels.joins import hash_join

        empty = np.empty(0, dtype=np.int64)
        assert hash_join(empty, empty).memory_bytes() == 0


class TestOperatorPeaks:
    def test_uninstrumented_operator_reports_peak_after_run(self):
        table = make_table(np.arange(4_000) % 16)
        operator = GroupBy(
            TableScan(table),
            key="K",
            aggregates=[count_star()],
            algorithm=GroupingAlgorithm.HG,
        )
        operator.reset_memory_accounting()
        assert operator.memory_bytes() == 0
        operator.to_table()
        assert operator.memory_bytes() > 0

    def test_grouping_footprint_contrast_between_algorithms(self):
        """SPHG's grouping operator holds less than HG's on dense keys —
        the Table 1 difference observable end-to-end."""
        table = make_table(np.arange(20_000, dtype=np.int64) % 5_000)
        peaks = {}
        for algorithm in (GroupingAlgorithm.SPHG, GroupingAlgorithm.HG):
            operator = GroupBy(
                TableScan(table),
                key="K",
                aggregates=[count_star()],
                algorithm=algorithm,
            )
            operator.reset_memory_accounting()
            operator.to_table()
            peaks[algorithm] = operator.memory_bytes()
        assert 0 < peaks[GroupingAlgorithm.SPHG] < peaks[GroupingAlgorithm.HG]


@pytest.fixture
def optimised_two_join_plan():
    from repro import optimize_dqo, plan_query, to_operator
    from repro.datagen import DimensionSpec, make_star_scenario

    scenario = make_star_scenario(
        fact_rows=4_000,
        dimensions=[
            DimensionSpec(rows=500, num_groups=50),
            DimensionSpec(rows=800, num_groups=80),
        ],
        seed=11,
    )
    catalog = scenario.build_catalog()
    logical = plan_query(scenario.join_query(0), catalog)
    return to_operator(optimize_dqo(logical, catalog).plan, catalog)


class TestExplainAnalyzeMemory:
    def test_every_node_reports_nonzero_peak(self, optimised_two_join_plan):
        analyzed = explain_analyze(optimised_two_join_plan)
        for node in analyzed.root.walk():
            assert node.peak_memory_bytes > 0, node.description
        assert analyzed.profile.peak_memory_bytes == sum(
            node.peak_memory_bytes for node in analyzed.root.walk()
        )

    def test_render_shows_peak_column(self, optimised_two_join_plan):
        rendered = explain_analyze(optimised_two_join_plan).render()
        assert "peak " in rendered
        assert "Peak operator memory:" in rendered

    def test_memory_metrics_observed_when_enabled(
        self, optimised_two_join_plan
    ):
        from repro.obs import capture_observability

        with capture_observability() as (metrics, __):
            explain_analyze(optimised_two_join_plan)
            snapshot = metrics.snapshot()
        assert snapshot["operator.bytes"]["count"] == 6
        assert snapshot["query.peak_bytes"]["count"] == 1
        assert snapshot["query.peak_bytes"]["sum"] > 0


class TestReExecutionResets:
    """Satellite: a re-executed instrumented tree must not double-count."""

    def test_two_analyses_report_identical_counters(
        self, optimised_two_join_plan
    ):
        first = explain_analyze(optimised_two_join_plan)
        second = explain_analyze(optimised_two_join_plan)
        for a, b in zip(first.root.walk(), second.root.walk()):
            assert a.rows_out == b.rows_out, b.description
            assert a.chunks_out == b.chunks_out, b.description

    def test_repulling_the_root_inside_one_context_resets(self):
        from repro.obs import instrumented

        table = make_table(np.arange(1_000) % 10)
        operator = GroupBy(
            TableScan(table),
            key="K",
            aggregates=[count_star()],
            algorithm=GroupingAlgorithm.HG,
        )
        with instrumented(operator) as stats:
            operator.to_table()
            first = (stats.rows_out, stats.cumulative_seconds)
            operator.to_table()
            assert stats.rows_out == first[0]  # reset, not doubled
        assert stats.children[0].rows_out == 1_000
