"""The bench harness: Figure 4/5 shapes and Table 1/2 rendering.

These run the real harness at reduced scale; the shape assertions encode
the paper's qualitative claims (EXPERIMENTS.md records the full-scale
numbers).
"""

import pytest

from repro.bench import (
    PAPER_FACTORS,
    render_crossover,
    render_figure4,
    render_figure5,
    render_table2,
    run_crossover,
    run_figure4,
    run_figure5,
)
from repro.bench.figure4 import applicable_algorithms
from repro.bench.table1 import render_lattice_sizes
from repro.datagen import Density, Sortedness
from repro.engine import GroupingAlgorithm


@pytest.fixture(scope="module")
def figure4():
    return run_figure4(rows=120_000, group_counts=(50, 2_000, 20_000), repeats=2)


class TestFigure4:
    def test_panel_coverage(self, figure4):
        assert len(figure4.panels) == 4
        for panel in figure4.panels:
            expected = applicable_algorithms(panel.sortedness, panel.density)
            assert set(panel.series) == set(expected)

    def test_sphg_absent_on_sparse_og_absent_on_unsorted(self):
        sparse = applicable_algorithms(Sortedness.UNSORTED, Density.SPARSE)
        assert GroupingAlgorithm.SPHG not in sparse
        assert GroupingAlgorithm.OG not in sparse
        sorted_dense = applicable_algorithms(Sortedness.SORTED, Density.DENSE)
        assert set(sorted_dense) == set(GroupingAlgorithm)

    def test_shape_sorted_panels_og_beats_hg(self, figure4):
        """Paper: on sorted data OG is the fastest, several times faster
        than HG, at every group count; on sorted & dense SPHG beats HG
        too (HG/SPHG 2.9-8.3x at this scale on a 2-vCPU x86 host)."""
        for density in Density:
            panel = figure4.panel(Sortedness.SORTED, density)
            for (g, og_ms), (g2, hg_ms) in zip(
                panel.series[GroupingAlgorithm.OG],
                panel.series[GroupingAlgorithm.HG],
            ):
                assert g == g2
                assert og_ms < hg_ms
        panel = figure4.panel(Sortedness.SORTED, Density.DENSE)
        hg = dict(panel.series[GroupingAlgorithm.HG])
        for g, sphg_ms in panel.series[GroupingAlgorithm.SPHG]:
            assert sphg_ms < hg[g], g

    def test_shape_unsorted_dense_sphg_wins(self, figure4):
        """Paper: unsorted & dense — SPHG is the best performer and
        roughly flat in the group count."""
        panel = figure4.panel(Sortedness.UNSORTED, Density.DENSE)
        sphg = dict(panel.series[GroupingAlgorithm.SPHG])
        for algorithm, points in panel.series.items():
            if algorithm is GroupingAlgorithm.SPHG:
                continue
            for g, ms in points:
                assert sphg[g] < ms, (algorithm, g)

    def test_shape_unsorted_sparse_hg_wins_at_scale(self, figure4):
        """Paper: unsorted & sparse — HG is superior over a wide range of
        group counts (here: the largest measured). A 15% noise margin
        keeps the assertion about the shape, not about scheduler jitter."""
        panel = figure4.panel(Sortedness.UNSORTED, Density.SPARSE)
        largest = max(g for g, __ in panel.series[GroupingAlgorithm.HG])
        hg_ms = dict(panel.series[GroupingAlgorithm.HG])[largest]
        best_other = min(
            dict(points)[largest]
            for algorithm, points in panel.series.items()
            if algorithm is not GroupingAlgorithm.HG
        )
        assert hg_ms < best_other * 1.15

    def test_shape_bsg_grows_with_groups(self, figure4):
        panel = figure4.panel(Sortedness.UNSORTED, Density.SPARSE)
        points = panel.series[GroupingAlgorithm.BSG]
        assert points[-1][1] > points[0][1]

    def test_render(self, figure4):
        text = render_figure4(figure4)
        assert "unsorted & sparse" in text
        assert "#groups" in text


class TestCrossover:
    def test_hg_beats_bsg_past_14_groups(self):
        """Paper's zoom-in: BSG outperforms HG up to 14 groups. Not
        reproduced here (EXPERIMENTS "Figure 4 zoom-in"): at 2-14 groups
        which algorithm leads depends on whether the few keys happen to
        share home buckets in HG's 16-32-bucket table, not on the group
        count, so those points are only rendered. What holds whatever
        the keys is the other half of the finding: past 14 groups HG
        wins. HG/BSG measured 0.70-0.82 at 32 groups and 0.45-0.51 at 64
        over 8 fresh processes, but HG alone moves 7-11 ms from one run
        to the next in a long-lived process (allocation history), and a
        full tier-1 run once read 0.93 at 32. So each side is its best of
        five repeats, taken in turn with the other's so that a slow spell
        slows both, and the assertion is the finding itself: HG is
        faster."""
        result = run_crossover(
            rows=150_000, group_counts=(2, 4, 8, 14, 32, 64), repeats=5
        )
        for num_groups, hg_ms, bsg_ms in result.points:
            if num_groups > 14:
                assert hg_ms < bsg_ms, (num_groups, hg_ms, bsg_ms)
        text = render_crossover(result)
        assert "BSG" in text
        assert len(result.points) == 6


class TestFigure5Bench:
    def test_grid_matches_paper_exactly(self, memory_storage):
        result = run_figure5()
        for cell in result.cells:
            sparse_factor, dense_factor = PAPER_FACTORS[
                (cell.r_sortedness, cell.s_sortedness)
            ]
            expected = (
                dense_factor if cell.density is Density.DENSE else sparse_factor
            )
            assert cell.factor == pytest.approx(expected, rel=1e-6)

    def test_execution_speedup_direction(self):
        """Executed plans: DQO's choice must actually run faster where the
        paper predicts a 4x estimated-cost gap."""
        result = run_figure5(
            n_r=20_000, n_s=40_000, num_groups=8_000, execute_plans=True
        )
        cell = result.cell(
            Sortedness.UNSORTED, Sortedness.UNSORTED, Density.DENSE
        )
        assert cell.measured_speedup is not None
        assert cell.measured_speedup > 1.0

    def test_two_workers_widen_the_plan_space(self):
        """At two workers the DP also prices parallel and exchange plans,
        so no cell's DQO plan costs more than at one; every plan runs."""
        sizes = dict(n_r=2_000, n_s=4_000, num_groups=400)
        serial = run_figure5(**sizes)
        wide = run_figure5(**sizes, workers=2, execute_plans=True)
        for one, two in zip(serial.cells, wide.cells):
            assert two.dqo_cost <= one.dqo_cost * (1 + 1e-9)
            assert two.dqo_seconds is not None and two.sqo_seconds is not None

    def test_render(self):
        result = run_figure5(n_r=500, n_s=1_000, num_groups=100)
        text = render_figure5(result)
        assert "factor" in text and "paper" in text


class TestTables:
    def test_table2_renders_both_halves(self):
        text = render_table2()
        assert "4 * |R|" in text
        assert "SPHJ" in text
        assert "360,000" in text  # HG at 90,000 rows
        for name in ("HG", "OG", "SOG", "SPHG", "BSG", "HJ", "OJ", "SOJ", "SPHJ", "BSJ"):
            assert name in text

    def test_table1_lattice_sizes(self):
        text = render_lattice_sizes()
        assert "ORGANELLE" in text and "MOLECULE" in text
