"""Figure 4 zoom-in: the BSG-vs-HG crossover at small group counts
(unsorted & sparse).

The paper: *"for up to 14 groups ... BSG outperforms HG. This opens up
another optimisation dimension in which the number of distinct values
should be considered."* We benchmark both algorithms at a handful of tiny
group counts. On this substrate BSG's win is not reproduced: HG resolves
every row whose key holds its home bucket in one full-width round, and
BSG pays a sort (``np.unique``) plus a binary search per row; BSG is
ahead only where HG's tiny table sends a quarter of the rows into the
collision tail (EXPERIMENTS.md "Figure 4 zoom-in"). What holds at every
scale measured is the other half of the paper's finding: past its 14
groups, HG wins.
"""

import pytest

from repro.bench.figure4 import run_crossover
from repro.datagen import Density, Sortedness, make_grouping_dataset
from repro.engine import GroupingAlgorithm, group_by

SMALL_GROUP_COUNTS = (2, 8, 14, 64)


@pytest.mark.parametrize("groups", SMALL_GROUP_COUNTS)
@pytest.mark.parametrize(
    "algorithm", [GroupingAlgorithm.HG, GroupingAlgorithm.BSG],
    ids=lambda a: a.name,
)
def test_crossover_point(benchmark, bench_rows, groups, algorithm):
    dataset = make_grouping_dataset(
        bench_rows,
        groups,
        sortedness=Sortedness.UNSORTED,
        density=Density.SPARSE,
        seed=0,
    )
    benchmark.group = f"figure4 zoom-in, {groups} groups"
    result = benchmark(
        group_by, dataset.keys, dataset.payload, algorithm,
        num_distinct_hint=groups,
    )
    assert result.num_groups == groups


def test_hg_wins_past_the_papers_crossover(bench_rows):
    result = run_crossover(
        rows=min(bench_rows, 500_000),
        group_counts=(2, 4, 8, 14, 32, 64),
        repeats=2,
    )
    for num_groups, hg_ms, bsg_ms in result.points:
        if num_groups > 14:
            assert hg_ms < 0.9 * bsg_ms, (
                f"HG should beat BSG past 14 groups (measured points: {result.points})"
            )
