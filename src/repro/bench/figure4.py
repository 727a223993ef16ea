"""Figure 4: grouping performance on the sortedness x density grid.

Reproduces the paper's four panels — runtime of the five grouping
implementations as the number of groups grows from a handful to 40,000 —
plus the zoom-in finding that BSG beats HG for very small group counts on
unsorted-sparse data (paper: up to 14 groups).

Scale substitution (DESIGN.md #2): default 2,000,000 rows instead of the
paper's 100,000,000. The claims under reproduction are *shapes*:

* sorted panels: OG fastest and flat; SOG pays a pointless re-sort.
* sorted & dense: SPHG ties OG; HG several times slower.
* unsorted & dense: SPHG best and flat; HG grows with group count.
* unsorted & sparse: HG wins broadly, but BSG wins below a small
  crossover group count.

Run as a script::

    python -m repro.bench.figure4 [--rows N] [--crossover]
    python -m repro.bench.figure4 --profile fig4_profile.html

``--profile`` runs one representative shape (unsorted & dense, the
SPHG-vs-HG panel) through the operator engine under full profiling and
writes a self-contained HTML report plus folded flamegraph stacks; the
profile also lands in the active query log when ``REPRO_QUERY_LOG`` is
set.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro._util.timer import time_callable
from repro.bench.reporting import Series, render_ascii_chart, render_table
from repro.datagen.grouping import (
    FIGURE4_GRID,
    Density,
    Sortedness,
    make_grouping_dataset,
)
from repro.engine.kernels.grouping import GroupingAlgorithm, group_by
from repro.engine.kernels.parallel import parallel_group_by
from repro.errors import PreconditionError
from repro.settings import check

#: the paper's x-axis: group counts up to 40,000.
DEFAULT_GROUP_COUNTS = (100, 1_000, 5_000, 10_000, 20_000, 40_000)
DEFAULT_ROWS = 2_000_000


def applicable_algorithms(
    sortedness: Sortedness, density: Density
) -> list[GroupingAlgorithm]:
    """Which algorithms each Figure 4 panel plots (the paper omits the
    inapplicable ones: SPHG on sparse, OG on unsorted)."""
    algorithms = [GroupingAlgorithm.HG, GroupingAlgorithm.SOG, GroupingAlgorithm.BSG]
    if sortedness is Sortedness.SORTED:
        algorithms.append(GroupingAlgorithm.OG)
    if density is Density.DENSE:
        algorithms.append(GroupingAlgorithm.SPHG)
    return algorithms


@dataclass
class PanelResult:
    """Measurements of one Figure 4 panel."""

    sortedness: Sortedness
    density: Density
    #: algorithm -> list of (num_groups, milliseconds).
    series: dict[GroupingAlgorithm, list[tuple[int, float]]] = field(
        default_factory=dict
    )

    @property
    def title(self) -> str:
        """Panel title in the paper's terms."""
        return f"{self.sortedness.value} & {self.density.value}"

    def fastest_at(self, num_groups: int) -> GroupingAlgorithm:
        """The winning algorithm at one group count."""
        best_algorithm = None
        best_time = float("inf")
        for algorithm, points in self.series.items():
            for g, ms in points:
                if g == num_groups and ms < best_time:
                    best_time = ms
                    best_algorithm = algorithm
        if best_algorithm is None:
            raise ValueError(f"no measurement at {num_groups} groups")
        return best_algorithm


@dataclass
class Figure4Result:
    """All four panels."""

    rows: int
    panels: list[PanelResult] = field(default_factory=list)
    #: morsel workers the measured kernels ran with (1 = serial kernels).
    workers: int = 1

    def panel(self, sortedness: Sortedness, density: Density) -> PanelResult:
        """Fetch one panel."""
        for panel in self.panels:
            if panel.sortedness is sortedness and panel.density is density:
                return panel
        raise ValueError(f"no panel {sortedness} x {density}")


def _measured_group_by(dataset, algorithm, num_groups: int, workers: int):
    """The kernel call one measurement times: serial with one worker,
    the Figure 3(e) sharded parallel load otherwise."""
    if workers > 1:
        return parallel_group_by(
            dataset.keys,
            dataset.payload,
            algorithm,
            shards=workers,
            num_distinct_hint=num_groups,
            workers=workers,
        )
    return group_by(
        dataset.keys,
        dataset.payload,
        algorithm,
        num_distinct_hint=num_groups,
    )


def run_figure4(
    rows: int = DEFAULT_ROWS,
    group_counts: tuple[int, ...] = DEFAULT_GROUP_COUNTS,
    repeats: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> Figure4Result:
    """Measure all four panels.

    :param workers: morsel workers; > 1 measures the parallel-load
        variant (``workers`` shards on ``workers`` pool threads).
    """
    result = Figure4Result(rows=rows, workers=check("workers", workers))
    for sortedness, density in FIGURE4_GRID:
        panel = PanelResult(sortedness=sortedness, density=density)
        for algorithm in applicable_algorithms(sortedness, density):
            panel.series[algorithm] = []
        for num_groups in group_counts:
            if num_groups > rows:
                continue
            dataset = make_grouping_dataset(
                rows,
                num_groups,
                sortedness=sortedness,
                density=density,
                seed=seed,
            )
            for algorithm in applicable_algorithms(sortedness, density):
                timing = time_callable(
                    lambda a=algorithm, d=dataset, g=num_groups: (
                        _measured_group_by(d, a, g, result.workers)
                    ),
                    repeats=repeats,
                    warmup=1,
                )
                panel.series[algorithm].append((num_groups, timing.best_ms))
        result.panels.append(panel)
    return result


@dataclass
class CrossoverResult:
    """The zoom-in of Figure 4's unsorted-sparse panel."""

    #: (num_groups, HG ms, BSG ms) measurements.
    points: list[tuple[int, float, float]] = field(default_factory=list)
    #: largest group count at which BSG still beat HG (0 if never).
    crossover_groups: int = 0


def run_crossover(
    rows: int = DEFAULT_ROWS,
    group_counts: tuple[int, ...] = (2, 4, 8, 14, 16, 24, 32, 48, 64, 128, 256),
    repeats: int = 3,
    seed: int = 0,
) -> CrossoverResult:
    """Measure the BSG-vs-HG small-group-count crossover on unsorted &
    sparse data (paper: BSG wins up to 14 groups)."""
    result = CrossoverResult()
    for num_groups in group_counts:
        dataset = make_grouping_dataset(
            rows,
            num_groups,
            sortedness=Sortedness.UNSORTED,
            density=Density.SPARSE,
            seed=seed,
        )

        def hg_call():
            return group_by(
                dataset.keys,
                dataset.payload,
                GroupingAlgorithm.HG,
                num_distinct_hint=num_groups,
            )

        def bsg_call():
            return group_by(dataset.keys, dataset.payload, GroupingAlgorithm.BSG)

        hg_call(), bsg_call()  # warm-up
        # One repeat of each in turn, so that a slow spell of the host
        # slows both algorithms' samples rather than all of one's.
        hg = bsg = float("inf")
        for _ in range(repeats):
            hg = min(hg, time_callable(hg_call, repeats=1, warmup=0).best_ms)
            bsg = min(bsg, time_callable(bsg_call, repeats=1, warmup=0).best_ms)
        result.points.append((num_groups, hg, bsg))
        if bsg < hg:
            result.crossover_groups = num_groups
    return result


def render_figure4(result: Figure4Result) -> str:
    """Render all four panels as tables + ASCII charts."""
    workers = (
        f", {result.workers} workers" if result.workers > 1 else ""
    )
    sections = [
        f"Figure 4 — grouping runtime [ms] vs #groups "
        f"(n={result.rows:,} rows{workers}; paper used 100M)"
    ]
    for panel in result.panels:
        group_counts = sorted(
            {g for points in panel.series.values() for g, __ in points}
        )
        headers = ["#groups"] + [a.name for a in panel.series]
        rows = []
        for g in group_counts:
            row = [f"{g:,}"]
            for algorithm in panel.series:
                ms = dict(panel.series[algorithm]).get(g)
                row.append(f"{ms:,.1f}" if ms is not None else "-")
            rows.append(row)
        sections.append(render_table(headers, rows, title=f"[{panel.title}]"))
        sections.append(
            render_ascii_chart(
                [
                    Series(a.name, [(float(g), ms) for g, ms in points])
                    for a, points in panel.series.items()
                ],
                title=f"[{panel.title}]",
                x_label="#groups",
                y_label="ms",
            )
        )
    return "\n\n".join(sections)


def render_crossover(result: CrossoverResult) -> str:
    """Render the zoom-in measurements."""
    rows = [
        [f"{g:,}", f"{hg:,.1f}", f"{bsg:,.1f}", "BSG" if bsg < hg else "HG"]
        for g, hg, bsg in result.points
    ]
    table = render_table(
        ["#groups", "HG [ms]", "BSG [ms]", "winner"],
        rows,
        title=(
            "Figure 4 zoom-in (unsorted & sparse): BSG vs HG at small "
            "group counts"
        ),
    )
    verdict = (
        f"\nBSG beats HG up to {result.crossover_groups} groups "
        "(paper: up to 14 groups on their hardware)."
        if result.crossover_groups
        else "\nBSG never beat HG at the measured points."
    )
    return table + verdict


def profile_shape_run(
    rows: int = DEFAULT_ROWS,
    num_groups: int = 20_000,
    sortedness: Sortedness = Sortedness.UNSORTED,
    density: Density = Density.DENSE,
    seed: int = 0,
):
    """One Figure 4 shape run through the operator engine, profiled.

    Returns a :class:`~repro.obs.profile.QueryProfile` whose grouping
    operator carries the per-algorithm memory footprint (Table 1's
    "Memory req." column, measured).
    """
    from repro.engine.aggregates import count_star
    from repro.engine.operators.grouping import GroupBy
    from repro.engine.operators.scan import TableScan
    from repro.obs.profile import capture_profile
    from repro.storage.table import Table

    dataset = make_grouping_dataset(
        rows, num_groups, sortedness=sortedness, density=density, seed=seed
    )
    table = Table.from_arrays({"K": dataset.keys})
    algorithm = (
        GroupingAlgorithm.SPHG
        if density is Density.DENSE
        else GroupingAlgorithm.HG
    )
    plan = GroupBy(
        TableScan(table),
        key="K",
        aggregates=[count_star()],
        algorithm=algorithm,
        num_distinct_hint=num_groups,
    )
    return capture_profile(
        plan,
        query=(
            f"figure4 shape run: {sortedness.value} & {density.value}, "
            f"{rows:,} rows, {num_groups:,} groups, {algorithm.value}"
        ),
    )


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "morsel workers for the measured kernels (> 1 measures the "
            "parallel-load variants; recorded in the JSON artifact)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="ARTIFACT",
        default="",
        help="also write the sweep as a benchmark JSON artifact",
    )
    parser.add_argument(
        "--crossover",
        action="store_true",
        help="also run the BSG-vs-HG zoom-in",
    )
    parser.add_argument(
        "--profile",
        metavar="REPORT_HTML",
        default="",
        help=(
            "skip the sweep; profile one shape run and write a "
            "standalone HTML report (+ .folded flamegraph stacks)"
        ),
    )
    args = parser.parse_args()
    if args.profile:
        from pathlib import Path

        profile = profile_shape_run(rows=args.rows)
        report = Path(args.profile)
        report.write_text(profile.to_html(), encoding="utf-8")
        folded = report.with_suffix(".folded")
        folded.write_text(profile.to_folded_stacks(), encoding="utf-8")
        print(profile.render())
        print(f"wrote HTML report: {report}")
        print(f"wrote folded stacks: {folded}")
        return
    result = run_figure4(
        rows=args.rows, repeats=args.repeats, workers=args.workers
    )
    print(render_figure4(result))
    if args.json:
        from repro.bench.reporting import write_json_artifact

        timings = {
            f"{panel.sortedness.value}_{panel.density.value}/"
            f"{algorithm.name}@{num_groups}": ms / 1e3
            for panel in result.panels
            for algorithm, points in panel.series.items()
            for num_groups, ms in points
        }
        path = write_json_artifact(
            args.json,
            "figure4",
            timings,
            meta={
                "rows": result.rows,
                "repeats": args.repeats,
                "workers": result.workers,
            },
        )
        print(f"\nwrote JSON artifact: {path}")
    if args.crossover:
        print()
        print(render_crossover(run_crossover(rows=args.rows, repeats=args.repeats)))


if __name__ == "__main__":
    main()
