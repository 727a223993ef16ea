"""Figure 5: DQO-over-SQO plan-cost improvement factors.

Reproduces §4.3: the query ::

    SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A;

optimised under SQO and DQO for every combination of {R sorted/unsorted}
x {S sorted/unsorted} x {sparse/dense}, reporting cost(SQO)/cost(DQO).
The paper's grid::

                     sparse   dense
    R sorted, S sorted   1x      1x
    R sorted, S unsorted 1x      4x
    R unsorted, S sorted 1x      2.8x
    R unsorted, S unsort 1x      4x

Cardinalities per the paper (|S| = |join| = 90,000; 20,000 groups) with
|R| = 45,000 reconstructed from the published factors (DESIGN.md
substitution #4). Join build/probe sides stay as written in the query
(substitution #5); run with ``--commutation`` to see how the grid changes
when the optimiser may swap sides.

With ``--execute`` each plan is timed twice, best of three each: *cold*,
every repeat on a freshly built catalog, so that it erects its hash
tables and slot assignments itself; and *warm*, repeated on one catalog,
so that it reuses the build structures the first run memoised on the base
columns. The measured speedup is the cold one; the warm seconds record
what reuse buys per plan shape. A cell fails unless its SQO and DQO
plans, cold and warm, return the same groups, and those are the groups
numpy computes from the generated arrays alone. With ``--workers N`` every
cell is optimised for and executed at N workers, so the deep plans may
run in parallel; the paper's grid is the default, one worker.

Run as a script::

    python -m repro.bench.figure5 [--execute] [--commutation] [--workers N] [--json PATH]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util.timer import Timer, time_callable
from repro.bench.reporting import render_table
from repro.core.cost.model import CostModel
from repro.core.optimizer.dqo import optimize_dqo
from repro.core.optimizer.sqo import optimize_sqo
from repro.core.plan import to_operator
from repro.datagen.grouping import Density, Sortedness
from repro.datagen.join import JoinScenario, make_join_scenario
from repro.errors import ExecutionError
from repro.settings import check, scoped_settings
from repro.sql.planner import plan_query
from repro.storage.catalog import Catalog
from repro.storage.table import Table

#: the §4.3 query, verbatim.
QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"

#: the paper's published grid (sparse, dense) per sortedness row.
PAPER_FACTORS: dict[tuple[Sortedness, Sortedness], tuple[float, float]] = {
    (Sortedness.SORTED, Sortedness.SORTED): (1.0, 1.0),
    (Sortedness.SORTED, Sortedness.UNSORTED): (1.0, 4.0),
    (Sortedness.UNSORTED, Sortedness.SORTED): (1.0, 2.8),
    (Sortedness.UNSORTED, Sortedness.UNSORTED): (1.0, 4.0),
}


@dataclass
class Figure5Cell:
    """One grid cell's outcome."""

    r_sortedness: Sortedness
    s_sortedness: Sortedness
    density: Density
    sqo_cost: float
    dqo_cost: float
    sqo_plan: str
    dqo_plan: str
    #: measured wall-clock seconds, when --execute was requested: cold
    #: (each repeat on a fresh catalog) and warm (repeats on one catalog).
    sqo_seconds: float | None = None
    dqo_seconds: float | None = None
    sqo_warm_seconds: float | None = None
    dqo_warm_seconds: float | None = None

    @property
    def factor(self) -> float:
        """cost(SQO) / cost(DQO)."""
        return self.sqo_cost / self.dqo_cost if self.dqo_cost else float("inf")

    @property
    def measured_speedup(self) -> float | None:
        """Cold wall-clock speedup, when executed."""
        if self.sqo_seconds is None or not self.dqo_seconds:
            return None
        return self.sqo_seconds / self.dqo_seconds

    @property
    def warm_speedup(self) -> float | None:
        """Warm wall-clock speedup, when executed."""
        if self.sqo_warm_seconds is None or not self.dqo_warm_seconds:
            return None
        return self.sqo_warm_seconds / self.dqo_warm_seconds


@dataclass
class Figure5Result:
    """The full 4x2 grid."""

    cells: list[Figure5Cell] = field(default_factory=list)

    def cell(
        self, r: Sortedness, s: Sortedness, density: Density
    ) -> Figure5Cell:
        """Fetch one cell."""
        for cell in self.cells:
            if (
                cell.r_sortedness is r
                and cell.s_sortedness is s
                and cell.density is density
            ):
                return cell
        raise ValueError(f"no cell ({r}, {s}, {density})")


def run_figure5(
    n_r: int | None = None,
    n_s: int | None = None,
    num_groups: int | None = None,
    execute_plans: bool = False,
    consider_commutation: bool = False,
    cost_model: CostModel | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Figure5Result:
    """Optimise (and optionally execute) all eight configurations.

    Cardinality arguments default to the paper's values; pass smaller ones
    for quick runs (``execute_plans`` at full size takes a few seconds per
    cell). ``workers`` is the worker count every plan is optimised for and
    executed with; above 1 the deep plans may run in parallel.
    """
    kwargs = {}
    if n_r is not None:
        kwargs["n_r"] = n_r
    if n_s is not None:
        kwargs["n_s"] = n_s
    if num_groups is not None:
        kwargs["num_groups"] = num_groups
    result = Figure5Result()
    for (r_sort, s_sort) in PAPER_FACTORS:
        for density in (Density.SPARSE, Density.DENSE):
            scenario = make_join_scenario(
                r_sortedness=r_sort,
                s_sortedness=s_sort,
                density=density,
                seed=seed,
                **kwargs,
            )
            catalog = scenario.build_catalog()
            logical = plan_query(QUERY, catalog)
            sqo = optimize_sqo(
                logical,
                catalog,
                cost_model,
                consider_commutation=consider_commutation,
                workers=workers,
            )
            dqo = optimize_dqo(
                logical,
                catalog,
                cost_model,
                consider_commutation=consider_commutation,
                workers=workers,
            )
            cell = Figure5Cell(
                r_sortedness=r_sort,
                s_sortedness=s_sort,
                density=density,
                sqo_cost=sqo.cost,
                dqo_cost=dqo.cost,
                sqo_plan=_plan_summary(sqo.plan),
                dqo_plan=_plan_summary(dqo.plan),
            )
            if execute_plans:
                with scoped_settings(workers=workers):
                    cell.sqo_seconds, cell.sqo_warm_seconds, groups = _time_plan(
                        sqo.plan, catalog, scenario
                    )
                    cell.dqo_seconds, cell.dqo_warm_seconds, more = _time_plan(
                        dqo.plan, catalog, scenario
                    )
                if len(set(groups + more)) > 1:
                    raise ExecutionError(
                        f"{_cell_name(cell)}: SQO and DQO returned different groups"
                    )
                if groups[0] != _expected_groups(scenario):
                    raise ExecutionError(
                        f"{_cell_name(cell)}: the plans' groups differ from numpy's"
                    )
            result.cells.append(cell)
    return result


def _time_plan(
    plan, catalog: Catalog, scenario: JoinScenario, repeats: int = 3
) -> tuple[float, float, list[bytes]]:
    """Best-of-``repeats`` seconds of ``plan``'s ``to_table``: cold, each
    repeat over a new catalog of ``scenario``, then warm, over
    ``catalog`` after one unmeasured run; and the groups each cold run
    and the last warm run returned (:func:`_groups`)."""
    warm = time_callable(
        to_operator(plan, catalog).to_table, repeats=repeats, warmup=1
    )
    tables, cold = [warm.last_result], []
    for _ in range(repeats):
        operator = to_operator(plan, _cold_catalog(scenario))
        with Timer() as timer:
            tables.append(operator.to_table())
        cold.append(timer.elapsed)
    return min(cold), warm.best, [_groups(table) for table in tables]


def _groups(table: Table) -> bytes:
    """``table``'s rows ascending, as bytes: equal for equal row multisets."""
    columns = [table[name] for name in table.schema.names]
    order = np.lexsort(columns[::-1])
    return b"".join(column[order].tobytes() for column in columns)


def _expected_groups(scenario: JoinScenario) -> bytes:
    """:func:`_groups` of the rows numpy computes for ``scenario``
    (:meth:`JoinScenario.expected_groups`), which no plan's route can
    change."""
    keys, counts = scenario.expected_groups()
    return _groups(Table.from_arrays({"A": keys, "count": counts}))


def _cold_catalog(scenario: JoinScenario) -> Catalog:
    """``scenario``'s catalog over new tables holding the same arrays, so
    that nothing memoised on another catalog's columns is reused."""

    def fresh(table: Table) -> Table:
        return Table.from_arrays(
            {spec.name: table[spec.name] for spec in table.schema},
            dtypes={spec.name: spec.dtype for spec in table.schema},
        )

    return replace(scenario, r=fresh(scenario.r), s=fresh(scenario.s)).build_catalog()


def _plan_summary(plan) -> str:
    """Compact `GROUPING(JOIN)` signature of a plan, each algorithm
    named with its mode (``HG/parallel(HJ)``)."""
    grouping = join = None
    sorts = 0
    for node in plan.walk():
        if node.op == "group_by":
            grouping = node.label
        elif node.op == "join":
            join = node.label
        elif node.op == "sort":
            sorts += 1
    summary = f"{grouping}({join})" if join else f"{grouping}"
    if sorts:
        summary += f"+{sorts}sort"
    return summary


def render_figure5(result: Figure5Result, execute_plans: bool = False) -> str:
    """Render the grid next to the paper's published factors."""
    headers = [
        "R",
        "S",
        "density",
        "SQO cost",
        "DQO cost",
        "factor",
        "paper",
        "SQO plan",
        "DQO plan",
    ]
    if execute_plans:
        headers += ["measured speedup", "warm speedup"]
    rows = []
    for cell in result.cells:
        paper_sparse, paper_dense = PAPER_FACTORS[
            (cell.r_sortedness, cell.s_sortedness)
        ]
        paper = paper_dense if cell.density is Density.DENSE else paper_sparse
        row = [
            cell.r_sortedness.value,
            cell.s_sortedness.value,
            cell.density.value,
            f"{cell.sqo_cost:,.0f}",
            f"{cell.dqo_cost:,.0f}",
            f"{cell.factor:.1f}x",
            f"{paper:.1f}x",
            cell.sqo_plan,
            cell.dqo_plan,
        ]
        if execute_plans:
            row += [
                f"{speedup:.1f}x" if speedup is not None else "-"
                for speedup in (cell.measured_speedup, cell.warm_speedup)
            ]
        rows.append(row)
    return render_table(
        headers,
        rows,
        title=(
            "Figure 5 — improvement factors of DQO over SQO "
            "(estimated plan costs; |R|=45,000 reconstructed, "
            "|S|=|join|=90,000, 20,000 groups)"
        ),
    )


def _cell_name(cell: Figure5Cell) -> str:
    return (
        f"R_{cell.r_sortedness.value}/S_{cell.s_sortedness.value}/"
        f"{cell.density.value}"
    )


def _timings(result: Figure5Result) -> dict[str, float]:
    """Measured seconds per cell and plan, cold and warm (empty unless
    executed)."""
    return {
        f"{_cell_name(cell)}/{side}": seconds
        for cell in result.cells
        for side, seconds in (
            ("sqo", cell.sqo_seconds),
            ("dqo", cell.dqo_seconds),
            ("sqo_warm", cell.sqo_warm_seconds),
            ("dqo_warm", cell.dqo_warm_seconds),
        )
        if seconds is not None
    }


def _cell_record(cell: Figure5Cell) -> dict:
    """One cell's plans, costs, factors and measured speedup."""
    return {
        "cell": _cell_name(cell),
        "sqo_plan": cell.sqo_plan,
        "dqo_plan": cell.dqo_plan,
        "sqo_cost": cell.sqo_cost,
        "dqo_cost": cell.dqo_cost,
        "factor": cell.factor,
        "measured_speedup": cell.measured_speedup,
        "warm_speedup": cell.warm_speedup,
    }


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--execute",
        action="store_true",
        help="also execute both plans per cell and report wall-clock "
        "speedups, cold and warm",
    )
    parser.add_argument(
        "--commutation",
        action="store_true",
        help="allow the optimiser to swap join build/probe sides (ablation)",
    )
    parser.add_argument(
        "--json",
        metavar="ARTIFACT",
        default="",
        help="also write the grid as a benchmark JSON artifact",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="optimise and execute every cell at N workers (default 1)",
    )
    args = parser.parse_args()
    result = run_figure5(
        execute_plans=args.execute,
        consider_commutation=args.commutation,
        workers=check("workers", args.workers),
    )
    print(render_figure5(result, execute_plans=args.execute))
    if args.json:
        from repro.bench.reporting import write_json_artifact

        path = write_json_artifact(
            args.json,
            "figure5",
            _timings(result),
            meta={
                "executed": args.execute,
                "commutation": args.commutation,
                "workers": args.workers,
                "cells": [_cell_record(cell) for cell in result.cells],
            },
        )
        print(f"\nwrote JSON artifact: {path}")
    if args.commutation:
        print(
            "\n(commutation enabled: the 'R sorted, S unsorted, dense' cell "
            "drops to 2.8x because SQO may now build on S and stream sorted "
            "R — the paper's 4x assumes the syntactic build side)"
        )


if __name__ == "__main__":
    main()
