"""Benchmark harness: regenerates every table and figure of the paper's
evaluation section (see DESIGN.md §3 for the experiment index).

Each module doubles as a script::

    python -m repro.bench.table1
    python -m repro.bench.table2
    python -m repro.bench.figure4 --crossover
    python -m repro.bench.figure5 --execute
"""

from repro.bench.figure4 import (
    CrossoverResult,
    Figure4Result,
    PanelResult,
    render_crossover,
    render_figure4,
    run_crossover,
    run_figure4,
)
from repro.bench.figure5 import (
    PAPER_FACTORS,
    Figure5Cell,
    Figure5Result,
    render_figure5,
    run_figure5,
)
from repro.bench.reporting import (
    Series,
    make_artifact,
    render_ascii_chart,
    render_table,
    write_json_artifact,
)
from repro.bench.table2 import render_table2

__all__ = [
    "CrossoverResult",
    "Figure4Result",
    "Figure5Cell",
    "Figure5Result",
    "PAPER_FACTORS",
    "PanelResult",
    "Series",
    "make_artifact",
    "render_ascii_chart",
    "render_crossover",
    "render_figure4",
    "render_figure5",
    "render_table",
    "render_table2",
    "run_crossover",
    "run_figure4",
    "run_figure5",
    "write_json_artifact",
]
