"""Benchmark harness: regenerates every table and figure of the paper's
evaluation section (see DESIGN.md §3 for the experiment index).

Each module doubles as a script::

    python -m repro.bench.table1
    python -m repro.bench.table2
    python -m repro.bench.figure4 --crossover
    python -m repro.bench.figure5 --execute

The names below load on first attribute access: a module imported here
eagerly would already be in ``sys.modules`` when ``python -m`` runs it as
``__main__``, so it would run twice.
"""

_LAZY = {
    "CrossoverResult": "repro.bench.figure4",
    "Figure4Result": "repro.bench.figure4",
    "PanelResult": "repro.bench.figure4",
    "render_crossover": "repro.bench.figure4",
    "render_figure4": "repro.bench.figure4",
    "run_crossover": "repro.bench.figure4",
    "run_figure4": "repro.bench.figure4",
    "PAPER_FACTORS": "repro.bench.figure5",
    "Figure5Cell": "repro.bench.figure5",
    "Figure5Result": "repro.bench.figure5",
    "render_figure5": "repro.bench.figure5",
    "run_figure5": "repro.bench.figure5",
    "Series": "repro.bench.reporting",
    "make_artifact": "repro.bench.reporting",
    "render_ascii_chart": "repro.bench.reporting",
    "render_table": "repro.bench.reporting",
    "write_json_artifact": "repro.bench.reporting",
    "render_table2": "repro.bench.table2",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
