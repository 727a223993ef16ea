"""The layer-attributed benchmark: six workloads, one command.

``python3 perf/run.py`` (or ``python -m perf.run``) is the entry point;
``perf/README.md`` has the metric, layer and workload tables.
"""

import json
from pathlib import Path


def benchmark() -> dict:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    return json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
