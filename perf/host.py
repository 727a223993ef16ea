"""The host record written into every result file.

Results from different hosts are only comparable with a yardstick that
depends on nothing in this repository: the seconds to copy and to sort
one fixed 8M-element int64 array.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time

import numpy as np

PROBE_ELEMENTS = 8_000_000


def normalisation_probe() -> dict[str, float]:
    """Best-of-three seconds to copy, and to sort, the fixed array."""
    values = np.random.default_rng(0).integers(0, 2**62, size=PROBE_ELEMENTS)
    copy_seconds, sort_seconds = [], []
    for _ in range(3):
        started = time.perf_counter()
        scratch = values.copy()
        copy_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        scratch.sort()
        sort_seconds.append(time.perf_counter() - started)
    return {"copy_s": min(copy_seconds), "sort_s": min(sort_seconds)}


def git_commit(root) -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_record(root, seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "seed": seed,
        "normalisation": normalisation_probe(),
    }
