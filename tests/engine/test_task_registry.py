"""The task registry is the contract between the two pools.

A morsel task is written once; the dispatcher calls it on pool threads
with the arrays themselves, or ships shared-memory refs to a worker
process that looks the same function up by name. So for every registered
kind one payload must give equal results inline, on the thread pool and
on the process pool — parametrised over the registry itself: a task
added later gets the check (or fails it for want of a payload here).
"""

import ast
import inspect

import numpy as np
import pytest

from repro.engine import count_star, procpool, sum_of
from repro.engine.kernels.grouping import GroupingAlgorithm
from repro.engine.parallel import get_task, registered_tasks, run_tasks
from repro.errors import ExecutionError

pytestmark = pytest.mark.usefixtures("fork_pool")

RNG = np.random.default_rng(23)
KEYS = RNG.integers(0, 40, 3_000)
# Every second element of a wider array: not C-contiguous, so the process
# route must publish a copy — and keep it alive until the batch is done.
STRIDED = RNG.integers(0, 1_000, 6_000)[::2]
BOUNDS = [{"start": 0, "stop": 1_000}, {"start": 1_000, "stop": 3_000}]

#: kind -> (shared, pieces): one payload per registered task.
PAYLOADS = {
    "group_partial": (
        {
            "keys": KEYS,
            "inputs": {"v": STRIDED},
            "aggregates": [count_star(), sum_of("v")],
            "algorithm": GroupingAlgorithm.HG,
            "num_distinct_hint": 40,
        },
        BOUNDS,
    ),
    "sleep": ({"seconds": 0.0}, [{"token": "a"}, {"token": "b"}]),
}


def assert_equal_results(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_equal_results(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_equal_results(got_item, want_item)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("kind", sorted(registered_tasks()))
def test_same_payload_same_result_inline_thread_process(kind):
    assert kind in PAYLOADS, f"add a payload for the new task {kind!r}"
    shared, pieces = PAYLOADS[kind]
    inline = [get_task(kind)({**shared, **piece}) for piece in pieces]
    for backend in ("thread", "process"):
        report = run_tasks(kind, shared, pieces, backend, workers=2)
        assert_equal_results(report.results, inline)
        assert report.workers_used >= 1 and report.busy_seconds >= 0.0


def test_dispatcher_rejects_what_it_does_not_know():
    with pytest.raises(ExecutionError, match="no task"):
        run_tasks("no-such-task", {}, [{}], "thread")
    with pytest.raises(ExecutionError, match="backend"):
        run_tasks("sleep", {"seconds": 0.0}, [{}], "fiber")


def test_procpool_defines_no_task_but_the_sleep_hook():
    """The pool moves payloads; what a payload means lives with the
    kernels. It imports neither them nor the operators, and registers
    nothing but its test hook."""
    tree = ast.parse(inspect.getsource(procpool))
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {
        name for name in imported if ".kernels" in name or ".operators" in name
    }
    identifiers = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    for symbol in ("group_by", "GroupBy", "GroupingAlgorithm", "aggregate_groups",
                   "Join", "JoinAlgorithm", "BuildSide", "build_side"):
        assert symbol not in identifiers
    assert [
        kind
        for kind, fn in registered_tasks().items()
        if fn.__module__ == procpool.__name__
    ] == ["sleep"]
