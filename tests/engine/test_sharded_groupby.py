"""The GroupBy operator's Figure 3(e) sharded (parallel-load) mode:
``parallel=True`` groups one range shard per configured worker.

The tests that sweep the worker count up to 16 pin the thread backend:
the process pool grows to the largest count it is asked for and keeps
its workers, and ``test_parallel_routes.py`` covers the process route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    GroupBy,
    GroupingAlgorithm,
    TableScan,
    avg_of,
    count_star,
    execute,
    max_of,
    min_of,
    sum_of,
)
from repro.storage import Table


def make_table(rng, rows=4_000, groups=50):
    return Table.from_arrays(
        {
            "k": rng.integers(0, groups, rows),
            "v": rng.integers(-100, 100, rows),
        }
    )


ALL_AGGREGATES = [
    count_star("c"),
    sum_of("v", "s"),
    min_of("v", "lo"),
    max_of("v", "hi"),
    avg_of("v", "m"),
]


class TestShardedGroupBy:
    @pytest.mark.parametrize("workers", [2, 3, 7, 16])
    def test_all_aggregates_match_serial(self, rng, workers):
        table = make_table(rng)
        serial = execute(
            GroupBy(TableScan(table), "k", ALL_AGGREGATES)
        ).sort_by(["k"])
        sharded = execute(
            GroupBy(TableScan(table), "k", ALL_AGGREGATES, parallel=True,
                    backend="thread"),
            workers=workers,
        ).sort_by(["k"])
        assert sharded.schema == serial.schema
        for name in ("k", "c", "s", "lo", "hi"):
            assert np.array_equal(sharded[name], serial[name]), name
        assert np.allclose(sharded["m"], serial["m"])

    def test_sphg_shards(self, rng):
        table = Table.from_arrays({"k": rng.integers(0, 30, 2_000)})
        serial = execute(
            GroupBy(TableScan(table), "k", [count_star("c")],
                    GroupingAlgorithm.SPHG)
        ).sort_by(["k"])
        sharded = execute(
            GroupBy(TableScan(table), "k", [count_star("c")],
                    GroupingAlgorithm.SPHG, parallel=True),
            workers=4,
        ).sort_by(["k"])
        assert sharded.equals(serial)

    def test_empty_input(self):
        table = Table.from_arrays(
            {"k": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.int64)}
        )
        result = execute(
            GroupBy(TableScan(table), "k", [count_star("c")], parallel=True),
            workers=4,
        )
        assert result.num_rows == 0

    @pytest.mark.parametrize("backend", [None, "thread", "process"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_describe_names_the_loop_only_when_parallel(self, rng, parallel, backend):
        """A label tells the truth: the loop mode and the pool it runs
        on appear exactly when the operator runs parallel."""
        described = GroupBy(
            TableScan(make_table(rng)), "k", [count_star()],
            parallel=parallel, backend=backend,
        ).describe()
        assert ("loop=parallel" in described) is parallel
        assert ("backend=" in described) is parallel
        if parallel and backend is not None:
            assert f"backend={backend}" in described


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 10), min_size=1, max_size=200),
    st.integers(2, 9),
)
def test_sharded_property(values, workers):
    """Property: shard + merge equals serial for COUNT/SUM/MIN/MAX/AVG."""
    table = Table.from_arrays(
        {
            "k": np.array(values, dtype=np.int64),
            "v": np.arange(len(values), dtype=np.int64),
        }
    )
    serial = execute(GroupBy(TableScan(table), "k", ALL_AGGREGATES)).sort_by(["k"])
    sharded = execute(
        GroupBy(TableScan(table), "k", ALL_AGGREGATES, parallel=True,
                backend="thread"),
        workers=workers,
    ).sort_by(["k"])
    assert serial.to_rows() == pytest.approx(sharded.to_rows())
