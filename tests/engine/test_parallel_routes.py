"""One route matrix: every parallel route returns what the serial kernel does.

A route is a backend {thread, process} over contiguous range shards; each
is checked for every grouping algorithm, through the kernel API
(``parallel_group_by``) and through the ``GroupBy`` operator, up to key
order (the merge sorts). A float aggregate input is the one place
arithmetic may reassociate: range shards add a group's partial sums in
another order than the serial pass (tolerance below).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datagen import Density, Sortedness, make_grouping_dataset
from repro.engine import (
    avg_of,
    count_star,
    execute,
    max_of,
    min_of,
    sum_of,
)
from repro.engine.kernels.grouping import GroupingAlgorithm, group_by
from repro.engine.kernels.parallel import parallel_group_by
from repro.engine.operators import GroupBy, TableScan
from repro.errors import PreconditionError
from repro.service.session import QueryService, ServiceConfig
from repro.settings import scoped_settings
from repro.storage import Catalog, Table

pytestmark = pytest.mark.usefixtures("fork_pool")

#: float64 sums of ~10^4 addends reassociated across shards.
FLOAT_RTOL = 1e-12

INT64 = np.iinfo(np.int64)
#: the keys that were once special to the hash kernels (-1 marked an
#: empty bucket), both ends of int64, and enough else to collide.
EXTREME_KEYS = (-1, INT64.min, INT64.max, 0, -2, 1, INT64.min + 1, INT64.max - 1, 7)

BACKENDS = ("thread", "process")
ROUTES = [pytest.param(backend, id=f"{backend}-range") for backend in BACKENDS]


def route_cases(algorithms):
    """(backend, algorithm) for every applicable algorithm."""
    return [
        pytest.param(backend, algorithm, id=f"{backend}-range-{algorithm.name}")
        for backend in BACKENDS
        for algorithm in sorted(algorithms, key=lambda a: a.name)
    ]


GROUPING_CASES = route_cases(GroupingAlgorithm)


@pytest.fixture(scope="module")
def dataset():
    """Sorted + dense satisfies every grouping algorithm's precondition;
    37 groups over 20 000 rows puts runs across every shard boundary."""
    return make_grouping_dataset(20_000, 37, Sortedness.SORTED, Density.DENSE, seed=11)


@pytest.fixture(scope="module")
def floats(dataset):
    return np.random.default_rng(3).random(dataset.keys.size) * 10


class TestGroupingKernel:
    @pytest.mark.parametrize("values", ["int", "float", None])
    @pytest.mark.parametrize("backend, algorithm", GROUPING_CASES)
    def test_equals_serial(self, dataset, floats, backend, algorithm, values):
        payload = {"int": dataset.payload, "float": floats, None: None}[values]
        serial = group_by(
            dataset.keys, payload, algorithm, num_distinct_hint=37
        ).sorted_by_key()
        result = parallel_group_by(
            dataset.keys, payload, algorithm, shards=7, num_distinct_hint=37,
            workers=2, backend=backend,
        )
        assert np.all(np.diff(result.keys) > 0)  # the merge sorts
        assert np.array_equal(result.keys, serial.keys)
        assert np.array_equal(result.counts, serial.counts)
        assert result.sums.dtype == serial.sums.dtype
        if values == "float":
            np.testing.assert_allclose(result.sums, serial.sums, rtol=FLOAT_RTOL)
        else:
            assert np.array_equal(result.sums, serial.sums)

    @pytest.mark.parametrize("backend", ROUTES)
    def test_degenerate_inputs_run_serially(self, backend):
        empty = parallel_group_by(
            np.empty(0, dtype=np.int64), None, GroupingAlgorithm.HG, shards=4,
            backend=backend,
        )
        assert empty.num_groups == 0
        few = parallel_group_by(
            np.array([5, 5, 6]), None, GroupingAlgorithm.SOG, shards=50, backend=backend
        )
        assert (few.keys.tolist(), few.counts.tolist()) == ([5, 6], [2, 1])
        with pytest.raises(PreconditionError):
            parallel_group_by(
                np.array([1]), None, GroupingAlgorithm.HG, shards=0, backend=backend
            )


class TestGroupByOperator:
    AGGREGATES = [
        count_star(),
        sum_of("value"),
        min_of("value"),
        max_of("value"),
        avg_of("value"),
        sum_of("f", "sum_f"),
        avg_of("f", "avg_f"),
        max_of("f", "max_f"),
    ]

    def grouped(self, table, algorithm, **route):
        return execute(
            GroupBy(
                TableScan(table), "key", self.AGGREGATES, algorithm=algorithm,
                num_distinct_hint=37, **route,
            )
        ).sort_by(["key"])

    @pytest.mark.parametrize("backend, algorithm", GROUPING_CASES)
    def test_equals_serial(self, dataset, floats, backend, algorithm):
        """Includes the float-input regression: every partial used to be
        truncated to SUM's INT64 before the merge, so ``sum_f`` came out
        up to one per shard short of the serial answer and ``avg_f`` was
        computed from the truncated sums."""
        table = Table.from_arrays(
            {"key": dataset.keys, "value": dataset.payload, "f": floats}
        )
        serial = self.grouped(table, algorithm)
        with scoped_settings(workers=2):
            result = self.grouped(table, algorithm, parallel=True, backend=backend)
        assert result.schema == serial.schema
        for name in serial.schema.names:
            if name == "avg_f":
                np.testing.assert_allclose(
                    result[name], serial[name], rtol=FLOAT_RTOL
                )
            else:
                assert np.array_equal(result[name], serial[name]), name


keys_of = st.lists(st.sampled_from(EXTREME_KEYS), min_size=1, max_size=60).map(
    lambda values: np.array(values, dtype=np.int64)
)


@pytest.mark.parametrize("backend", ROUTES)
@settings(max_examples=40, deadline=None)
@given(build=keys_of, shards=st.integers(1, 12))
def test_no_key_value_is_special(backend, build, shards):
    """-1, both ends of int64 and heavy duplication on every route: the
    hash family against the sort-based one."""
    values = np.arange(build.size, dtype=np.int64)
    hashed = parallel_group_by(
        build, values, GroupingAlgorithm.HG, shards=shards, workers=2,
        backend=backend,
    ).sorted_by_key()
    sort_based = group_by(build, values, GroupingAlgorithm.SOG)
    assert np.array_equal(hashed.keys, sort_based.keys)
    assert np.array_equal(hashed.counts, sort_based.counts)
    assert np.array_equal(hashed.sums, sort_based.sums)


#: addends whose sums leave float64's exact range (2**53) but not int64.
BIG_VALUES = (2**62, -(2**62), 2**62 - 1, 2**53, 2**53 + 1, -(2**53), 1, -1, 3, 0)


@pytest.mark.parametrize("route", ["serial", *(param.id for param in ROUTES)])
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(BIG_VALUES)), min_size=1, max_size=40
    ),
    shards=st.integers(2, 5),
)
def test_integer_sum_is_exact_on_every_route(route, rows, shards):
    """Integer SUM against Python ``int`` sums, near +-2**62 and with mixed
    signs: float64 accumulation rounded 2**53 + 1 + 1 + 1 to 2**53 serially
    and to 2**53 + 2 over two range shards."""
    expected: dict[int, int] = {}
    for key, value in rows:
        expected[key] = expected.get(key, 0) + value
    assume(all(INT64.min <= total <= INT64.max for total in expected.values()))
    keys = np.array([key for key, __ in rows], dtype=np.int64)
    values = np.array([value for __, value in rows], dtype=np.int64)
    if route == "serial":
        result = group_by(keys, values, GroupingAlgorithm.HG)
    else:
        result = parallel_group_by(
            keys, values, GroupingAlgorithm.HG, shards=shards, workers=2,
            backend=route.removesuffix("-range"),
        )
    assert dict(zip(result.keys.tolist(), result.sums.tolist())) == expected


def test_float_aggregates_agree_across_worker_counts(memory_storage):
    """The reported case, end to end: with two workers the optimiser
    picks ``GroupBy[HG/parallel]`` and SUM(V) used to lose one per
    truncated partial (19773 against the serial 19774)."""
    rng = np.random.default_rng(0)
    catalog = Catalog()
    catalog.register(
        "T",
        Table.from_arrays(
            {"K": rng.integers(0, 50, 200_000), "V": rng.random(200_000) * 10}
        ),
    )

    def answer(workers):
        service = QueryService(catalog, ServiceConfig(workers=workers))
        try:
            result = service.execute(
                "SELECT K, SUM(V) AS S, AVG(V) AS A FROM T GROUP BY K"
            )
            return result.table.sort_by(["T.K"]), result.plan
        finally:
            service.shutdown()

    (serial, __), (parallel, plan_text) = answer(1), answer(2)
    assert "parallel" in plan_text
    assert np.array_equal(parallel["T.K"], serial["T.K"])
    assert np.array_equal(parallel["S"], serial["S"])
    np.testing.assert_allclose(parallel["A"], serial["A"], rtol=FLOAT_RTOL)
