"""Laws of grouping where the keys are few.

A group-by whose key is a column of its child join's build input
assigns slots over the build rows. It counts a group's rows from its
build rows' match counts, and reads each joined row's slot through the
build-side match indices only for value aggregates; the key column is
never gathered. That route must not be observable. For every order-free grouping
algorithm x every join algorithm x a set of shapes (repeated build keys,
build rows nobody matches, a build larger than the matches, empty
inputs, a filtered build), the result equals the same group-by over the join's
materialised table: up to key order for HG, exactly for the others.
OG takes the route only over a sorted build key, and returns its groups
ascending: exactly OG over the output when that output is sorted on the
key, up to key order when it is only clustered. Over an unsorted build
key it groups the output, as before.
A parallel route (two workers, threads or processes) groups the build
side as the serial route does, in its order; up to key order that is
the parts' merge over the gathered output.

OJ looks each distinct key of its sorted probe up once. Its index pairs
must be the per-row binary search's, over sorted, unsorted
(unvalidated), all-equal and all-distinct probes, whether it encodes
the probe itself or probes through the column's memoised dictionary.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer.dqo import optimize_dqo
from repro.core.plan import to_operator
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import (
    Filter,
    GroupBy,
    GroupingAlgorithm,
    Join,
    JoinAlgorithm,
    TableScan,
    col,
    count_star,
    execute,
)
from repro.engine.aggregates import avg_of, max_of, min_of, sum_of
from repro.engine.executor import explain_analyze
from repro.engine.kernels.joins import BuildSide, build_side, join
from repro.engine.operators.base import chunk_count
from repro.engine.procpool import get_shared_store, leaked_segments, shutdown_process_pool
from repro.obs.runtime import capture_observability
from repro.settings import scoped_settings
from repro.sql import plan_query
from repro.storage import Table, dictionary_encode

pytestmark = pytest.mark.usefixtures("fork_pool")

ORDER_FREE = (
    GroupingAlgorithm.HG,
    GroupingAlgorithm.SPHG,
    GroupingAlgorithm.SOG,
    GroupingAlgorithm.BSG,
)

AGGREGATES = [
    count_star("n"),
    sum_of("R.X", "sum_x"),
    sum_of("S.B", "sum_b"),
    sum_of("S.F", "sum_f"),
    avg_of("R.X", "avg_x"),
    avg_of("S.B", "avg_b"),
    min_of("R.X", "min_x"),
    min_of("S.B", "min_b"),
    max_of("R.X", "max_x"),
    max_of("S.B", "max_b"),
]
PARALLEL_AGGREGATES = AGGREGATES + [avg_of("S.F", "avg_f")]

#: the GroupBy arguments of each route that groups in parts (at two workers).
PARALLEL_ROUTES = {
    "thread": {"parallel": True, "backend": "thread"},
    "process": {"parallel": True, "backend": "process"},
}
#: float64 partial sums reassociated across range shards
#: (``test_parallel_routes.py``'s tolerance).
FLOAT_RTOL = 1e-12
#: S rows of the "morsels" shape: many chunks, and two large range
#: shards at two workers.
MORSELS_PROBE_ROWS = 69_536


def relations(shape: str, seed: int = 7) -> tuple[dict, dict]:
    """R (build: ID, A, X) and S (probe: R_ID, B, F) of one shape, both
    sorted on the join key so that OJ's precondition holds."""
    rng = np.random.default_rng(seed)
    if shape == "repeated_build_keys":
        ids = np.sort(rng.integers(0, 20, 40))
        probe = rng.integers(0, 20, 120)
        groups = rng.integers(0, 8, ids.size)
    elif shape == "unmatched_build_rows":
        # IDs 25..49 match nothing, and neither do the groups 5..9 that
        # only they carry.
        ids = np.arange(50)
        probe = rng.integers(0, 25, 200)
        groups = ids // 5
    elif shape == "build_larger_than_matches":
        ids = np.arange(100)
        probe = rng.integers(0, 100, 20)
        groups = ids % 7
    elif shape == "empty_build":
        ids, probe, groups = np.arange(0), rng.integers(0, 10, 30), np.arange(0)
    elif shape == "empty_probe":
        ids, probe, groups = np.arange(30), np.arange(0), np.arange(30) % 4
    elif shape == "morsels":
        ids = np.arange(500)
        probe = rng.integers(0, 500, MORSELS_PROBE_ROWS)
        groups = rng.integers(0, 50, ids.size)
    else:
        raise AssertionError(shape)
    r = {
        "R.ID": ids.astype(np.int64),
        "R.A": groups.astype(np.int64) + 1_000,
        "R.X": rng.integers(-50, 50, ids.size),
    }
    s = {
        "S.R_ID": np.sort(probe).astype(np.int64),
        "S.B": rng.integers(-1_000, 1_000, probe.size),
        "S.F": rng.random(probe.size) * 3.0,
    }
    return r, s


def plan(r, s, join_algorithm, grouping, filtered=False, aggregates=AGGREGATES, **route):
    build = TableScan(Table.from_arrays(r))
    if filtered:
        build = Filter(build, col("R.X") > -20)
    join = Join(build, TableScan(Table.from_arrays(s)), "R.ID", "S.R_ID", join_algorithm)
    return GroupBy(join, "R.A", aggregates, grouping, **route)


def unfused(r, s, join_algorithm, grouping, filtered=False, aggregates=AGGREGATES):
    """The same group-by over the join's materialised table."""
    join = plan(r, s, join_algorithm, grouping, filtered).children[0]
    return execute(
        GroupBy(TableScan(execute(join)), "R.A", aggregates, grouping)
    )


def assert_same(fused, reference, grouping):
    if grouping is GroupingAlgorithm.HG:
        fused, reference = fused.sort_by(["R.A"]), reference.sort_by(["R.A"])
    assert fused.equals(reference)


def gathers(operator) -> list:
    """Record every call of the join's gather on ``operator``."""
    join = operator.children[0]
    calls = []
    gather = join.gather

    def spy(matches):
        calls.append(matches.num_rows)
        return gather(matches)

    join.gather = spy
    return calls


SHAPES = (
    "repeated_build_keys",
    "unmatched_build_rows",
    "build_larger_than_matches",
    "empty_build",
    "empty_probe",
)


@pytest.mark.parametrize("aggregates", [AGGREGATES, [count_star("n")]], ids=["all", "count"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("join_algorithm", list(JoinAlgorithm), ids=lambda a: a.name)
@pytest.mark.parametrize("grouping", ORDER_FREE, ids=lambda a: a.name)
def test_build_side_grouping_equals_unfused(shape, join_algorithm, grouping, aggregates):
    """COUNT alone takes the route that gathers no slots."""
    r, s = relations(shape)
    assert_same(
        execute(plan(r, s, join_algorithm, grouping, aggregates=aggregates)),
        unfused(r, s, join_algorithm, grouping, aggregates=aggregates),
        grouping,
    )


@pytest.mark.parametrize("join_algorithm", list(JoinAlgorithm), ids=lambda a: a.name)
@pytest.mark.parametrize("grouping", ORDER_FREE, ids=lambda a: a.name)
def test_filtered_build(join_algorithm, grouping):
    r, s = relations("repeated_build_keys")
    assert_same(
        execute(plan(r, s, join_algorithm, grouping, filtered=True)),
        unfused(r, s, join_algorithm, grouping, filtered=True),
        grouping,
    )


#: how the OG law cases lay out R.A and S.R_ID: the build key sorted and
#: the join output sorted on it; the build key sorted and the output only
#: clustered on it (the probe descends); the build key clustered but
#: descending, so OG declines the route.
OG_LAYOUTS = ("sorted", "clustered", "unsorted_build_key")


def og_relations(shape: str, layout: str) -> tuple[dict, dict]:
    """:func:`relations` with R.A laid out for OG (see ``OG_LAYOUTS``):
    one R.A per R.ID, rising with it (falling for an unsorted build key),
    so that a join output ordered on R.ID is ordered on R.A too."""
    r, s = relations(shape)
    first_of_id = np.searchsorted(r["R.ID"], r["R.ID"])
    r["R.A"] = np.sort(r["R.A"])[first_of_id]
    if layout == "unsorted_build_key":
        r["R.A"] = 2_000 - r["R.A"]
    elif layout == "clustered":
        s["S.R_ID"] = s["S.R_ID"][::-1].copy()
    return r, s


@pytest.mark.parametrize("aggregates", [AGGREGATES, [count_star("n")]], ids=["all", "count"])
@pytest.mark.parametrize("layout", OG_LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("join_algorithm", list(JoinAlgorithm), ids=lambda a: a.name)
def test_og_build_side_equals_unfused(shape, join_algorithm, layout, aggregates):
    """Where the route is taken its groups ascend; OG over the output
    gives that order when the output is sorted on the key (SOJ's always
    is). An unsorted build key declines the route."""
    r, s = og_relations(shape, layout)
    operator = plan(r, s, join_algorithm, GroupingAlgorithm.OG, aggregates=aggregates)
    calls = gathers(operator)
    fused = execute(operator)
    reference = unfused(r, s, join_algorithm, GroupingAlgorithm.OG, aggregates=aggregates)
    if layout == "unsorted_build_key":
        assert len(calls) == (1 if r["R.A"].size else 0)
    elif not calls:
        assert np.all(np.diff(fused["R.A"]) > 0)
    if layout == "clustered":
        fused, reference = fused.sort_by(["R.A"]), reference.sort_by(["R.A"])
    assert fused.equals(reference)


class TestRoute:
    """Which inputs take the build-side route (observed through the
    join's gather, which the route never calls)."""

    def test_taken_when_build_is_smaller(self):
        r, s = relations("repeated_build_keys")
        operator = plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG)
        calls = gathers(operator)
        execute(operator)
        assert calls == []

    def test_not_taken_when_build_is_larger(self):
        r, s = relations("build_larger_than_matches")
        operator = plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG)
        calls = gathers(operator)
        execute(operator)
        assert calls == [20]

    def test_og_taken_when_build_key_sorted(self):
        r, s = og_relations("repeated_build_keys", "sorted")
        operator = plan(r, s, JoinAlgorithm.OJ, GroupingAlgorithm.OG)
        calls = gathers(operator)
        execute(operator)
        assert calls == []

    def test_og_declines_unsorted_build_key(self):
        r, s = og_relations("repeated_build_keys", "unsorted_build_key")
        operator = plan(r, s, JoinAlgorithm.OJ, GroupingAlgorithm.OG)
        calls = gathers(operator)
        execute(operator)
        assert len(calls) == 1

    def test_sphg_over_sparse_build_keys_groups_the_output(self):
        """The build keys nobody matches spread the domain; the matched
        ones alone are dense, so SPHG groups the gathered output."""
        r, s = relations("unmatched_build_rows")
        r["R.A"] = np.where(r["R.ID"] < 25, r["R.A"], 10**9 + r["R.ID"])
        operator = plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.SPHG)
        calls = gathers(operator)
        result = execute(operator)
        assert calls == [200]
        assert result.equals(unfused(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.SPHG))

    @pytest.mark.parametrize("route", list(PARALLEL_ROUTES))
    def test_parallel_grouping_takes_the_build_side(self, configured, route):
        configured(workers=2)
        r, s = relations("repeated_build_keys")
        operator = plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG, **PARALLEL_ROUTES[route])
        calls = gathers(operator)
        execute(operator)
        assert calls == []


def parallel_cases():
    """(grouping, route) for every order-free algorithm on every route."""
    return [
        pytest.param(grouping, route, id=f"{grouping.name}-{route}")
        for grouping in ORDER_FREE
        for route in PARALLEL_ROUTES
    ]


@pytest.mark.parametrize("aggregates", [PARALLEL_AGGREGATES, [count_star("n")]], ids=["all", "count"])
@pytest.mark.parametrize("shape", ["repeated_build_keys", "unmatched_build_rows", "morsels"])
@pytest.mark.parametrize("grouping, route", parallel_cases())
def test_parallel_routes_equal_partitioned_grouping(configured, grouping, route, shape, aggregates):
    """On a parallel route the build-side result is the serial route's,
    bit for bit and in its order: the build side is grouped once,
    serially, whatever the loop mode. Up to key order it is what the
    same group-by over the gathered join output returns, the parts'
    merge (``partitioned_group_by``). Float AVG over range shards adds
    partial sums in another order."""
    configured(workers=2)
    r, s = relations(shape)
    route_options = PARALLEL_ROUTES[route]
    operator = plan(r, s, JoinAlgorithm.HJ, grouping, aggregates=aggregates, **route_options)
    calls = gathers(operator)
    result = execute(operator)
    serial = execute(plan(r, s, JoinAlgorithm.HJ, grouping, aggregates=aggregates))
    gathered = execute(plan(r, s, JoinAlgorithm.HJ, grouping).children[0])
    reference = execute(
        GroupBy(TableScan(gathered), "R.A", aggregates, grouping, **route_options)
    )
    assert calls == []
    assert result.equals(serial)
    result = result.sort_by(["R.A"])
    assert result.schema == reference.schema
    for name in reference.schema.names:
        if name == "avg_f":
            np.testing.assert_allclose(result[name], reference[name], rtol=FLOAT_RTOL)
        else:
            assert np.array_equal(result[name], reference[name]), name


FIG5_QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


def unsorted_sparse(n_r: int, n_s: int):
    """The section 4.3 scenario, both tables unsorted, sparse keys,
    20 000 groups."""
    return make_join_scenario(
        n_r,
        n_s,
        20_000,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.SPARSE,
        seed=1,
    )


class TestFigure5AtTwoWorkers:
    """At two workers and 62 500 x 500 000 rows the unsorted-sparse plan
    is the one-worker plan: its group-by takes the build-side route,
    which groups serially, so no parallel option is planned there."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_order_by_key_plans_as_serial(self, backend):
        scenario = unsorted_sparse(62_500, 500_000)
        catalog = scenario.build_catalog()
        logical = plan_query(FIG5_QUERY + " ORDER BY R.A", catalog)
        plan = optimize_dqo(logical, catalog, workers=2, backend=backend)
        serial = optimize_dqo(logical, catalog, workers=1)
        assert plan.plan_fingerprint == serial.plan_fingerprint
        assert not any("/parallel" in node.label for node in plan.plan.walk())
        with scoped_settings(workers=2, backend=backend):
            table = execute(to_operator(plan.plan, catalog))
        keys, counts = scenario.expected_groups()
        assert np.array_equal(table[table.schema.names[0]], keys)
        assert np.array_equal(table[table.schema.names[1]], counts)

    def test_process_plan_publishes_nothing_and_claims_no_parallel_work(self):
        catalog = unsorted_sparse(62_500, 500_000).build_catalog()
        logical = plan_query(FIG5_QUERY, catalog)
        result = optimize_dqo(logical, catalog, workers=2, backend="process")
        serial = optimize_dqo(logical, catalog, workers=1)
        assert result.plan_fingerprint == serial.plan_fingerprint
        plan = result.plan
        assert not any("/parallel" in node.label for node in plan.walk())
        # Sweep what earlier tests published (the process-backend test
        # leg publishes their inputs), so every segment left is this plan's.
        shutdown_process_pool()
        store = get_shared_store()
        published = [store.stats()["published_bytes"]]
        with scoped_settings(workers=2, backend="process"):
            for _ in range(2):
                execute(to_operator(plan, catalog))
                published.append(store.stats()["published_bytes"])
            analyzed = explain_analyze(to_operator(plan, catalog))
        assert published[2] == published[1] == published[0]
        assert leaked_segments() == []
        for stats in analyzed.root.walk():
            assert stats.parallel_degree == 0 and stats.worker_busy_seconds == 0.0


class TestJoinActuals:
    """EXPLAIN ANALYZE counts a join once per execution, whichever of
    its outputs a parent takes: the matches, the table (which is the
    matches gathered), or the chunks sliced from it."""

    @pytest.mark.parametrize("parent", ["group_by", "none", "filter"])
    def test_rows_and_chunks_counted_once(self, parent):
        r, s = relations("morsels")
        operator = plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG)
        join = operator.children[0]
        if parent == "none":
            operator = join
        elif parent == "filter":
            operator = Filter(join, col("S.B") > -2_000)
        analyzed = explain_analyze(operator)
        stats = next(node for node in analyzed.root.walk() if node.name == "Join")
        assert stats.rows_out == s["S.R_ID"].size
        assert stats.chunks_out == chunk_count(s["S.R_ID"].size)
        assert stats.peak_memory_bytes > 0
        assert stats.cumulative_seconds <= analyzed.root.cumulative_seconds

    @pytest.mark.parametrize("shape", ["morsels", "repeated_build_keys"])
    @pytest.mark.parametrize(
        "algorithm",
        [JoinAlgorithm.HJ, JoinAlgorithm.SPHJ, JoinAlgorithm.BSJ, JoinAlgorithm.OJ],
        ids=lambda a: a.name,
    )
    def test_count_route_reports_the_pairs_it_never_emits(
        self, monkeypatch, algorithm, shape
    ):
        """A COUNT grouped on the build key counts the matches off the
        probe's slots, on every build side kind (hash, direct, sorted);
        the join still reports as many rows as it has pairs, and a
        working set."""
        r, s = relations(shape)
        operator = plan(r, s, algorithm, GroupingAlgorithm.HG, aggregates=[count_star("n")])
        probed = []
        monkeypatch.setattr(Join, "_pairs", lambda *args: probed.append(args))
        analyzed = explain_analyze(operator)
        stats = next(node for node in analyzed.root.walk() if node.name == "Join")
        pairs = join(r["R.ID"], s["S.R_ID"], algorithm).num_rows
        assert probed == [] and stats.rows_out == pairs
        assert stats.chunks_out == chunk_count(pairs)
        assert stats.peak_memory_bytes > 0
        assert analyzed.table["n"].sum() == pairs

    @pytest.mark.parametrize(
        "shape, aggregates, counted",
        [
            ("morsels", AGGREGATES, {"num_matches": 0, "group_counts": 1}),
            (
                "build_larger_than_matches",
                [count_star("n")],
                {"num_matches": 1, "group_counts": 0},
            ),
        ],
        ids=["value_aggregates", "declined_count"],
    )
    def test_the_pairs_are_the_joins_work(self, monkeypatch, shape, aggregates, counted):
        """Where the pairs are built, for value aggregates in the join's
        matches and for a declined COUNT in its gather, their time and
        bytes are the join's, and profiling adds no lookup, pairing or
        count. Value aggregates count their groups off the slots; a
        declined COUNT counts only the join's matches, and no group."""
        r, s = relations(shape)
        calls = {"slots": 0, "pairs": 0, "num_matches": 0, "group_counts": 0}
        for name in calls:
            method = getattr(BuildSide, name)

            def spied(*args, method=method, name=name):
                calls[name] += 1
                time.sleep(0.05 if name == "pairs" else 0)
                return method(*args)

            monkeypatch.setattr(BuildSide, name, spied)
        execute(plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG, aggregates=aggregates))
        unprofiled, calls = calls, {name: 0 for name in calls}
        analyzed = explain_analyze(
            plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG, aggregates=aggregates)
        )
        assert calls == unprofiled == {"slots": 1, "pairs": 1, **counted}
        stats = next(node for node in analyzed.root.walk() if node.name == "Join")
        pairs = join(r["R.ID"], s["S.R_ID"], JoinAlgorithm.HJ)
        assert stats.cumulative_seconds >= 0.05
        assert stats.peak_memory_bytes >= (
            pairs.left_indices.nbytes + pairs.right_indices.nbytes
        )

    @pytest.mark.parametrize(
        "grouping", ORDER_FREE + (GroupingAlgorithm.OG,), ids=lambda a: a.name
    )
    def test_declined_count_reads_no_group_key_memo(self, grouping):
        """A COUNT whose build input has more rows than the join matched
        declines before it reads the key column's memo: the column holds
        no ``encoding`` entry, and no memo read is counted
        but the join's (build side and probe encoding)."""
        r, s = relations("build_larger_than_matches")
        build, probe = Table.from_arrays(r), Table.from_arrays(s)
        operator = GroupBy(
            Join(TableScan(build), TableScan(probe), "R.ID", "S.R_ID"),
            "R.A",
            [count_star("n")],
            grouping,
        )
        with capture_observability() as (metrics, __):
            result = execute(operator)
        assert build.column("R.A").memo == {}
        snapshot = metrics.snapshot()
        reads = snapshot.get("engine.build_memo.hits", 0) + snapshot.get(
            "engine.build_memo.misses", 0
        )
        assert reads == 2
        reference = unfused(
            r, s, JoinAlgorithm.HJ, grouping, aggregates=[count_star("n")]
        )
        assert_same(result, reference, grouping)


class TestEmptyInputs:
    """SPHG over no rows is an empty result, as for every other
    algorithm, on every route."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sphg_over_empty_scan(self, workers):
        table = Table.from_arrays({"k": np.empty(0, dtype=np.int64)})
        result = execute(
            GroupBy(TableScan(table), "k", [count_star("c")], GroupingAlgorithm.SPHG,
                    parallel=True),
            workers=workers,
        )
        assert result.num_rows == 0

    def test_sphg_over_join_nobody_matches(self):
        r, s = relations("repeated_build_keys")
        s["S.R_ID"] = s["S.R_ID"] + 1_000
        result = execute(plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.SPHG))
        assert result.num_rows == 0


# --------------------------------------------------------------------------
# OJ: one lookup per probe run, the per-row search's pairs


def per_row_pairs(build: np.ndarray, probe: np.ndarray) -> tuple[list, list]:
    """OJ's pairs as a per-row search finds them: probe-major, build rows
    ascending within one probe row."""
    left, right = [], []
    for j, key in enumerate(probe.tolist()):
        start = int(np.searchsorted(build, key, "left"))
        stop = int(np.searchsorted(build, key, "right"))
        left += range(start, stop)
        right += [j] * (stop - start)
    return left, right


def assert_oj_pairs(build, probe):
    build = np.sort(np.asarray(build, dtype=np.int64))
    probe = np.asarray(probe, dtype=np.int64)
    expected_left, expected_right = per_row_pairs(build, probe)
    if build.size == 0 or probe.size == 0:
        return
    oj = build_side(build, JoinAlgorithm.OJ)
    # Encoded here, or the probe column's encoding (memoised on it).
    for left, right in (
        oj.probe(probe),
        oj.probe_encoded(dictionary_encode(probe)),
    ):
        assert left.dtype == right.dtype == np.int64
        assert left.tolist() == expected_left
        assert right.tolist() == expected_right


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=40),
    st.lists(st.integers(-25, 25), min_size=1, max_size=80),
    st.booleans(),
)
def test_oj_pairs_match_per_row_search(build, probe, sort_probe):
    assert_oj_pairs(build, sorted(probe) if sort_probe else probe)


@pytest.mark.parametrize("build", [[3, 3, 3], [1, 2, 3, 4, 5], [0, 2, 2, 7]])
@pytest.mark.parametrize(
    "probe",
    [[3] * 9, list(range(-2, 9)), [7, 2, 3, 2, 0, 7, 7], [5, 4, 3, 2, 1, 0]],
    ids=["all_equal", "all_distinct", "unsorted", "descending"],
)
def test_oj_pairs_edge_probes(build, probe):
    assert_oj_pairs(build, probe)
