"""Laws of the build memo: a hit is indistinguishable from a fresh build.

A join's build side and a key column's one ``encoding`` are memoised on
the base column they are erected over. The encoding is the column's
dictionary: the five grouping algorithms take their build-side groups
from it, HJ, SPHJ, BSJ and OJ look each distinct value of their probe up
once through it, and a dictionary view's artifact holds it. Each key
column gets one, whichever of these reads it first. That ``lookup``
(the build-side slot of each distinct value) is memoised on the probe
column too, keyed on the build side it was computed against, once that
build side stands on its column. A join
builds on one route, the serial kernel, whatever the worker count, and
an active query context does not change it; ungoverned or governed, it
must return, on its first and on every later execution, exactly what the
memo-free kernel returns: the same index pairs in the same order, the
same result table in the same row order (HG's included). What must never
be memoised (a build that raises or is cut short, an intermediate input,
a fresh table over the same arrays) is checked by looking at the memo.
"""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.avs import ViewKind, materialize_view
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import (
    Filter,
    GroupBy,
    Limit,
    GroupingAlgorithm,
    Join,
    JoinAlgorithm,
    TableScan,
    col,
    count_star,
    execute,
)
from repro.engine.aggregates import sum_of
from repro.engine.kernels.joins import BuildSide, join
from repro.engine.operators import joins as join_operators
from repro.engine.operators.base import memoised
from repro.engine.procpool import leaked_segments
from repro.errors import DeadlineExceeded, PreconditionError
from repro.obs.runtime import capture_observability
from repro.service.context import QueryContext, activate_context, check_active_context
from repro.service.session import QueryService, ServiceConfig
from repro.settings import scoped_settings
from repro.storage import Catalog, ForeignKey, Table
from repro.storage.dictionary import DictionaryEncoded, code_dtype, dictionary_encode

pytestmark = pytest.mark.usefixtures("fork_pool")

MEMOISED_JOINS = (JoinAlgorithm.HJ, JoinAlgorithm.SPHJ, JoinAlgorithm.BSJ, JoinAlgorithm.OJ)
BUILD_SIDE_GROUPING = (
    GroupingAlgorithm.HG,
    GroupingAlgorithm.SPHG,
    GroupingAlgorithm.OG,
    GroupingAlgorithm.SOG,
    GroupingAlgorithm.BSG,
)
#: (hits, misses) of two runs of one join over the same tables.
EXPECTED_MEMO_COUNTS = {
    JoinAlgorithm.HJ: (1, 4),
    JoinAlgorithm.SPHJ: (1, 4),
    JoinAlgorithm.BSJ: (1, 4),
    JoinAlgorithm.OJ: (2, 3),
}
#: the join's one route, run without and with an active query context.
ROUTES = ("serial", "governed")
HINT = 1_250
QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


def arrays(repeated: bool = False, seed: int = 3) -> tuple[dict, dict]:
    """R (ID sorted and dense; distinct, or each repeated) and S (R_ID
    sorted, 70 000 rows), so every memoised algorithm applies."""
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(2_500), 2) if repeated else np.arange(5_000)
    probe = np.sort(rng.integers(0, ids.max() + 1, 70_000))
    r = {"ID": ids.astype(np.int64), "A": (ids // 4 + 100).astype(np.int64)}
    s = {"R_ID": probe.astype(np.int64), "B": rng.integers(-9, 9, probe.size)}
    return r, s


def join_operator(r: Table, s: Table, algorithm, **options) -> Join:
    return Join(
        TableScan(r.qualified("R")),
        TableScan(s.qualified("S")),
        "R.ID",
        "S.R_ID",
        algorithm,
        **options,
    )


def on_route(route: str, run):
    """``run()`` at one worker, ungoverned (``"serial"``) or under a
    query context (``"governed"``), or at two ``"process"`` workers."""
    if route in ("serial", "governed"):
        with scoped_settings(workers=1):
            if route == "serial":
                return run()
            with activate_context(QueryContext.start()):
                return run()
    with scoped_settings(workers=2, backend=route):
        return run()


def memo_counts(metrics) -> tuple[int, int]:
    snapshot = metrics.snapshot()
    return (
        snapshot.get("engine.build_memo.hits", 0),
        snapshot.get("engine.build_memo.misses", 0),
    )


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", MEMOISED_JOINS, ids=lambda a: a.name)
def test_join_hit_equals_fresh_build(algorithm, route, repeated):
    r_data, s_data = arrays(repeated)
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    fresh = join(r_data["ID"], s_data["R_ID"], algorithm)
    expected = Table.from_arrays(
        {
            "R.ID": r_data["ID"][fresh.left_indices],
            "R.A": r_data["A"][fresh.left_indices],
            "S.R_ID": s_data["R_ID"][fresh.right_indices],
            "S.B": s_data["B"][fresh.right_indices],
        }
    )

    def run():
        operator = join_operator(r, s, algorithm)
        matches = operator.matches()
        return matches.pairs, operator.gather(matches)

    with capture_observability() as (metrics, __):
        runs = [on_route(route, run) for _ in range(2)]
    # Each run reads the build side and the probe column's encoding, and
    # a run that finds an encoding and a standing build side reads the
    # probe's lookup through them. OJ builds both on the first run and
    # reads them on the second, when its lookup misses; HJ, SPHJ and BSJ
    # only record the probe on the first run, and build the encoding and
    # the lookup on the second.
    assert memo_counts(metrics) == EXPECTED_MEMO_COUNTS[algorithm]
    __, build = r.column("ID").memo["build_side"]
    shared = [value for value in vars(build).values() if isinstance(value, np.ndarray)]
    assert shared and not any(array.flags.writeable for array in shared)
    for pairs, table in runs:
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
        assert pairs.structure_bytes == fresh.structure_bytes
        assert table.equals(expected)


@pytest.mark.parametrize("layout", ["sorted", "unsorted"])
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", MEMOISED_JOINS, ids=lambda a: a.name)
def test_lookup_hit_equals_memo_free_join(algorithm, route, repeated, layout):
    """Three runs: the last reads the probe column's memoised lookup
    (each run or distinct value's build-side slot) and returns the
    memo-free kernel's pairs, in its order, and its matches per group
    of R.A, counted off the same slots, with the kernel's match total."""
    r_data, s_data = arrays(repeated)
    if layout == "unsorted":
        order = np.random.default_rng(43).permutation(s_data["R_ID"].size)
        s_data = {name: values[order] for name, values in s_data.items()}
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    fresh = join(r_data["ID"], s_data["R_ID"], algorithm)
    groups = dictionary_encode(r_data["A"])
    num_groups = groups.dictionary.size
    fresh_counts = np.bincount(groups.codes[fresh.left_indices], minlength=num_groups)

    def run():
        return join_operator(r, s, algorithm).matches()

    for _ in range(2):
        on_route(route, run)
    with capture_observability() as (metrics, __):
        matches = on_route(route, run)
    if algorithm is JoinAlgorithm.OJ and layout == "unsorted":
        # OJ never encodes an unsorted probe, so there is no lookup.
        assert memo_counts(metrics) == (1, 1)
        assert "lookup" not in s.column("R_ID").memo
    else:
        assert memo_counts(metrics) == (3, 0)
        (build_ref,), slots = s.column("R_ID").memo["lookup"]
        assert build_ref() is matches.build
        assert matches.slots is slots and not slots.flags.writeable
        assert slots.nbytes <= 8 * matches.encoded.dictionary.size
    assert np.array_equal(matches.pairs.left_indices, fresh.left_indices)
    assert np.array_equal(matches.pairs.right_indices, fresh.right_indices)
    counts, total = matches.build.group_counts(
        matches.slots, matches.encoded, groups.codes, num_groups
    )
    assert np.array_equal(counts, fresh_counts) and counts.dtype == np.int64
    assert total == matches.num_rows == fresh.num_rows
    counted = on_route(route, lambda: join_operator(r, s, algorithm).matches(pairs=False))
    assert counted.pairs is None and np.array_equal(counted.slots, matches.slots)
    assert counted.num_rows == fresh.num_rows


@pytest.mark.parametrize("route", ROUTES)
def test_lookup_is_not_read_against_a_replaced_build_side(route):
    """HJ warms S.R_ID's lookup; BSJ then replaces R.ID's build side
    twice, and HJ replaces it back twice. A build side read for the
    first time is not standing: its lookup is computed and not stored.
    The next run stores it, replacing the entry keyed on the build side
    it replaced; every run returns the memo-free kernel's pairs."""
    r_data, s_data = arrays(seed=9)
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    lookups = []
    hj, bsj = JoinAlgorithm.HJ, JoinAlgorithm.BSJ
    for algorithm in (hj, hj, hj, bsj, bsj, hj, hj):
        fresh = join(r_data["ID"], s_data["R_ID"], algorithm)
        with capture_observability() as (metrics, __):
            pairs = on_route(
                route, lambda: join_operator(r, s, algorithm).matches().pairs
            )
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
        lookups.append((memo_counts(metrics), s.column("R_ID").memo.get("lookup")))
    # Build side, encoding and lookup per run: HJ records the probe,
    # then builds the encoding and the lookup, then hits all three; BSJ
    # and HJ each erect a new build side, whose lookup is not read on
    # that run and misses on the next.
    assert [counts for counts, __ in lookups] == [
        (0, 2), (1, 2), (3, 0), (1, 1), (2, 1), (1, 1), (2, 1)
    ]
    __, built, hit, first_bsj, bsj_entry, first_hj, hj_entry = (
        entry for __, entry in lookups
    )
    assert hit is built and first_bsj is built and first_hj is bsj_entry
    assert bsj_entry is not built and hj_entry is not bsj_entry
    __, build = r.column("ID").memo["build_side"]
    __, encoded = s.column("R_ID").memo["encoding"]
    (build_ref,), slots = hj_entry
    assert build_ref() is build
    assert np.array_equal(slots, build.slots(encoded.dictionary))


@pytest.mark.parametrize("algorithm", MEMOISED_JOINS, ids=lambda a: a.name)
def test_filtered_build_keeps_the_base_lookup(algorithm):
    """A join whose build input is filtered, between two warm joins of
    the base columns: its build side is a fresh column's, so it stores
    no lookup, and the base join's lookup stays a hit."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    kept = r_data["A"] > 400
    fresh = join(r_data["ID"][kept], s_data["R_ID"], algorithm)
    for _ in range(3):
        execute(join_operator(r, s, algorithm), workers=1)
    entry = s.column("R_ID").memo["lookup"]
    filtered = Join(
        Filter(TableScan(r.qualified("R")), col("R.A") > 400),
        TableScan(s.qualified("S")),
        "R.ID",
        "S.R_ID",
        algorithm,
    )
    with scoped_settings(workers=1):
        pairs = filtered.matches().pairs
    assert np.array_equal(pairs.left_indices, fresh.left_indices)
    assert np.array_equal(pairs.right_indices, fresh.right_indices)
    assert s.column("R_ID").memo["lookup"] is entry
    with capture_observability() as (metrics, __):
        execute(join_operator(r, s, algorithm), workers=1)
    # Build side, encoding and lookup all hit.
    assert memo_counts(metrics) == (3, 0)


@pytest.mark.parametrize("grouping", BUILD_SIDE_GROUPING, ids=lambda a: a.name)
def test_grouping_hit_equals_fresh_build(grouping):
    """Hints A -> B -> A: every algorithm reads the one encoding whatever
    the hint; each run equals a group-by over tables nothing was
    memoised on, HG's row order included."""
    r_data, s_data = arrays(seed=5)
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)

    def grouped(r, s, hint):
        join = join_operator(r, s, JoinAlgorithm.HJ)
        return execute(
            GroupBy(
                join,
                "R.A",
                [count_star("n"), sum_of("S.B", "b")],
                grouping,
                num_distinct_hint=hint,
            ),
            workers=1,
        )

    hints = (1_250, 4_000, 1_250)
    fresh = [
        grouped(Table.from_arrays(r_data), Table.from_arrays(s_data), hint)
        for hint in hints
    ]
    with capture_observability() as (metrics, __):
        for hint, expected_table in zip(hints, fresh):
            assert grouped(r, s, hint).equals(expected_table)
            key, encoded = r.column("A").memo["encoding"]
            assert key == () and set(r.column("A").memo) == {"encoding"}
            expected = dictionary_encode(r_data["A"])
            assert np.array_equal(encoded.codes, expected.codes)
            assert encoded.codes.dtype == expected.codes.dtype
            assert np.array_equal(encoded.dictionary, expected.dictionary)
            assert np.array_equal(encoded.counts, expected.counts)
            assert encoded.counts.dtype == expected.counts.dtype
    # Per run, R.ID's build side, S.R_ID's encoding and R.A's encoding
    # are each read once: the build side misses on the first run only,
    # S.R_ID on the first two and R.A on the first only. S.R_ID's lookup
    # is read once there is an encoding to read it through: a miss on
    # the second run, a hit on the third.
    assert memo_counts(metrics) == (6, 5)


@pytest.mark.usefixtures("memory_storage")
def test_reregistered_table_returns_new_answer():
    catalog = Catalog()
    r_data, s_data = arrays()
    catalog.register("R", Table.from_arrays(r_data))
    catalog.register("S", Table.from_arrays(s_data))
    catalog.add_foreign_key(ForeignKey("S", "R_ID", "R", "ID"))
    service = QueryService(catalog, ServiceConfig())
    probe = catalog.table("S").column("R_ID")
    try:
        old = service.execute(QUERY).table
        for _ in range(2):
            assert service.execute(QUERY).table.equals(old)
        (old_build,), old_slots = probe.memo["lookup"]
        assert old_build() is catalog.table("R").column("ID").memo["build_side"][1]
        new_r = {"ID": r_data["ID"], "A": r_data["ID"] % 7}
        catalog.register("R", Table.from_arrays(new_r), replace=True)
        new = service.execute(QUERY).table
        # The new R.ID's build side is not standing yet: S.R_ID's lookup
        # is computed against it but not stored, and the old entry is
        # never read against it.
        assert probe.memo["lookup"][1] is old_slots
        assert service.execute(QUERY).table.equals(new)
    finally:
        service.shutdown()
    # S.R_ID's lookup was computed again, against the new R.ID.
    (new_build,), new_slots = probe.memo["lookup"]
    assert new_slots is not old_slots
    assert new_build() is catalog.table("R").column("ID").memo["build_side"][1]
    counts = np.bincount(new_r["A"][s_data["R_ID"]], minlength=7)
    assert sorted(zip(*(new[name].tolist() for name in new.schema.names))) == [
        (key, int(count)) for key, count in enumerate(counts) if count
    ]


def test_sparse_sphj_raises_every_time_and_memoises_nothing():
    r_data, s_data = arrays()
    r_data["ID"] = r_data["ID"] * 1_000
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            execute(join_operator(r, s, JoinAlgorithm.SPHJ), workers=1)
    assert r.column("ID").memo == {}


def test_deadline_inside_the_build_leaves_no_entry(monkeypatch):
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    real_build = join_operators.build_side
    calls = []

    def slow_build(*args, **kwargs):
        calls.append(1)
        built = real_build(*args, **kwargs)
        time.sleep(0.3)
        check_active_context()
        return built

    monkeypatch.setattr(join_operators, "build_side", slow_build)
    with pytest.raises(DeadlineExceeded):
        execute(
            join_operator(r, s, JoinAlgorithm.HJ),
            workers=1,
            context=QueryContext.start(deadline=0.2),
        )
    assert calls and r.column("ID").memo == {}


def test_validated_oj_checks_the_probe_on_every_execution():
    r_data, s_data = arrays()
    s_data["R_ID"] = s_data["R_ID"][::-1].copy()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="right is unsorted"):
            execute(
                join_operator(r, s, JoinAlgorithm.OJ, validate=True),
                workers=1,
            )


def test_filtered_build_writes_nothing_on_the_base_column():
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    build = Filter(TableScan(r.qualified("R")), col("R.A") > 150)
    operator = Join(build, TableScan(s.qualified("S")), "R.ID", "S.R_ID")
    execute(GroupBy(operator, "R.A", [count_star("n")]), workers=1)
    assert r.column("ID").memo == {} and r.column("A").memo == {}


def test_fresh_tables_over_the_same_arrays_never_hit():
    r_data, s_data = arrays()
    with capture_observability() as (metrics, __):
        results = [
            execute(
                join_operator(
                    Table.from_arrays(r_data),
                    Table.from_arrays(s_data),
                    JoinAlgorithm.HJ,
                ),
                workers=1,
            )
            for _ in range(3)
        ]
    # Each run misses the build side and records a first probe.
    assert memo_counts(metrics) == (0, 6)
    assert all(result.equals(results[0]) for result in results)


def test_threads_racing_on_the_first_query_agree():
    """More threads than cores start the same first query together, with
    a short switch interval; however their builds and memo writes
    interleave, every result equals a fresh build."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)

    def grouped(r, s):
        return execute(
            GroupBy(
                join_operator(r, s, JoinAlgorithm.HJ),
                "R.A",
                [count_star("n")],
                GroupingAlgorithm.HG,
                num_distinct_hint=HINT,
            ),
            workers=1,
        )

    fresh = grouped(Table.from_arrays(r_data), Table.from_arrays(s_data))
    barrier = threading.Barrier(4)
    results = []

    def run():
        barrier.wait()
        for _ in range(3):
            results.append(grouped(r, s))

    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 12 and all(result.equals(fresh) for result in results)
    # However the probe's first touches and builds interleave, the entry
    # left is the column's dictionary.
    __, encoded = s.column("R_ID").memo["encoding"]
    expected = dictionary_encode(s_data["R_ID"])
    assert np.array_equal(encoded.dictionary, expected.dictionary)
    assert np.array_equal(encoded.codes, expected.codes)


@pytest.mark.usefixtures("memory_storage")
@pytest.mark.parametrize("route", ["serial", "process"])
def test_unregister_frees_the_memoised_structure(route):
    catalog = Catalog()
    r_data, s_data = arrays()
    catalog.register("R", Table.from_arrays(r_data))
    catalog.register("S", Table.from_arrays(s_data))
    on_route(
        route,
        lambda: execute(
            join_operator(catalog.table("R"), catalog.table("S"), JoinAlgorithm.HJ)
        ),
    )
    __, build = catalog.table("R").column("ID").memo["build_side"]
    structure = weakref.ref(build.bucket_keys)
    del build
    catalog.unregister("R")
    catalog.unregister("S")
    gc.collect()
    assert structure() is None
    assert leaked_segments() == []


# --------------------------------------------------------------------------
# The dictionary OJ probes a sorted column through, read off its runs and
# memoised on it


def oj_probe(kind: str) -> np.ndarray:
    """An S.R_ID column of 70 000 rows over R.ID 0..4 999."""
    rng = np.random.default_rng(11)
    n = 70_000
    if kind == "sorted":
        return np.sort(rng.integers(0, 5_000, n))
    if kind == "unsorted":
        return rng.integers(0, 5_000, n)
    if kind == "all_equal":
        return np.full(n, 1_234)
    return np.arange(n) - 100  # all distinct, some below every build key


@pytest.mark.parametrize("kind", ["sorted", "unsorted", "all_equal", "all_distinct"])
def test_oj_runs_hit_equals_memo_free_kernel(kind):
    """OJ builds a sorted probe column's dictionary on its first probe
    and reads it after. It never sorts: an unsorted probe (OJ does not
    validate by default) and one with more runs than half its rows are
    encoded afresh on every probe, and nothing is stored. The pairs are
    the per-row search's either way."""
    r_data, s_data = arrays()
    s_data = {"R_ID": oj_probe(kind), "B": np.zeros(oj_probe(kind).size, dtype=np.int64)}
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    fresh = join(r_data["ID"], s_data["R_ID"], JoinAlgorithm.OJ)
    with capture_observability() as (metrics, __):
        pairs = [
            join_operator(r, s, JoinAlgorithm.OJ).matches().pairs
            for _ in range(2)
        ]
    memoised_runs = kind in ("sorted", "all_equal")
    # Build side and encoding: a miss each on the first run, a hit each
    # on the second. With a dictionary to read it through, the lookup is
    # read once the build side stands: a miss on the second run.
    assert memo_counts(metrics) == ((2, 3) if memoised_runs else (1, 3))
    if memoised_runs:
        key, encoded = s.column("R_ID").memo["encoding"]
        expected = dictionary_encode(s_data["R_ID"])
        assert key == ()
        assert np.array_equal(encoded.dictionary, expected.dictionary)
        assert np.array_equal(encoded.codes, expected.codes)
        assert np.array_equal(encoded.counts, expected.counts)
        assert encoded.counts.dtype == code_dtype(int(expected.counts.max()) + 1)
        assert not any(array.flags.writeable for array in vars(encoded).values())
    else:
        assert "encoding" not in s.column("R_ID").memo
    for result in pairs:
        assert np.array_equal(result.left_indices, fresh.left_indices)
        assert np.array_equal(result.right_indices, fresh.right_indices)


@pytest.mark.parametrize("narrowed", ["filtered", "sliced"])
def test_narrowed_probe_never_hits(narrowed):
    """A filtered or sliced probe is a new column on every execution: it
    is encoded afresh and leaves the base column's entry alone."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    execute(join_operator(r, s, JoinAlgorithm.OJ), workers=1)
    base_entry = s.column("R_ID").memo["encoding"]
    probe = TableScan(s.qualified("S"))
    if narrowed == "filtered":
        probe = Filter(probe, col("S.B") > 0)
        rows = s_data["B"] > 0
    else:
        probe = Limit(probe, 10_000)
        rows = np.arange(s_data["R_ID"].size) < 10_000
    fresh = join(r_data["ID"], s_data["R_ID"][rows], JoinAlgorithm.OJ)
    with capture_observability() as (metrics, __):
        for _ in range(2):
            operator = Join(
                TableScan(r.qualified("R")), probe, "R.ID", "S.R_ID", JoinAlgorithm.OJ
            )
            with scoped_settings(workers=1):
                pairs = operator.matches().pairs
            assert np.array_equal(pairs.left_indices, fresh.left_indices)
            assert np.array_equal(pairs.right_indices, fresh.right_indices)
    # Both hits are the build side's. Each run's probe column is new:
    # its encoding and its lookup through it miss, and die with it.
    assert memo_counts(metrics) == (2, 4)
    assert s.column("R_ID").memo["encoding"] is base_entry


@pytest.mark.usefixtures("memory_storage")
def test_unregister_frees_the_probe_runs():
    catalog = Catalog()
    r_data, s_data = arrays()
    catalog.register("R", Table.from_arrays(r_data))
    catalog.register("S", Table.from_arrays(s_data))
    execute(
        join_operator(catalog.table("R"), catalog.table("S"), JoinAlgorithm.OJ),
        workers=1,
    )
    __, encoded = catalog.table("S").column("R_ID").memo["encoding"]
    assert isinstance(encoded, DictionaryEncoded)
    structures = [weakref.ref(array) for array in vars(encoded).values()]
    del encoded
    catalog.unregister("R")
    catalog.unregister("S")
    gc.collect()
    assert all(structure() is None for structure in structures)


# --------------------------------------------------------------------------
# The dictionary HJ and BSJ look an unsorted probe up by, memoised on the
# probe column from its second probe on

DICTIONARY_JOINS = (JoinAlgorithm.HJ, JoinAlgorithm.BSJ)


def dictionary_arrays(repeated: bool, misses: bool) -> tuple[dict, dict]:
    """R (ID sparse; distinct, or each repeated) and an unsorted S whose
    R_ID has at most half as many distinct values as rows, so its
    dictionary is admitted. With ``misses``, every tenth probe row
    matches no build row."""
    rng = np.random.default_rng(17)
    keys = np.arange(80_000, dtype=np.int64) * 3
    ids = np.repeat(keys, 2) if repeated else keys
    probe = rng.choice(keys, 180_000)
    if misses:
        probe[::10] += 1
    distinct = np.unique(probe).size
    assert distinct * 2 <= probe.size
    r = {"ID": ids, "A": ids % 97}
    s = {"R_ID": probe, "B": rng.integers(-9, 9, probe.size)}
    return r, s


@pytest.fixture
def encodings(monkeypatch) -> list:
    """The row count of every probe column the join operator encodes."""
    calls = []

    def spy(values):
        calls.append(values.size)
        return dictionary_encode(values)

    monkeypatch.setattr(join_operators, "dictionary_encode", spy)
    return calls


def memo_entry(table: Table, name: str, kind: str = "encoding"):
    entry = table.column(name).memo.get(kind)
    return None if entry is None else entry[1]


@pytest.mark.parametrize("misses", [False, True], ids=["all_hit", "some_miss"])
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("algorithm", DICTIONARY_JOINS, ids=lambda a: a.name)
def test_dictionary_probe_equals_memo_free_kernel(
    algorithm, route, repeated, misses, encodings
):
    """The first execution records the probe, the second builds the
    dictionary, the third reads it; each returns the memo-free kernel's
    pairs in its order."""
    r_data, s_data = dictionary_arrays(repeated, misses)
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    fresh = join(r_data["ID"], s_data["R_ID"], algorithm)
    entries = []
    for _ in range(3):
        pairs = on_route(
            route, lambda: join_operator(r, s, algorithm).matches().pairs
        )
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
        assert pairs.structure_bytes == fresh.structure_bytes
        entries.append(memo_entry(s, "R_ID"))
    first, built, read = entries
    assert encodings == [s_data["R_ID"].size]
    assert not isinstance(first, DictionaryEncoded)
    assert isinstance(built, DictionaryEncoded) and read is built
    expected = dictionary_encode(s_data["R_ID"])
    assert np.array_equal(built.dictionary, expected.dictionary)
    assert np.array_equal(built.codes, expected.codes)
    assert built.codes.dtype == code_dtype(expected.cardinality)
    assert not built.codes.flags.writeable and not built.dictionary.flags.writeable


@pytest.mark.parametrize("narrowed", ["filtered", "sliced"])
@pytest.mark.parametrize("algorithm", DICTIONARY_JOINS, ids=lambda a: a.name)
def test_narrowed_probe_never_builds_a_dictionary(algorithm, narrowed, encodings):
    """A filtered or sliced probe is a new column on every execution: it
    is probed once, so it is never encoded."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    probe = TableScan(s.qualified("S"))
    if narrowed == "filtered":
        probe = Filter(probe, col("S.B") > 0)
        rows = s_data["B"] > 0
    else:
        probe = Limit(probe, 30_000)
        rows = np.arange(s_data["R_ID"].size) < 30_000
    fresh = join(r_data["ID"], s_data["R_ID"][rows], algorithm)
    for _ in range(3):
        operator = Join(TableScan(r.qualified("R")), probe, "R.ID", "S.R_ID", algorithm)
        with scoped_settings(workers=1):
            pairs = operator.matches().pairs
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
    assert encodings == []
    assert "encoding" not in s.column("R_ID").memo


@pytest.mark.parametrize("algorithm", DICTIONARY_JOINS, ids=lambda a: a.name)
def test_many_distinct_probe_keys_are_declined_unsorted(algorithm, encodings):
    """A probe column with more than half as many distinct values as rows
    is declined from its second probe on, off its statistics and before
    anything sorts it; nothing is stored, and every execution probes
    row by row."""
    r_data, __ = arrays()
    probe = np.random.default_rng(13).permutation(5_000)[:3_000].repeat(2)[:5_999]
    r = Table.from_arrays(r_data)
    s = Table.from_arrays({"R_ID": probe, "B": np.zeros(probe.size, dtype=np.int64)})
    assert s.column("R_ID").statistics.distinct * 2 > len(probe)
    fresh = join(r_data["ID"], probe, algorithm)
    with capture_observability() as (metrics, __):
        for _ in range(3):
            pairs = join_operator(r, s, algorithm).matches().pairs
            assert np.array_equal(pairs.left_indices, fresh.left_indices)
            assert np.array_equal(pairs.right_indices, fresh.right_indices)
            assert not isinstance(memo_entry(s, "R_ID"), DictionaryEncoded)
    assert encodings == []
    # Build side: miss, hit, hit. Encoding: first touch, then declined
    # on each later read.
    assert memo_counts(metrics) == (2, 4)


@pytest.mark.usefixtures("memory_storage")
@pytest.mark.parametrize("route", ["serial", "process"])
def test_unregister_frees_the_probe_dictionary(route):
    catalog = Catalog()
    r_data, s_data = dictionary_arrays(repeated=False, misses=False)
    catalog.register("R", Table.from_arrays(r_data))
    catalog.register("S", Table.from_arrays(s_data))
    for _ in range(2):
        on_route(
            route,
            lambda: execute(
                join_operator(catalog.table("R"), catalog.table("S"), JoinAlgorithm.HJ)
            ),
        )
    dictionary = memo_entry(catalog.table("S"), "R_ID")
    assert isinstance(dictionary, DictionaryEncoded)
    arrays_ = (dictionary.codes, dictionary.dictionary)
    assert not any(array.flags.writeable for array in arrays_)
    structures = [weakref.ref(array) for array in arrays_]
    del dictionary, arrays_
    catalog.unregister("R")
    catalog.unregister("S")
    gc.collect()
    assert all(structure() is None for structure in structures)
    assert leaked_segments() == []


# --------------------------------------------------------------------------
# One encoding per key column, whichever reader builds it


def builds_of(column_entries: list) -> int:
    """Distinct encodings among a column's entries read after each run:
    a rebuild replaces the entry with a new object."""
    return len(
        {id(entry) for entry in column_entries if isinstance(entry, DictionaryEncoded)}
    )


def grouping_sequence_arrays(layout: str) -> tuple[dict, dict]:
    """:func:`arrays` with R.A dense: sorted with R.ID, or with R's rows
    shuffled."""
    r_data, s_data = arrays(seed=7)
    if layout == "unsorted":
        order = np.random.default_rng(7).permutation(r_data["ID"].size)
        r_data = {name: values[order] for name, values in r_data.items()}
    return r_data, s_data


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("layout", ["unsorted", "sorted"])
def test_one_encoding_build_per_grouping_key(layout, route):
    """SOG, then BSG, then SPHG over a dense unsorted R.A or OG over a
    sorted one, then one algorithm under a second hint: R.A is encoded
    once, and every result equals a group-by over tables nothing was
    memoised on."""
    r_data, s_data = grouping_sequence_arrays(layout)
    last = GroupingAlgorithm.OG if layout == "sorted" else GroupingAlgorithm.SPHG
    steps = [
        (GroupingAlgorithm.SOG, HINT),
        (GroupingAlgorithm.BSG, HINT),
        (last, HINT),
        (last, 4_000),
    ]
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)

    def grouped(r, s, grouping, hint):
        operator = GroupBy(
            join_operator(r, s, JoinAlgorithm.HJ),
            "R.A",
            [count_star("n"), sum_of("S.B", "b")],
            grouping,
            num_distinct_hint=hint,
        )
        return on_route(route, lambda: execute(operator))

    entries = []
    for grouping, hint in steps:
        fresh_r, fresh_s = Table.from_arrays(r_data), Table.from_arrays(s_data)
        fresh = grouped(fresh_r, fresh_s, grouping, hint)
        assert grouped(r, s, grouping, hint).equals(fresh)
        entries.append(memo_entry(r, "A"))
    assert builds_of(entries) == 1 and set(r.column("A").memo) == {"encoding"}
    expected = dictionary_encode(r_data["A"])
    assert np.array_equal(entries[-1].codes, expected.codes)
    assert entries[-1].codes.dtype == expected.codes.dtype
    assert np.array_equal(entries[-1].dictionary, expected.dictionary)


@pytest.mark.parametrize("route", ROUTES)
def test_one_encoding_build_per_sorted_probe(route):
    """OJ, then HJ, then BSJ over a sorted S.R_ID: OJ builds its
    dictionary on the first probe and the others read it, each returning
    the memo-free kernel's pairs."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    entries = []
    for algorithm in (JoinAlgorithm.OJ, JoinAlgorithm.HJ, JoinAlgorithm.BSJ):
        fresh = join(r_data["ID"], s_data["R_ID"], algorithm)
        pairs = on_route(route, lambda: join_operator(r, s, algorithm).matches().pairs)
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
        entries.append(memo_entry(s, "R_ID"))
    assert builds_of(entries) == 1
    assert isinstance(entries[0], DictionaryEncoded) and entries[-1] is entries[0]


def probe_column(kind: str) -> np.ndarray:
    """A probe key column of 60 000 rows over R.ID 0..4 999 (sorted or
    not, few distinct values), or one whose entry must be declined: a
    sorted unique key, and 55 % of the rows distinct."""
    rng = np.random.default_rng(23)
    if kind == "sorted_unique":
        return np.arange(60_000)
    if kind == "distinct_55":
        keys = rng.permutation(60_000)[:33_000]
        return rng.permutation(np.concatenate([keys, keys[:27_000]]))
    values = rng.integers(0, 5_000, 60_000)
    return np.sort(values) if kind == "sorted" else values


@pytest.mark.parametrize("kind", ["sorted", "unsorted", "sorted_unique", "distinct_55"])
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "algorithm", [JoinAlgorithm.OJ, *DICTIONARY_JOINS], ids=lambda a: a.name
)
def test_probe_encoding_laws(algorithm, route, kind):
    """Over three executions: each equals the memo-free kernel; OJ builds
    on the first probe, HJ and BSJ on the second; the entry is read-only,
    in the narrowest types, and never larger than the int64 column; a
    column with more than half its rows distinct is never encoded."""
    r_data, __ = arrays()
    probe = probe_column(kind)
    r = Table.from_arrays(r_data)
    s = Table.from_arrays({"R_ID": probe, "B": np.zeros(probe.size, dtype=np.int64)})
    fresh = join(r_data["ID"], probe, algorithm)
    entries = []
    for _ in range(3):
        pairs = on_route(route, lambda: join_operator(r, s, algorithm).matches().pairs)
        assert np.array_equal(pairs.left_indices, fresh.left_indices)
        assert np.array_equal(pairs.right_indices, fresh.right_indices)
        entries.append(memo_entry(s, "R_ID"))
    declined = kind in ("sorted_unique", "distinct_55") or (
        kind == "unsorted" and algorithm is JoinAlgorithm.OJ
    )
    if declined:
        assert not any(isinstance(entry, DictionaryEncoded) for entry in entries)
        return
    first_built = 0 if algorithm is JoinAlgorithm.OJ else 1
    assert not any(
        isinstance(entry, DictionaryEncoded) for entry in entries[:first_built]
    )
    encoded = entries[first_built]
    assert all(entry is encoded for entry in entries[first_built:])
    expected = dictionary_encode(probe)
    assert isinstance(encoded, DictionaryEncoded)
    assert np.array_equal(encoded.dictionary, expected.dictionary)
    assert np.array_equal(encoded.codes, expected.codes)
    assert np.array_equal(encoded.counts, expected.counts)
    narrow = [
        (encoded.codes, expected.cardinality),
        (encoded.counts, int(expected.counts.max()) + 1),
    ]
    for array, count in narrow:
        assert array.dtype == code_dtype(count)
    assert not any(
        array.flags.writeable for array in vars(encoded).values()
    )
    assert encoded.memory_bytes() <= probe.astype(np.int64).nbytes


def test_declined_build_is_decided_again_and_stores_nothing():
    """A build that returns None leaves the entry as it was: the
    second-touch mark stays, and the next read builds again."""
    column = Table.from_arrays({"K": np.arange(10)}).column("K")
    calls = []

    def build():
        calls.append(1)
        return None if len(calls) < 2 else dictionary_encode(np.arange(3))

    assert memoised(column, "encoding", (), build, second_touch=True) is None
    assert memoised(column, "encoding", (), build, second_touch=True) is None
    marked = column.memo["encoding"]
    built = memoised(column, "encoding", (), build, second_touch=True)
    assert calls == [1, 1] and marked[1] is not built
    assert memoised(column, "encoding", (), build) is built
    assert not built.codes.flags.writeable and not built.dictionary.flags.writeable


@pytest.mark.parametrize("route", ROUTES)
def test_probe_and_group_by_share_one_encoding(route):
    """A column probed by OJ, then grouped on the build side, keeps OJ's
    dictionary; a column grouped first, then probed by OJ, keeps the
    group-by's. Each reader equals a run over tables nothing was
    memoised on."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    keys = {"K": np.unique(r_data["A"]), "C": np.arange(np.unique(r_data["A"]).size)}

    def grouped_by_probe_key(r, s):
        # S is the build side here, so S.R_ID is a build-side group key.
        join = Join(
            TableScan(s.qualified("S")), TableScan(r.qualified("R")), "S.R_ID", "R.ID"
        )
        operator = GroupBy(
            join, "S.R_ID", [count_star("n")], GroupingAlgorithm.SOG
        )
        return on_route(route, lambda: execute(operator))

    def probed_on_group_key(r, k):
        operator = Join(
            TableScan(k.qualified("K")),
            TableScan(r.qualified("R")),
            "K.K",
            "R.A",
            JoinAlgorithm.OJ,
        )
        return on_route(route, lambda: operator.matches().pairs)

    join_operator(r, s, JoinAlgorithm.OJ).matches()
    runs = memo_entry(s, "R_ID")
    assert isinstance(runs, DictionaryEncoded)
    fresh = grouped_by_probe_key(Table.from_arrays(r_data), Table.from_arrays(s_data))
    assert grouped_by_probe_key(r, s).equals(fresh)
    assert memo_entry(s, "R_ID") is runs

    k = Table.from_arrays(keys)
    execute(
        GroupBy(
            join_operator(r, s, JoinAlgorithm.HJ),
            "R.A",
            [count_star("n")],
            GroupingAlgorithm.SOG,
        ),
        workers=1,
    )
    codes = memo_entry(r, "A")
    assert isinstance(codes, DictionaryEncoded)
    pairs = probed_on_group_key(r, k)
    expected = join(keys["K"], r_data["A"], JoinAlgorithm.OJ)
    assert np.array_equal(pairs.left_indices, expected.left_indices)
    assert np.array_equal(pairs.right_indices, expected.right_indices)
    assert memo_entry(r, "A") is codes


#: the three readers of a key column's encoding, in the order each test
#: case lets them touch S.R_ID first.
READER_ORDERS = {
    "probe_first": ("probe", "group_by", "view"),
    "group_by_first": ("group_by", "view", "probe"),
    "view_first": ("view", "probe", "group_by"),
}


@pytest.mark.usefixtures("memory_storage")
@pytest.mark.parametrize("order", list(READER_ORDERS))
def test_every_reader_reads_the_first_readers_encoding(order, encodings):
    """HJ's probe, a build-side SPHG group-by and a dictionary view over
    S.R_ID, in three orders: the column is encoded once, by whichever
    touches it first (HJ on its second probe), and holds that one
    ``encoding`` entry; the probe's and the view's encoding are that
    object. Each join and group-by equals a run over tables nothing was
    memoised on."""
    r_data, s_data = arrays()
    catalog = Catalog()
    catalog.register("R", Table.from_arrays(r_data))
    catalog.register("S", Table.from_arrays(s_data))
    r, s = catalog.table("R"), catalog.table("S")
    fresh_pairs = join(r_data["ID"], s_data["R_ID"], JoinAlgorithm.HJ)

    def grouped(r, s):
        # S is the build side here, so S.R_ID is a build-side group key.
        operator = Join(
            TableScan(s.qualified("S")), TableScan(r.qualified("R")), "S.R_ID", "R.ID"
        )
        return execute(
            GroupBy(operator, "S.R_ID", [count_star("n")], GroupingAlgorithm.SPHG),
            workers=1,
        )

    fresh_groups = grouped(Table.from_arrays(r_data), Table.from_arrays(s_data))
    del encodings[:]

    def probe():
        for _ in range(2):
            with scoped_settings(workers=1):
                matches = join_operator(r, s, JoinAlgorithm.HJ).matches()
            assert np.array_equal(matches.pairs.left_indices, fresh_pairs.left_indices)
            assert np.array_equal(matches.pairs.right_indices, fresh_pairs.right_indices)
        return matches.encoded

    def group_by():
        assert grouped(r, s).equals(fresh_groups)
        return memo_entry(s, "R_ID")

    def view():
        view = materialize_view(catalog, ViewKind.DICTIONARY, "S", "R_ID")
        return view.artifact.encoding

    readers = {"probe": probe, "group_by": group_by, "view": view}
    first, *later = READER_ORDERS[order]
    entry = readers[first]()
    assert isinstance(entry, DictionaryEncoded) and memo_entry(s, "R_ID") is entry
    for name in later:
        assert readers[name]() is entry, name
    assert memo_entry(s, "R_ID") is entry and encodings == [s_data["R_ID"].size]


#: the Figure 5 layouts: (stored sorted, dense domain).
FIGURE5_LAYOUTS = {
    "sorted_dense": (True, True),
    "sorted_sparse": (True, False),
    "unsorted_dense": (False, True),
    "unsorted_sparse": (False, False),
}


@pytest.mark.usefixtures("memory_storage")
@pytest.mark.parametrize("layout", list(FIGURE5_LAYOUTS))
def test_warm_figure5_query_leaves_three_memo_kinds(layout):
    """After a warm §4.3 query on each layout, the plan the optimiser
    picks has memoised a build side, R.A's encoding and S.R_ID's
    encoding and lookup, and every column's memo holds no kind but
    ``build_side``, ``encoding`` and ``lookup``."""
    sorted_, dense = FIGURE5_LAYOUTS[layout]
    sortedness = Sortedness.SORTED if sorted_ else Sortedness.UNSORTED
    catalog = make_join_scenario(
        n_r=6_250,
        n_s=50_000,
        num_groups=2_000,
        r_sortedness=sortedness,
        s_sortedness=sortedness,
        density=Density.DENSE if dense else Density.SPARSE,
        seed=11,
    ).build_catalog()
    service = QueryService(catalog, ServiceConfig())
    try:
        results = [service.execute(QUERY).table for _ in range(3)]
    finally:
        service.shutdown()
    assert all(result.equals(results[0]) for result in results)
    kinds = {
        f"{name}.{column.name}": set(column.memo)
        for name in ("R", "S")
        for column in catalog.table(name).columns()
    }
    assert all(held <= {"build_side", "encoding", "lookup"} for held in kinds.values())
    assert "encoding" in kinds["R.A"] and "build_side" in kinds["R.ID"]
    assert kinds["S.R_ID"] == {"encoding", "lookup"}


# --------------------------------------------------------------------------
# COUNT grouped on a build-side key: the matches counted, never paired

def count_plan(r: Table, s, algorithm, grouping, probe_filter=None) -> GroupBy:
    """``SELECT R.A, COUNT(*) ... GROUP BY R.A`` over one join, at the
    worker count in force; ``probe_filter`` filters S first."""
    probe = TableScan(s.qualified("S"))
    if probe_filter is not None:
        probe = Filter(probe, probe_filter)
    join = Join(
        TableScan(r.qualified("R")),
        probe,
        "R.ID",
        "S.R_ID",
        algorithm,
    )
    return GroupBy(join, "R.A", [count_star("n")], grouping)


def gathered(r_data: dict, s_data: dict, algorithm, grouping) -> Table:
    """The same COUNT over the join's gathered output, on tables nothing
    was memoised on: the route that reads every pair."""
    operator = count_plan(
        Table.from_arrays(r_data), Table.from_arrays(s_data), algorithm, grouping
    )
    output = TableScan(execute(operator.children[0]))
    return execute(GroupBy(output, "R.A", [count_star("n")], grouping))


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
@pytest.mark.parametrize("layout", ["sorted", "unsorted"])
@pytest.mark.parametrize("grouping", BUILD_SIDE_GROUPING, ids=lambda a: a.name)
@pytest.mark.parametrize("algorithm", MEMOISED_JOINS, ids=lambda a: a.name)
def test_count_route_equals_gathered_route(monkeypatch, algorithm, grouping, layout, workers):
    """Cold, first-touched and warm (the probe column's dictionary
    memoised), a COUNT grouped on R.A never emits the
    join's pairs, and returns what grouping the gathered output returns:
    bit for bit, in the same order, HG's up to order. OG's groups
    ascend, which is what OG gives over an output sorted on the key and
    SOG over any."""
    r_data, s_data = arrays()
    reference = grouping
    if layout == "unsorted":
        order = np.random.default_rng(41).permutation(s_data["R_ID"].size)
        s_data = {name: values[order] for name, values in s_data.items()}
        if grouping is GroupingAlgorithm.OG:
            reference = GroupingAlgorithm.SOG
    probed = []
    with scoped_settings(workers=workers):
        expected = gathered(r_data, s_data, algorithm, reference)
        monkeypatch.setattr(Join, "_pairs", lambda *args: probed.append(args))
        r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
        for run in ("cold", "first touch", "warm"):
            result = execute(count_plan(r, s, algorithm, grouping))
            if grouping is GroupingAlgorithm.HG:
                result, expected = result.sort_by(["R.A"]), expected.sort_by(["R.A"])
            assert result.equals(expected), run
    assert probed == []
    encoded = memo_entry(s, "R_ID")
    # SPHJ too reads the probe through its encoding; OJ never encodes an
    # unsorted one.
    unencoded = algorithm is JoinAlgorithm.OJ and layout == "unsorted"
    assert isinstance(encoded, DictionaryEncoded) != unencoded


def test_declined_count_gathers_from_the_same_matches(monkeypatch):
    """A filtered probe makes the join smaller than its build, so the
    COUNT declines the build-side route and groups the gathered output.
    The gather pairs the slots the decline was counted off: each input
    is read, each probe key looked up, and the pairs built, once."""
    r_data, s_data = arrays()
    r, s = Table.from_arrays(r_data), Table.from_arrays(s_data)
    operator = count_plan(r, s, JoinAlgorithm.HJ, GroupingAlgorithm.HG, col("S.B") > 7)
    joined = operator.children[0]
    calls = {
        "left": [], "right": [], "matches": [], "gather": [], "pairs": [], "slots": []
    }

    def spy(name, method):
        def recorded(*args, **kwargs):
            result = method(*args, **kwargs)
            calls[name].append((args, result))
            return result
        return recorded

    for side, child in zip(("left", "right"), joined.children):
        child.to_table = spy(side, child.to_table)
    joined.matches = spy("matches", joined.matches)
    joined.gather = spy("gather", joined.gather)
    joined._pairs = spy("pairs", joined._pairs)
    monkeypatch.setattr(BuildSide, "slots", spy("slots", BuildSide.slots))
    result = execute(operator, workers=1)
    steps = ("left", "right", "matches", "pairs", "slots")
    assert [len(calls[step]) for step in steps] == [1, 1, 1, 1, 1]
    (__, matches), = calls["matches"]
    ((handed,), __), = calls["gather"]
    assert handed is matches and matches.num_rows < r.num_rows
    assert matches.pairs is None
    fresh = join(r_data["ID"], s_data["R_ID"][s_data["B"] > 7], JoinAlgorithm.HJ)
    assert matches.num_rows == fresh.num_rows
    expected = np.unique(r_data["A"][fresh.left_indices], return_counts=True)
    result = result.sort_by(["R.A"])
    assert result["R.A"].tolist() == expected[0].tolist()
    assert result["n"].tolist() == expected[1].tolist()
