"""The six workloads: what each sets up, sends, and checks.

A workload is a seeded, endless list of operations with fixed class
weights per cycle. The class weights are chosen so that, whatever the
order of the classes' latencies, the p50 and p90 ranks fall at least
five points inside one class (a percentile that sits on a class
boundary flips between runs). ``perf/README.md`` says why each
workload exists; the ``why`` strings here are the one-line version.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from perf import datagen
from perf.reference import Query, evaluate, same_rows
from perf.trace import SERVICE_EXECUTE
from repro.obs import disable_observability, enable_observability, set_query_log
from repro.service.server import QueryServer, ServiceClient
from repro.service.session import QueryService, ServiceConfig
from repro.storage import Catalog, Table
from repro.storage.catalog import ForeignKey
from repro.storage.disk import (
    BufferManager,
    append_table,
    get_buffer_manager,
    set_buffer_manager,
    write_table,
)

#: the paper's section 4.3 query.
FIG5_QUERY = Query(fact="S", group=("R", "A"), joins=(("R", "R_ID"),))
FIG5_KEYS = (("S", "R_ID", "R", "ID"),)
#: catalog layout -> (stored sorted, dense domain).
FIG5_LAYOUTS = {
    "sorted_dense": (True, True),
    "sorted_sparse": (True, False),
    "unsorted_dense": (False, True),
    "unsorted_sparse": (False, False),
}
#: (|R|, |S|, distinct R.A) of the paper's scenario.
PAPER_SIZES = (45_000, 90_000, 20_000)
#: operations of each layout per 20, slowest layouts heaviest.
FIG5_WEIGHTS = {
    "sorted_dense": 3,
    "sorted_sparse": 3,
    "unsorted_dense": 8,
    "unsorted_sparse": 6,
}


#: the execution backends ``fig5_workers2`` alternates between.
BACKENDS = ("thread", "process")


@dataclass
class Op:
    """One operation of a workload's list."""

    cls: str
    #: the query, or None for a write.
    query: Query | None = None
    sql: str = ""
    #: where the workload sends it (a service key, an append size, ...).
    target: object = None


@dataclass
class OpResult:
    """What one operation returned, plus where its time went."""

    #: (group keys, aggregate values) as the program returned them.
    rows: tuple | None = None
    #: stage name -> seconds, as the service reports them.
    stages: dict = field(default_factory=dict)
    #: service-side wall seconds, when the caller is across a wire.
    service_wall: float | None = None
    #: (span name, start, end) around the benchmark's own calls.
    marks: list = field(default_factory=list)
    #: untimed clean-up to run after the operation's clock stops.
    after: Callable | None = None
    #: (start, end) of the timed part, when ``run`` also does untimed
    #: work; the whole ``run`` call is timed otherwise.
    interval: tuple | None = None


@dataclass
class Sample:
    """One (catalog, query) of a workload, for the layer probes."""

    label: str
    weight: int
    catalog: Catalog
    query: Query
    #: the raw arrays behind the catalog (kernel inputs).
    tables: dict
    workers: int = 1
    backend: str = "thread"


def build_catalog(tables: dict, foreign_keys=()) -> Catalog:
    """Fresh ``Table``s over the arrays, registered with their keys."""
    catalog = Catalog()
    for name, columns in tables.items():
        catalog.register(name, Table.from_arrays(columns))
    for key in foreign_keys:
        catalog.add_foreign_key(ForeignKey(*key))
    return catalog


def result_rows(table) -> tuple:
    """(group keys, aggregate values) of a two-column result table."""
    key, value = table.schema.names
    return table[key], table[value]


class Workload:
    """Base: seeded sizes, the class pattern, and result checking."""

    name = ""
    why = ""
    #: operations of each class per cycle.
    classes: dict[str, int] = {}
    #: closed-loop clients (threads or connections), at most ``nproc``.
    clients = 1
    #: name of an operation's root span.
    root_span = SERVICE_EXECUTE

    def __init__(self, seed: int, scale: float, work_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self._expected: dict = {}

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def rows(self, full_size: int) -> int:
        """A table size, scaled down under ``--smoke``."""
        return max(int(full_size * self.scale), 64)

    def join_tables(self, stream: int, sizes, sorted_: bool, dense: bool) -> dict:
        """R and S at the (scaled) sizes (|R|, |S|, distinct R.A)."""
        r_rows, s_rows, groups = (self.rows(size) for size in sizes)
        return datagen.join_tables(
            self.rng(stream), r_rows, s_rows, min(groups, r_rows), sorted_, dense
        )

    @property
    def cycle(self) -> int:
        return sum(self.classes.values())

    def pattern(self, client: int = 0) -> list[str]:
        """One cycle's classes in a seeded order."""
        slots = [cls for cls, count in self.classes.items() for _ in range(count)]
        self.rng(900 + client).shuffle(slots)
        return slots

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def operations(self, client: int) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op, client: int) -> OpResult:
        raise NotImplementedError

    def reference(self, op: Op) -> tuple:
        """The expected rows of ``op`` (computed once per query)."""
        raise NotImplementedError

    def check(self, op: Op, result: OpResult) -> bool:
        return result.rows is not None and same_rows(self.reference(op), *result.rows)

    def on_checkpoint(self) -> None:
        """Called after exactly the minimum operation count, so counters
        read here are the same on every run of one seed."""

    def samples(self) -> list[Sample]:
        return []

    def layer_extras(self, tracer, records) -> dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def _cached_reference(self, key, query: Query, tables: dict) -> tuple:
        if key not in self._expected:
            self._expected[key] = evaluate(query, tables)
        return self._expected[key]


def execute_sql(service: QueryService, op: Op) -> OpResult:
    """One ``QueryService.execute``: the rows and the reported stages."""
    outcome = service.execute(op.sql)
    return OpResult(rows=result_rows(outcome.table), stages=outcome.stage_seconds)


class Fig5Warm(Workload):
    name = "fig5_warm"
    why = (
        "section 4.3 query over sorted/unsorted x dense/sparse catalogs, "
        "in-process, serial, plan cache warm: kernels and operators do the work"
    )
    classes = FIG5_WEIGHTS
    workers = 1
    backends = ("thread",)
    #: half the issue's sizes, so that 100 operations fit in 10 seconds.
    SIZES = (62_500, 500_000, 20_000)

    def setup(self) -> None:
        self.tables, self.catalogs, self.services = {}, {}, {}
        sql = FIG5_QUERY.sql()
        for index, (layout, (sorted_, dense)) in enumerate(FIG5_LAYOUTS.items()):
            tables = self.join_tables(index, self.SIZES, sorted_, dense)
            self.tables[layout] = tables
            self.catalogs[layout] = build_catalog(tables, FIG5_KEYS)
            self._cached_reference(layout, FIG5_QUERY, tables)
            for backend in self.backends:
                service = QueryService(
                    self.catalogs[layout],
                    ServiceConfig(workers=self.workers, backend=backend),
                )
                self.services[layout, backend] = service
                for _ in range(2):  # first-touch statistics, then the cached plan
                    service.execute(sql)

    def teardown(self) -> None:
        for service in self.services.values():
            service.shutdown()
        self.services = {}

    def operations(self, client: int) -> Iterator[Op]:
        sql = FIG5_QUERY.sql()
        for slot in itertools.cycle(self.pattern(client)):
            layout, _, backend = slot.partition("/")
            yield Op(layout, FIG5_QUERY, sql, (layout, backend or "thread"))

    def run(self, op: Op, client: int) -> OpResult:
        return execute_sql(self.services[op.target], op)

    def reference(self, op: Op) -> tuple:
        return self._expected[op.target[0]]

    def samples(self) -> list[Sample]:
        return [
            Sample(
                f"{layout}/{backend}",
                FIG5_WEIGHTS[layout],
                self.catalogs[layout],
                FIG5_QUERY,
                self.tables[layout],
                self.workers,
                backend,
            )
            for layout in FIG5_LAYOUTS
            for backend in self.backends
        ]


class Fig5Workers2(Fig5Warm):
    name = "fig5_workers2"
    why = (
        "the same data with workers=2, thread and process backends alternating: "
        "the parallel cost terms and both worker pools decide the number"
    )
    workers = 2
    backends = BACKENDS
    #: the backend is not part of the class: thread and process latencies
    #: of one layout are close, and as classes of their own they would
    #: put a class boundary exactly on the p50 rank.
    classes = {layout: 2 * weight for layout, weight in FIG5_WEIGHTS.items()}

    def pattern(self, client: int = 0) -> list[str]:
        """``layout/backend`` slots: strictly alternating backends, each
        with the layout weights."""
        per_backend = []
        for index, backend in enumerate(self.backends):
            slots = [
                f"{layout}/{backend}"
                for layout, weight in FIG5_WEIGHTS.items()
                for _ in range(weight)
            ]
            self.rng(900 + index).shuffle(slots)
            per_backend.append(slots)
        return [cls for pair in zip(*per_backend) for cls in pair]


class AdhocPlan(Workload):
    name = "adhoc_plan"
    why = (
        "five-join star queries, 40% never seen before (plan-cache miss, DP "
        "dominates) and 60% recent (hit): parser, optimiser and plan cache do the work"
    )
    classes = {"hit": 6, "miss": 4}
    FACT_ROWS = 5_000
    #: re-issued operations pick one of this many most recent queries.
    RECENT = 32
    #: recent queries (as of the checkpoint) the layer probes run.
    SAMPLES = 6
    #: filter literals keep at least this share of the rows: the plan of
    #: a more selective filter fails today (see ``layer_extras``).
    MIN_KEPT = 0.3

    def setup(self) -> None:
        # Not scaled under --smoke: the tables are small already, and
        # the DP's work does not depend on their size.
        self.tables = datagen.star_tables(self.rng(0), self.FACT_ROWS)
        self.dimensions = len(datagen.STAR_DIMENSIONS)
        keys = [("FACT", f"D{i}_ID", f"D{i}", "ID") for i in range(self.dimensions)]
        self.catalog = build_catalog(self.tables, keys)
        self.service = QueryService(self.catalog, ServiceConfig())
        self._draws = self.rng(1)
        self._seen: set[Query] = set()
        self._recent: deque[Query] = deque(maxlen=self.RECENT)
        self._sorted = {}
        for _ in range(self.RECENT):  # warm statistics, fill the cache
            query = self._fresh_query(self._draws, self.MIN_KEPT, 1.0)
            self._recent.append(query)
            self.service.execute(query.sql())
        self._samples = list(self._recent)[: self.SAMPLES]

    def teardown(self) -> None:
        self.service.shutdown()

    def _fresh_query(self, draws, low: float, high: float, templates=(0, 1, 2, 3)) -> Query:
        """A star query never issued before: group dimension x filter
        template {none, FACT.M, FACT.Dj_ID, Dg.A} x a literal ``c`` such
        that ``column < c`` keeps a share of the rows drawn uniformly
        from [low, high]."""

        def below(table: str, column: str) -> tuple:
            if (table, column) not in self._sorted:
                self._sorted[table, column] = np.sort(self.tables[table][column])
            values = self._sorted[table, column]
            rank = int(draws.uniform(low, high) * (values.size - 1))
            return table, column, int(values[rank]) + 1

        while True:
            group = int(draws.integers(self.dimensions))
            template = int(draws.choice(templates))
            if template == 0:
                where = None
            elif template == 1:
                where = below("FACT", "M")
            elif template == 2:
                where = below("FACT", f"D{int(draws.integers(self.dimensions))}_ID")
            else:
                # Fact rows reference the dimension's rows evenly, so a
                # share of its rows is the same share of the fact's.
                where = below(f"D{group}", "A")
            order = [group] + [i for i in range(self.dimensions) if i != group]
            query = Query(
                fact="FACT",
                group=(f"D{group}", "A"),
                joins=tuple((f"D{i}", f"D{i}_ID") for i in order),
                filter=where,
            )
            if query not in self._seen:
                self._seen.add(query)
                return query

    def operations(self, client: int) -> Iterator[Op]:
        for cls in itertools.cycle(self.pattern(client)):
            if cls == "miss":
                query = self._fresh_query(self._draws, self.MIN_KEPT, 1.0)
                self._recent.append(query)
            else:
                query = self._recent[int(self._draws.integers(len(self._recent)))]
            yield Op(cls, query, query.sql())

    def run(self, op: Op, client: int) -> OpResult:
        return execute_sql(self.service, op)

    def reference(self, op: Op) -> tuple:
        return self._cached_reference(op.query, op.query, self.tables)

    def on_checkpoint(self) -> None:
        self._samples = list(self._recent)[: self.SAMPLES]

    def samples(self) -> list[Sample]:
        return [
            Sample(f"recent{index}", 1, self.catalog, query, self.tables)
            for index, query in enumerate(self._samples)
        ]

    def layer_extras(self, tracer, records) -> dict[str, float]:
        """The query class that fails today: a selective filter on a fact
        foreign key leaves a grouping key sparse at run time, and the
        plan's static perfect hash raises ``PreconditionError``. It is
        kept out of the timed list (on which no operation may fail) and
        measured here, so a fix shows as this share going to zero."""
        attempts, errors, draws = 20, {}, self.rng(3)
        for _ in range(attempts):
            query = self._fresh_query(draws, 0.0005, 0.02, templates=(2,))
            op = Op("selective", query, query.sql())
            try:
                ok = self.check(op, self.run(op, 0))
                kind = None if ok else "Mismatch"
            except Exception as error:  # noqa: BLE001 - every failure is counted
                kind = type(error).__name__
            if kind:
                errors[kind] = errors.get(kind, 0) + 1
        print(f"  selective-filter class: {attempts} attempted, errors {errors}")
        return {"optimizer.selective_failed_share": sum(errors.values()) / attempts}


class ColdLoad(Workload):
    name = "cold_load"
    why = (
        "each operation registers fresh tables, starts a service and runs one "
        "query: first-touch statistics dominate, nothing is warm"
    )
    classes = {"load": 10}
    root_span = "perf:cold_load"

    def setup(self) -> None:
        self.tables = self.join_tables(0, PAPER_SIZES, sorted_=False, dense=True)
        self._cached_reference(None, FIG5_QUERY, self.tables)
        self.catalog = build_catalog(self.tables, FIG5_KEYS)
        op = next(self.operations(0))
        for _ in range(3):  # code paths warm, data cold every time
            self.run(op, 0).after()

    def teardown(self) -> None:
        pass

    def operations(self, client: int) -> Iterator[Op]:
        return itertools.repeat(Op("load", FIG5_QUERY, FIG5_QUERY.sql()))

    def run(self, op: Op, client: int) -> OpResult:
        """Timed from table construction to the first result; the
        service's shutdown runs after the clock stops."""
        marks = []
        clock = time.perf_counter
        started = clock()
        built = {
            name: Table.from_arrays(columns) for name, columns in self.tables.items()
        }
        marks.append(("storage.table:from_arrays", started, clock()))
        started = clock()
        catalog = Catalog()
        for name, table in built.items():
            catalog.register(name, table)
        for key in FIG5_KEYS:
            catalog.add_foreign_key(ForeignKey(*key))
        marks.append(("storage.catalog:register", started, clock()))
        started = clock()
        service = QueryService(catalog, ServiceConfig())
        marks.append(("service.session:start", started, clock()))
        started = clock()
        try:
            outcome = service.execute(op.sql)
        except BaseException:
            service.shutdown()
            raise
        marks.append((SERVICE_EXECUTE, started, clock()))
        return OpResult(
            rows=result_rows(outcome.table),
            stages=outcome.stage_seconds,
            marks=marks,
            after=service.shutdown,
        )

    def reference(self, op: Op) -> tuple:
        return self._expected[None]

    def samples(self) -> list[Sample]:
        return [Sample("load", 1, self.catalog, FIG5_QUERY, self.tables)]

    def layer_extras(self, tracer, records) -> dict[str, float]:
        """First-touch statistics alone: ``Catalog.column_statistics`` on
        every column of freshly built tables."""
        seconds = []
        for repeat in range(5):
            catalog = build_catalog(self.tables, FIG5_KEYS)
            started = time.perf_counter()
            for name, columns in self.tables.items():
                for column in columns:
                    catalog.column_statistics(name, column)
            ended = time.perf_counter()
            tracer.add("storage.statistics:first_touch", started, ended, op=f"probe#{repeat}")
            seconds.append(ended - started)
        return {"stats.first_touch_ms": float(np.median(seconds)) * 1e3}


class DiskScan(Workload):
    name = "disk_scan"
    why = (
        "a disk table three times its buffer pool: full scans churn the pool, "
        "a hot range stays resident, appends force re-optimisation"
    )
    classes = {"full": 20, "hot": 15, "unselective": 14, "append": 1}
    ROWS = 1_000_000
    SEGMENT_ROWS = 65_536
    #: one third of the decoded table (3 int64 columns).
    POOL_SHARE = 1 / 3

    def setup(self) -> None:
        self.segment_rows = self.rows(self.SEGMENT_ROWS)
        rows = self.rows(self.ROWS)
        self.table = self._initial = datagen.scan_table(self.rng(0), rows)
        self._pristine_catalog = None
        self._appends = self.rng(1)
        self.version = 0
        set_buffer_manager(
            BufferManager(budget_bytes=int(rows * 3 * 8 * self.POOL_SHARE))
        )
        self.directory = os.path.join(self.work_dir, "disk_scan_T")
        self.catalog = self._write(self.directory)
        self.service = QueryService(self.catalog, ServiceConfig())
        group = ("T", "g")
        #: the hot range ends inside the third or the fourth segment.
        self.queries = {
            "full": [Query("T", group)],
            "hot": [
                Query("T", group, filter=("T", "k", int(self.segment_rows * share)))
                for share in (2.25, 2.5, 2.75, 3.5)
            ],
            "unselective": [Query("T", group, filter=("T", "v", 10), sum_column="v")],
        }
        for queries in self.queries.values():
            for query in queries:
                for _ in range(2):
                    self.service.execute(query.sql())
        self._pool_start = get_buffer_manager().stats()
        self._pool_checkpoint = self._pool_start

    def _write(self, directory: str) -> Catalog:
        """The initial table written to ``directory`` and registered."""
        shutil.rmtree(directory, ignore_errors=True)
        write_table(
            Table.from_arrays(self._initial), directory, segment_rows=self.segment_rows
        )
        catalog = Catalog()
        catalog.register_disk("T", directory)
        return catalog

    def _pristine(self) -> Catalog:
        """A second copy of the initial table for the layer probes: the
        timed table has grown by however many appends the run had time
        for, and the probes' counts must not depend on that."""
        if self._pristine_catalog is None:
            self._pristine_catalog = self._write(self.directory + "_probe")
        return self._pristine_catalog

    def teardown(self) -> None:
        self.service.shutdown()
        set_buffer_manager(None)
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.rmtree(self.directory + "_probe", ignore_errors=True)

    def operations(self, client: int) -> Iterator[Op]:
        draws = self.rng(2)
        for cls in itertools.cycle(self.pattern(client)):
            if cls == "append":
                yield Op(cls, target=self.segment_rows)
            else:
                choices = self.queries[cls]
                query = choices[int(draws.integers(len(choices)))]
                yield Op(cls, query, query.sql())

    def run(self, op: Op, client: int) -> OpResult:
        if op.cls != "append":
            return execute_sql(self.service, op)
        rows = len(self.table["k"])
        segment = datagen.scan_table(self._appends, op.target, first_key=rows)
        incoming = Table.from_arrays(segment)
        started = time.perf_counter()
        append_table(self.directory, incoming)
        self.catalog.register_disk("T", self.directory, replace=True)
        ended = time.perf_counter()
        self.table = {
            name: np.concatenate([values, segment[name]])
            for name, values in self.table.items()
        }
        self.version += 1
        return OpResult(
            marks=[("storage.disk:append_table", started, ended)],
            interval=(started, ended),
        )

    def check(self, op: Op, result: OpResult) -> bool:
        if op.cls == "append":
            return self.catalog.table("T").num_rows == len(self.table["k"])
        return super().check(op, result)

    def reference(self, op: Op) -> tuple:
        return self._cached_reference(
            (op.query, self.version), op.query, {"T": self.table}
        )

    def on_checkpoint(self) -> None:
        self._pool_checkpoint = get_buffer_manager().stats()

    def samples(self) -> list[Sample]:
        return [
            Sample(cls, self.classes[cls], self._pristine(), queries[0], {"T": self._initial})
            for cls, queries in self.queries.items()
        ]

    def layer_extras(self, tracer, records) -> dict[str, float]:
        """The pool's exact counters up to the checkpoint, and a
        ``SegmentScan`` of the whole table drained alone."""
        from repro.engine.operators import SegmentScan

        counted = {
            key: self._pool_checkpoint[key] - self._pool_start[key]
            for key in ("hits", "misses", "evictions")
        }
        seconds = []
        for repeat in range(3):
            scan = SegmentScan(self._pristine().table("T"))
            started = time.perf_counter()
            for _chunk in scan.chunks():
                pass
            ended = time.perf_counter()
            tracer.add("storage.disk:SegmentScan", started, ended, op=f"probe#{repeat}")
            seconds.append(ended - started)
        lookups = counted["hits"] + counted["misses"]
        appends = [r.seconds for r in records if r.cls == "append" and not r.error]
        return {
            "disk.append_ms": float(np.median(appends)) * 1e3 if appends else 0.0,
            "disk.scan_ms": float(np.median(seconds)) * 1e3,
            "disk.pool_hit_share": counted["hits"] / lookups if lookups else 0.0,
            "disk.evictions": counted["evictions"],
        }


class ServedMix(Workload):
    name = "served_mix"
    why = (
        "two TCP clients against a QueryServer with observability and a query "
        "log on: 20% return 19k rows (serialisation), 80% under 100 (round trip)"
    )
    #: 20/80, not the 40/60 first planned: with two clients sharing one
    #: interpreter, a selective query that overlaps the other client's
    #: full query takes three times as long, and at 40/60 the p50 rank
    #: fell on that knee and moved by 60% between runs.
    classes = {"full": 2, "selective": 8}
    clients = 2
    root_span = "service.server:round_trip"
    #: distinct literals of the selective variant, each keeping <= 100 groups.
    LITERALS = 16

    def setup(self) -> None:
        self.tables = self.join_tables(0, PAPER_SIZES, sorted_=False, dense=True)
        self.queries = {
            "full": [FIG5_QUERY],
            "selective": [
                Query("S", ("R", "A"), FIG5_QUERY.joins, filter=("R", "A", 100 - 5 * i))
                for i in range(self.LITERALS)
            ],
        }
        self.log_path = os.path.join(self.work_dir, "served_mix_querylog.jsonl")
        self.catalog = build_catalog(self.tables, FIG5_KEYS)
        self._observe(True)
        self.service = QueryService(self.catalog, ServiceConfig())
        self.server = QueryServer(self.service).start()
        self.connections = [
            ServiceClient("127.0.0.1", self.server.port) for _ in range(self.clients)
        ]
        for queries in self.queries.values():
            for query in queries:
                self._cached_reference(query, query, self.tables)
                for connection in self.connections:
                    connection.query(query.sql())

    def _observe(self, on: bool) -> None:
        """Observability and the query log, on as in a deployment."""
        if on:
            enable_observability()
            set_query_log(self.log_path)
        else:
            set_query_log(None)
            disable_observability()

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.shutdown()
        self._observe(False)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)

    def operations(self, client: int) -> Iterator[Op]:
        draws = self.rng(2, client)
        for cls in itertools.cycle(self.pattern(client)):
            choices = self.queries[cls]
            query = choices[int(draws.integers(len(choices)))]
            yield Op(cls, query, query.sql())

    def run(self, op: Op, client: int) -> OpResult:
        started = time.perf_counter()
        response = self.connections[client].query(op.sql, max_rows=1_000_000)
        ended = time.perf_counter()
        rows = np.asarray(response["rows"], dtype=np.int64).reshape(-1, 2)
        stages = response["stages"]
        wall = response["wall_seconds"]
        # The wire time before and after the service is not observable
        # from here; centre the server's interval in the round trip.
        served = wall + stages["serialize"]
        begin = started + max((ended - started) - served, 0.0) / 2
        return OpResult(
            rows=(rows[:, 0], rows[:, 1]),
            stages=stages,
            service_wall=wall,
            marks=[(SERVICE_EXECUTE, begin, begin + wall)],
            interval=(started, ended),
        )

    def reference(self, op: Op) -> tuple:
        return self._expected[op.query]

    def samples(self) -> list[Sample]:
        return [
            Sample(cls, self.classes[cls], self.catalog, queries[0], self.tables)
            for cls, queries in self.queries.items()
        ]

    def layer_extras(self, tracer, records) -> dict[str, float]:
        """The same operations in-process with observability and the
        query log off, then on, five times over; the median ratio."""
        ops = list(itertools.islice(self.operations(0), 2 * self.cycle))
        ratios = []
        try:
            for _ in range(5):
                seconds = {}
                for on in (False, True):
                    self._observe(on)
                    started = time.perf_counter()
                    for op in ops:
                        self.service.execute(op.sql)
                    seconds[on] = time.perf_counter() - started
                ratios.append(seconds[True] / seconds[False])
        finally:
            self._observe(True)
        return {"obs.overhead_share": float(np.median(ratios)) - 1.0}


WORKLOADS = {
    cls.name: cls
    for cls in (Fig5Warm, Fig5Workers2, AdhocPlan, ColdLoad, DiskScan, ServedMix)
}
