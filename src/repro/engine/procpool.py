"""The process-based execution backend: shared-memory columns + worker pool.

The morsel scheduler (:mod:`repro.engine.parallel`) parallelises numpy
kernels across *threads* — enough when the GIL is released inside the
kernel, useless for the pure-Python stretches around it. This module adds
the second backend the optimiser can choose
(``OptimizerConfig.backend = "process"``): a persistent pool of worker
*processes* pulling morsel tasks over a command queue, with table columns
published once into :mod:`multiprocessing.shared_memory` segments so every
worker maps them zero-copy.

Pieces:

* :class:`SharedColumnStore` — publishes numpy arrays into named
  shared-memory segments (``repro_shm_*``), identity-cached so a column
  array is published at most once per process. Segments are
  reference-tracked: a ``weakref.finalize`` on the source array releases
  the segment when the array is garbage-collected, and a catalog
  unregister-observer releases the segments of a dropped table's columns.
  The *parent* owns every segment: unlink happens parent-side, so a
  SIGKILLed worker can never leak ``/dev/shm`` entries.
* :class:`ProcessPool` — long-lived ``repro-procworker-N`` processes
  (``spawn`` by default — fork-safe under the service's threads; set
  ``REPRO_PROC_START=fork`` for cheap startup in scripts). Tasks travel as
  small picklable payloads whose :class:`SharedArrayRef` leaves are
  resolved to shared-memory views worker-side. Batches honour the
  submitting thread's :class:`~repro.service.context.QueryContext`:
  deadlines cross the boundary as absolute wall-clock stamps, cancellation
  as a shared event checked before every task, and a worker death mid-batch
  surfaces as a structured :class:`~repro.errors.WorkerCrashError` (the
  pool is marked broken and rebuilt on next use). Per-worker busy time is
  stamped into the same ``parallel.*`` metrics and spans the thread
  backend uses, so ``top``/exposition show process-worker utilisation.
* :func:`process_group_by` / :func:`process_join` — the process twins of
  the thread kernels in :mod:`repro.engine.kernels.parallel`, bit-identical
  to them and to the serial kernels. Joins are shared-build: the parent
  erects the hash table / SPH domain / sorted build once, publishes its
  arrays, and all workers probe the one shared structure.

Deadline and cancellation granularity is the task, exactly as the thread
backend polls per morsel: a task already running is never interrupted,
but no further task of a cancelled batch starts.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.engine.parallel import MorselReport, get_executor_config, morsel_boundaries
from repro.errors import DeadlineExceeded, ExecutionError, QueryCancelled, WorkerCrashError
from repro.obs.runtime import get_metrics, get_tracer

#: shared-memory segment name prefix — distinctive, so leak checks can
#: scan ``/dev/shm`` without tripping over other tenants' segments.
SEGMENT_PREFIX = "repro_shm_"

#: process-name prefix of pool workers (mirrors ``repro-worker`` threads).
WORKER_PROCESS_PREFIX = "repro-procworker"

#: seconds run_batch keeps draining stragglers after an abort condition.
_DRAIN_SECONDS = 10.0

#: seconds between result polls (also the worker-liveness check cadence).
_POLL_SECONDS = 0.2

#: worker-side cap on cached segment attachments.
_WORKER_CACHE_CAP = 128


@dataclass(frozen=True)
class SharedArrayRef:
    """A picklable handle to a published array: segment name + layout.

    Workers resolve these to zero-copy numpy views; any payload structure
    (nested dicts/lists/tuples) may carry them as leaves.
    """

    name: str
    dtype: str
    shape: tuple


# ---------------------------------------------------------------------------
# parent side: the shared-memory column store


class SharedColumnStore:
    """Publishes numpy arrays into named shared-memory segments.

    Publishing is idempotent per array object: an identity cache maps
    ``id(array)`` to its segment, so the columns of a catalog table are
    copied into shared memory exactly once no matter how many queries
    touch them (``Column.renamed``/``project`` share the underlying
    array object, so qualified views hit the same cache entry).

    Lifecycle: a ``weakref.finalize`` on each published array releases
    its segment when the array is collected (CPython runs finalizers
    before the id can be reused, so the identity cache never goes stale);
    :func:`repro.storage.catalog.add_unregister_observer` hooks
    :meth:`release_table` in, so dropping a table from a catalog unlinks
    its segments eagerly; :meth:`release_all` is the terminal sweep run
    at pool shutdown.
    """

    def __init__(self) -> None:
        # RLock, not Lock: _finalize runs as a weakref.finalize callback,
        # which GC can fire on *this* thread mid-allocation inside
        # publish()'s critical section (SharedMemory creation, the copy).
        # A non-reentrant lock would self-deadlock there; reentrancy is
        # safe because the finalizer only removes fully-inserted entries
        # of already-dead arrays, never the one publish() is building.
        self._lock = threading.RLock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._refs: dict[str, SharedArrayRef] = {}
        self._by_id: dict[int, str] = {}
        self._counter = 0
        self._published_bytes = 0

    def publish(self, array: np.ndarray) -> SharedArrayRef:
        """Copy ``array`` into a shared segment (once) and return its ref.

        :raises ExecutionError: on a non-C-contiguous input — columns and
            kernel outputs are contiguous by construction, and contiguity
            is what makes the identity cache sound (no hidden temporaries).
        """
        if not isinstance(array, np.ndarray) or not array.flags.c_contiguous:
            raise ExecutionError(
                "shared-memory publish requires a C-contiguous numpy array"
            )
        with self._lock:
            name = self._by_id.get(id(array))
            if name is not None and name in self._refs:
                return self._refs[name]
            self._counter += 1
            name = f"{SEGMENT_PREFIX}{os.getpid()}_{self._counter}"
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(int(array.nbytes), 1)
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            ref = SharedArrayRef(name, array.dtype.str, tuple(array.shape))
            self._segments[name] = segment
            self._refs[name] = ref
            self._by_id[id(array)] = name
            self._published_bytes += int(array.nbytes)
            weakref.finalize(array, self._finalize, id(array), name)
            return ref

    def _finalize(self, array_id: int, name: str) -> None:
        with self._lock:
            if self._by_id.get(array_id) == name:
                del self._by_id[array_id]
        self.release(name)

    def release(self, name: str) -> None:
        """Unlink one segment (missing names are a no-op)."""
        with self._lock:
            segment = self._segments.pop(name, None)
            self._refs.pop(name, None)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def release_array(self, array: np.ndarray) -> None:
        """Unlink the segment published for ``array``, if any."""
        with self._lock:
            name = self._by_id.pop(id(array), None)
        if name is not None:
            self.release(name)

    def release_table(self, table) -> None:
        """Unlink every segment backing one of ``table``'s columns."""
        for column in table.columns():
            self.release_array(column.values)

    def release_all(self) -> None:
        """Unlink every live segment (pool shutdown / test teardown)."""
        with self._lock:
            names = list(self._segments)
            self._by_id.clear()
        for name in names:
            self.release(name)

    def stats(self) -> dict:
        """Live segment count and cumulative published bytes."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "published_bytes": self._published_bytes,
            }


_store: SharedColumnStore | None = None
_store_lock = threading.Lock()


def _on_catalog_unregister(catalog, name, table) -> None:
    # Disk-resident tables never publish shared segments — touching one
    # here would materialise every column just to release nothing.
    from repro.storage.table import Table

    if _store is not None and isinstance(table, Table):
        _store.release_table(table)


def get_shared_store() -> SharedColumnStore:
    """The process-wide column store (created on first use, with the
    catalog unregister-observer installed)."""
    global _store
    if _store is None:
        with _store_lock:
            if _store is None:
                from repro.storage.catalog import add_unregister_observer

                add_unregister_observer(_on_catalog_unregister)
                _store = SharedColumnStore()
    return _store


def leaked_segments() -> list[str]:
    """Names of ``repro_shm_*`` entries still present in ``/dev/shm``.

    Empty after a clean :func:`shutdown_process_pool`; the SIGKILL tests
    assert exactly that. Returns [] on hosts without ``/dev/shm``.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


# ---------------------------------------------------------------------------
# worker side


def _ref_names(payload, names: set) -> set:
    """Collect the segment names of every :class:`SharedArrayRef` leaf."""
    if isinstance(payload, SharedArrayRef):
        names.add(payload.name)
    elif isinstance(payload, dict):
        for value in payload.values():
            _ref_names(value, names)
    elif isinstance(payload, (list, tuple)):
        for item in payload:
            _ref_names(item, names)
    return names


def _attach(
    ref: SharedArrayRef, cache: dict, protected: set, retired: list
) -> np.ndarray:
    cached = cache.get(ref.name)
    if cached is None:
        while len(cache) >= _WORKER_CACHE_CAP:
            # FIFO eviction (dict preserves insertion order), but never a
            # segment the payload being resolved references — evicting a
            # sibling ref of the same task would munmap memory the kernel
            # is about to read. Evicted segments go onto ``retired``
            # instead of closing here: numpy views into them may still be
            # live until the task's result has been shipped, so the close
            # is deferred to the top of the next task (see _worker_main).
            victim = next((name for name in cache if name not in protected), None)
            if victim is None:
                break  # every cached segment belongs to this payload
            old_shm, __ = cache.pop(victim)
            retired.append(old_shm)
        shm = shared_memory.SharedMemory(name=ref.name)
        # Attaching re-registers the name with the resource tracker. Pool
        # workers share the parent's tracker (the fd travels with spawn),
        # whose cache is a set — the parent registered the name at create
        # time, so this is a no-op and the parent's unlink-time unregister
        # stays balanced. Do NOT unregister here: that empties the shared
        # set early and every later unregister logs a KeyError.
        array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
        array.flags.writeable = False
        cache[ref.name] = (shm, array)
        cached = cache[ref.name]
    return cached[1]


def _resolve(payload, cache: dict, retired: list):
    """Replace every :class:`SharedArrayRef` leaf with its numpy view."""
    protected = _ref_names(payload, set())
    return _resolve_inner(payload, cache, protected, retired)


def _resolve_inner(payload, cache: dict, protected: set, retired: list):
    if isinstance(payload, SharedArrayRef):
        return _attach(payload, cache, protected, retired)
    if isinstance(payload, dict):
        return {
            key: _resolve_inner(value, cache, protected, retired)
            for key, value in payload.items()
        }
    if isinstance(payload, (list, tuple)):
        resolved = [
            _resolve_inner(item, cache, protected, retired) for item in payload
        ]
        return type(payload)(resolved) if isinstance(payload, tuple) else resolved
    return payload


def _task_group(payload: dict):
    from repro.engine.kernels.grouping import GroupingAlgorithm, group_by

    start, stop = payload["start"], payload["stop"]
    keys = payload["keys"][start:stop]
    values = payload["values"]
    if values is not None:
        values = values[start:stop]
    result = group_by(
        keys,
        values,
        GroupingAlgorithm(payload["algorithm"]),
        num_distinct_hint=payload.get("num_distinct_hint"),
    )
    return {
        "keys": result.keys,
        "counts": result.counts,
        "sums": result.sums,
        "key_order": result.key_order.value,
    }


def _task_group_table(payload: dict):
    """One partial-aggregation morsel of the GroupBy operator: rebuild the
    table slice from shared views and run the serial partial kernel."""
    from repro.engine.operators.grouping import group_partial
    from repro.storage.table import Table

    start, stop = payload["start"], payload["stop"]
    table = Table.from_arrays(
        {name: array[start:stop] for name, array in payload["columns"].items()}
    )
    partial = _task_rebuild_specs(payload)
    result = group_partial(
        table,
        payload["key"],
        partial,
        payload["algorithm"],
        payload.get("num_distinct_hint"),
    )
    return {name: result[name] for name in result.schema.names}


def _task_rebuild_specs(payload: dict):
    from repro.engine.aggregates import AggregateFunction, AggregateSpec

    return [
        AggregateSpec(AggregateFunction(function), column, alias)
        for function, column, alias in payload["aggregates"]
    ]


def _task_probe(payload: dict):
    """Probe one shard of the probe side against the shared build side
    (the sharded-probe half of the process parallel join)."""
    from repro.engine.kernels.joins import BuildSide

    start, stop = payload["start"], payload["stop"]
    left, probe_out = BuildSide(**payload["build"]).probe(
        payload["probe"][start:stop]
    )
    return {"left": left, "right": probe_out + np.int64(start)}


def _task_join_partition(payload: dict):
    """One hash partition of an exchange join: a partition-local serial
    join; the parent maps local indices back through the permutations."""
    from repro.engine.kernels.joins import JoinAlgorithm, join

    build = payload["build"][payload["build_start"] : payload["build_stop"]]
    probe = payload["probe"][payload["probe_start"] : payload["probe_stop"]]
    result = join(
        build,
        probe,
        JoinAlgorithm(payload["algorithm"]),
        num_distinct_hint=payload.get("num_distinct_hint"),
    )
    return {"left": result.left_indices, "right": result.right_indices}


def _task_sleep(payload: dict):
    """Test hook: hold a worker busy (SIGKILL / cancellation coverage)."""
    time.sleep(float(payload["seconds"]))
    return payload.get("token")


_TASKS = {
    "group": _task_group,
    "group_table": _task_group_table,
    "probe": _task_probe,
    "join_partition": _task_join_partition,
    "sleep": _task_sleep,
}


def _worker_main(task_queue, result_queue, cancel_event, worker_name: str) -> None:
    # Workers never nest parallelism: whatever REPRO_WORKERS says in the
    # inherited environment, inside a worker everything runs serial.
    from repro.engine.parallel import ExecutorConfig, set_executor_config

    set_executor_config(ExecutorConfig(workers=1))
    cache: dict = {}
    retired: list = []  # evicted segments awaiting a safe close
    try:
        while True:
            item = task_queue.get()
            # Segments evicted during earlier tasks are only unmapped now:
            # their results have long been fed to the parent, so no view —
            # including any the result queue's feeder thread was still
            # pickling — can reference them anymore.
            for shm in retired:
                shm.close()
            retired.clear()
            if item is None:
                break
            batch_id, index, kind, payload, deadline = item
            started = time.perf_counter()
            try:
                if cancel_event.is_set():
                    result_queue.put(
                        (batch_id, index, "cancelled", None, worker_name, 0.0)
                    )
                    continue
                if deadline is not None and time.time() > deadline:
                    result_queue.put(
                        (batch_id, index, "deadline", None, worker_name, 0.0)
                    )
                    continue
                output = _TASKS[kind](_resolve(payload, cache, retired))
                result_queue.put(
                    (
                        batch_id,
                        index,
                        "ok",
                        output,
                        worker_name,
                        time.perf_counter() - started,
                    )
                )
            except BaseException as error:  # noqa: BLE001 - shipped to parent
                detail = {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exc(),
                    "worker": worker_name,
                }
                result_queue.put(
                    (
                        batch_id,
                        index,
                        "error",
                        detail,
                        worker_name,
                        time.perf_counter() - started,
                    )
                )
    finally:
        for shm in retired:
            shm.close()
        for shm, __ in cache.values():
            shm.close()


def _rebuild_error(detail: dict) -> BaseException:
    """Reconstruct a worker-side exception parent-side by class name,
    falling back to :class:`ExecutionError` for anything unknown."""
    import repro.errors as errors_module

    kind = getattr(errors_module, detail.get("type", ""), None)
    message = (
        f"{detail.get('message', '')} "
        f"[in process worker {detail.get('worker', '?')}]"
    ).strip()
    if isinstance(kind, type) and issubclass(kind, Exception):
        try:
            return kind(message)
        except TypeError:
            pass
    return ExecutionError(
        f"{detail.get('type', 'Exception')}: {message}\n"
        f"{detail.get('traceback', '')}"
    )


# ---------------------------------------------------------------------------
# the pool


class ProcessPool:
    """A persistent pool of worker processes fed over a command queue.

    One batch runs at a time (``run_batch`` serialises on a lock — the
    engine schedules one parallel operator per plan node at a time, same
    as the thread pool's usage pattern).
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        method = start_method or os.environ.get("REPRO_PROC_START", "spawn")
        self._ctx = multiprocessing.get_context(method)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._cancel = self._ctx.Event()
        self._batch_lock = threading.Lock()
        self._batch_id = 0
        self._broken = False
        self._workers = []
        for index in range(workers):
            name = f"{WORKER_PROCESS_PREFIX}-{index}"
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, self._cancel, name),
                name=name,
                daemon=True,
            )
            process.start()
            self._workers.append(process)

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def broken(self) -> bool:
        """True once a worker died mid-batch; the pool must be rebuilt."""
        return self._broken

    def run_batch(self, tasks: Sequence[tuple], context=None) -> MorselReport:
        """Run ``(kind, payload)`` tasks; results in submission order.

        :param context: the governing
            :class:`~repro.service.context.QueryContext`, if any. Its
            deadline crosses the process boundary as an absolute
            wall-clock stamp; cancellation (and the first worker error)
            set the shared cancel event, so workers skip every remaining
            task of the batch, and the batch drains before re-raising.
        :raises WorkerCrashError: when a worker process dies mid-batch.
        """
        with self._batch_lock:
            if self._broken:
                raise WorkerCrashError(
                    "process pool is broken (a worker died); rebuild via "
                    "get_process_pool()"
                )
            return self._run_batch_locked(list(tasks), context)

    def _run_batch_locked(self, tasks: list, context) -> MorselReport:
        self._batch_id += 1
        batch_id = self._batch_id
        self._cancel.clear()
        deadline = None
        if context is not None:
            remaining = context.remaining()
            if remaining is not None:
                # Workers live in other processes: monotonic clocks don't
                # transfer, the wall clock does (close enough at morsel
                # granularity).
                deadline = time.time() + max(remaining, 0.0)
        tracer = get_tracer()
        span = None
        if tracer.enabled:
            span_tags = {
                "tasks": len(tasks),
                "workers": self.workers,
                "backend": "process",
            }
            if context is not None:
                span_tags["trace_id"] = context.trace_id
                span_tags["query_id"] = context.query_id
            span = tracer.span("parallel.process_batch", **span_tags)
        try:
            for index, (kind, payload) in enumerate(tasks):
                self._tasks.put((batch_id, index, kind, payload, deadline))
            return self._collect(batch_id, len(tasks), context)
        finally:
            if span is not None:
                span.end()

    def _collect(self, batch_id: int, expected: int, context) -> MorselReport:
        results = [None] * expected
        aborted: tuple[str, int] | None = None  # (status, index)
        first_error: BaseException | None = None
        busy_by_worker: dict[str, float] = {}
        received = 0
        cancel_sent = False
        drain_until: float | None = None
        while received < expected:
            if (
                context is not None
                and not cancel_sent
                and (context.cancelled or context.expired)
            ):
                self._cancel.set()
                cancel_sent = True
            try:
                item = self._results.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                dead = [w for w in self._workers if not w.is_alive()]
                if dead:
                    self._broken = True
                    self._cancel.set()
                    worker = dead[0]
                    raise WorkerCrashError(
                        f"process worker {worker.name} died mid-batch "
                        f"(exitcode {worker.exitcode})",
                        worker=worker.name,
                        exitcode=worker.exitcode,
                    )
                if drain_until is not None and time.time() > drain_until:
                    break
                continue
            item_batch, index, status, payload, worker, elapsed = item
            if item_batch != batch_id:
                continue  # stale result of an aborted earlier batch
            received += 1
            busy_by_worker[worker] = busy_by_worker.get(worker, 0.0) + elapsed
            if status == "ok":
                results[index] = payload
                continue
            if status == "error" and first_error is None:
                first_error = _rebuild_error(payload)
            if aborted is None:
                aborted = (status, index)
            if not cancel_sent:
                self._cancel.set()
                cancel_sent = True
            if drain_until is None:
                drain_until = time.time() + _DRAIN_SECONDS
        if first_error is not None:
            raise first_error
        if context is not None:
            context.check()  # raises QueryCancelled / DeadlineExceeded
        if aborted is not None:
            status, index = aborted
            if status == "deadline":
                raise DeadlineExceeded(
                    f"deadline passed before process task {index} started"
                )
            raise QueryCancelled(f"process task {index} was cancelled")
        busy_seconds = sum(busy_by_worker.values())
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("parallel.morsels", exist_ok=True).inc(expected)
            metrics.gauge("worker.busy_seconds", exist_ok=True).add(busy_seconds)
            for worker, seconds in sorted(busy_by_worker.items()):
                metrics.gauge(
                    f"worker.{worker}.busy_seconds", exist_ok=True
                ).add(seconds)
        return MorselReport(
            results=results,
            workers_used=min(self.workers, expected),
            busy_seconds=busy_seconds,
        )

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: poison pills, join, terminate stragglers."""
        self._cancel.set()
        for __ in self._workers:
            try:
                self._tasks.put(None)
            except (ValueError, OSError):
                break
        for process in self._workers:
            process.join(timeout=timeout)
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()


_pool: ProcessPool | None = None
_pool_size = 0
_pool_lock = threading.Lock()
_pool_users = 0


def get_process_pool(workers: int) -> ProcessPool:
    """The shared pool, grown (never shrunk) to at least ``workers``;
    a broken pool (crashed worker) is torn down and rebuilt."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool.broken or _pool.workers < workers:
            old = _pool
            if old is not None:
                # Wait for any in-flight batch before poison-pilling the
                # old pool: tearing it down mid-batch would surface on
                # the other thread as a spurious WorkerCrashError. No
                # inversion risk — batch-holding threads never take
                # _pool_lock.
                with old._batch_lock:
                    old.shutdown(timeout=1.0)
            _pool_size = max(_pool_size, workers)
            _pool = ProcessPool(_pool_size)
        return _pool


def register_pool_user() -> None:
    """Count a long-lived pool/store user in (a :class:`QueryService`).

    Paired with :func:`release_pool_user`: the shared pool and its
    segments are only torn down when the *last* registered user releases,
    so stopping one of several services in a process never unlinks
    segments from under another's in-flight process-backend queries.
    """
    global _pool_users
    with _pool_lock:
        _pool_users += 1


def release_pool_user(release_segments: bool = True) -> None:
    """Release one :func:`register_pool_user` claim; the last release
    performs the full :func:`shutdown_process_pool` teardown."""
    global _pool_users
    with _pool_lock:
        _pool_users = max(0, _pool_users - 1)
        remaining = _pool_users
    if remaining == 0:
        shutdown_process_pool(release_segments)


def shutdown_process_pool(release_segments: bool = True) -> None:
    """Tear down the pool and (by default) unlink every shared segment.

    This is unconditional — refcounting services go through
    :func:`release_pool_user` instead. Tests and benchmarks call this in
    teardown and then assert :func:`leaked_segments` is empty; atexit
    runs it as the terminal sweep.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
        _pool = None
        _pool_size = 0
    if release_segments and _store is not None:
        _store.release_all()


atexit.register(shutdown_process_pool)


def run_process_tasks(
    tasks: Sequence[tuple], workers: int | None = None, context=None
) -> MorselReport:
    """Run ``(kind, payload)`` tasks on the shared process pool.

    The submitting thread's active query context governs the batch when
    ``context`` is None.
    """
    if workers is None:
        workers = get_executor_config().workers
    workers = max(int(workers), 1)
    if context is None:
        from repro.service.context import get_active_context

        context = get_active_context()
    return get_process_pool(workers).run_batch(tasks, context=context)


# ---------------------------------------------------------------------------
# process twins of the thread parallel kernels


def process_group_by(
    keys: np.ndarray,
    values: np.ndarray | None,
    algorithm,
    shards: int = 4,
    num_distinct_hint: int | None = None,
    workers: int | None = None,
    on_report=None,
):
    """Sharded grouping on the process pool; bit-identical to
    :func:`repro.engine.kernels.parallel.parallel_group_by` (both merge
    through the same key-sorting :func:`merge_partials`)."""
    from repro.engine.kernels.grouping import GroupingResult, KeyOrder, group_by
    from repro.engine.kernels.parallel import merge_partials

    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if shards <= 1 or keys.size == 0:
        return group_by(keys, values, algorithm, num_distinct_hint=num_distinct_hint)
    store = get_shared_store()
    keys_ref = store.publish(keys)
    values_ref = None
    if values is not None:
        values = np.ascontiguousarray(values)
        values_ref = store.publish(values)
    tasks = [
        (
            "group",
            {
                "keys": keys_ref,
                "values": values_ref,
                "start": start,
                "stop": stop,
                "algorithm": algorithm.value,
                "num_distinct_hint": num_distinct_hint,
            },
        )
        for start, stop in morsel_boundaries(keys.size, shards)
    ]
    report = run_process_tasks(tasks, workers=workers)
    if on_report is not None:
        on_report(report)
    partials = [
        GroupingResult(
            keys=r["keys"],
            counts=r["counts"],
            sums=r["sums"],
            key_order=KeyOrder(r["key_order"]),
        )
        for r in report.results
    ]
    return merge_partials(partials)


def process_join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    algorithm,
    shards: int = 4,
    num_distinct_hint: int | None = None,
    workers: int | None = None,
    on_report=None,
):
    """Shared-build, sharded-probe join on the process pool.

    The parent erects the build structure once and publishes its arrays;
    every worker probes the *same* shared-memory structure. Output is
    probe-major in shard order — bit-identical to the serial and thread
    kernels.
    """
    from repro.engine.kernels.joins import (
        JoinOutputOrder,
        JoinResult,
        build_side,
        join,
    )
    from repro.engine.kernels.parallel import PARALLEL_PROBE_ALGORITHMS

    build_keys = np.ascontiguousarray(build_keys, dtype=np.int64)
    probe_keys = np.ascontiguousarray(probe_keys, dtype=np.int64)
    if (
        algorithm not in PARALLEL_PROBE_ALGORITHMS
        or shards <= 1
        or build_keys.size == 0
        or probe_keys.size == 0
    ):
        return join(
            build_keys, probe_keys, algorithm, num_distinct_hint=num_distinct_hint
        )
    store = get_shared_store()
    build = build_side(build_keys, algorithm, num_distinct_hint)
    # Publish the build side field by field. ``keepalive`` holds any
    # contiguous copies until this frame ends: a published segment is
    # released when its source array is collected.
    keepalive = {
        name: np.ascontiguousarray(value)
        for name, value in vars(build).items()
        if isinstance(value, np.ndarray)
    }
    shared_build = {
        **vars(build),
        **{name: store.publish(array) for name, array in keepalive.items()},
    }
    base = {"build": shared_build, "probe": store.publish(probe_keys)}
    tasks = [
        ("probe", {**base, "start": start, "stop": stop})
        for start, stop in morsel_boundaries(probe_keys.size, shards)
    ]
    report = run_process_tasks(tasks, workers=workers)
    if on_report is not None:
        on_report(report)
    left_parts = [r["left"] for r in report.results]
    right_parts = [r["right"] for r in report.results]
    return JoinResult(
        left_indices=np.concatenate(left_parts)
        if left_parts
        else np.empty(0, dtype=np.int64),
        right_indices=np.concatenate(right_parts)
        if right_parts
        else np.empty(0, dtype=np.int64),
        output_order=JoinOutputOrder.PROBE_ORDER,
        structure_bytes=build.structure_bytes,
    )
