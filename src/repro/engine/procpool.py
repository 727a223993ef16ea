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

This module holds no grouping- or join-specific code. What a worker runs
is a *named task*: the dispatcher
(:func:`repro.engine.parallel.run_tasks`) publishes a batch's shared
arrays, ships ``(name, payload)`` pairs, and the worker looks the name up
in the task registry and calls the very function the thread backend
calls — after resolving the payload's refs to shared-memory views. The
only task defined here is the ``sleep`` test hook.

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
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.engine.parallel import (
    MorselReport,
    batch_report,
    get_task,
    map_leaves,
    task,
)
from repro.errors import DeadlineExceeded, ExecutionError, QueryCancelled, WorkerCrashError
from repro.obs.runtime import get_tracer
from repro.settings import check, get_settings, set_settings

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
    leaves: list = []
    map_leaves(payload, leaves.append)
    protected = {leaf.name for leaf in leaves if isinstance(leaf, SharedArrayRef)}

    def attach(leaf):
        if isinstance(leaf, SharedArrayRef):
            return _attach(leaf, cache, protected, retired)
        return leaf

    return map_leaves(payload, attach)


@task("sleep")
def _task_sleep(payload: dict):
    """Test hook: hold a worker busy (SIGKILL / cancellation coverage)."""
    time.sleep(float(payload["seconds"]))
    return payload.get("token")


def _worker_main(task_queue, result_queue, cancel_event, worker_name: str) -> None:
    # Workers never nest parallelism: whatever REPRO_WORKERS says in the
    # inherited environment, inside a worker everything runs serial.
    set_settings(replace(get_settings(), workers=1))
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
                    status, output = "cancelled", None
                elif deadline is not None and time.time() > deadline:
                    status, output = "deadline", None
                else:
                    task_fn = get_task(kind)
                    status, output = "ok", task_fn(_resolve(payload, cache, retired))
            except BaseException as error:  # noqa: BLE001 - shipped to parent
                status, output = "error", {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exc(),
                    "worker": worker_name,
                }
            result_queue.put(
                (batch_id, index, status, output, worker_name, time.perf_counter() - started)
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
        method = start_method or get_settings().proc_start
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
        with get_tracer().span(
            "parallel.process_batch",
            tasks=len(tasks),
            workers=self.workers,
            backend="process",
        ):
            for index, (kind, payload) in enumerate(tasks):
                self._tasks.put((batch_id, index, kind, payload, deadline))
            return self._collect(batch_id, len(tasks), context)

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
        return batch_report(results, self.workers, busy_by_worker)

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
    workers = get_settings().workers if workers is None else check("workers", workers)
    if context is None:
        from repro.service.context import get_active_context

        context = get_active_context()
    return get_process_pool(workers).run_batch(tasks, context=context)
