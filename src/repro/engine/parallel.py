"""The morsel scheduler: a shared worker pool for intra-operator parallelism.

Morsel-driven parallelism ([14] Leis et al.) splits an operator's input
into fixed-size *morsels* and lets a pool of workers pull them; the
engine's vectorised kernels release the GIL inside numpy, so CPython
threads achieve genuine wall-clock speedup on multi-core hosts.

This module owns the process-wide pieces (the worker count and backend
are :class:`repro.settings.Settings` fields):

* one lazily-created, shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (named ``repro-worker-N`` threads) that every parallel operator
  schedules onto — one pool per process, as in the morsel paper;
* :func:`run_morsels` — the scheduling primitive: submit a list of
  morsel thunks, collect results *in submission order* (determinism),
  and attribute per-worker busy time to the process-wide metrics
  (``parallel.morsels``, ``worker.busy_seconds``) and tracer
  (``parallel.morsel`` spans);
* the **task registry** and :func:`run_tasks` — the one entry point for
  intra-operator parallel work: a morsel task is a module-level function
  registered under a name (:func:`task`), run over shared arrays and
  small per-morsel pieces on either backend. The caller cuts the rows
  into ranges (:func:`morsel_boundaries`) before dispatch.

Degenerate cases run inline on the calling thread: a single morsel, a
one-worker configuration, or a call made *from* a worker thread (nested
parallelism would deadlock a bounded pool; morsels stay coarse instead).

Service integration: :func:`run_morsels` captures the submitting
thread's :class:`~repro.service.context.QueryContext` (if any) and
re-installs it inside each worker, polling it before every morsel — so
deadlines and cancellation propagate into parallel execution at morsel
granularity. When a task fails (or a poll raises), every not-yet-started
future in the batch is cancelled and the batch is drained before the
error re-raises: no orphaned futures keep computing for a dead query.
Pool threads are daemonic, so a ``KeyboardInterrupt`` can always exit
the process even while morsels are in flight.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import ExecutionError
from repro.obs.runtime import get_metrics, get_tracer
from repro.service.context import activate_context, get_active_context
from repro.settings import check, get_settings

T = TypeVar("T")

#: thread-name prefix of pool workers; also the nested-scheduling sentinel.
WORKER_THREAD_PREFIX = "repro-worker"

_pool: "_MorselPool | None" = None
_pool_size = 0
_pool_lock = threading.Lock()


class _MorselPool:
    """A shared pool of daemonic worker threads with cancellable futures.

    Deliberately not a :class:`~concurrent.futures.ThreadPoolExecutor`:
    its threads are non-daemonic (since Python 3.9) and joined at
    interpreter exit, so a ``KeyboardInterrupt`` mid-batch used to hang
    the process until every submitted morsel finished. This pool keeps
    the same ``submit() -> Future`` surface but starts daemon threads,
    so pending work never blocks process exit, and a pending future's
    ``cancel()`` genuinely prevents its task from starting.
    """

    def __init__(self, workers: int) -> None:
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._work,
                name=f"{WORKER_THREAD_PREFIX}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def workers(self) -> int:
        return len(self._threads)

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        self._queue.put((future, fn, args))
        return future

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while pending: never runs
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # noqa: BLE001 - delivered via future
                future.set_exception(error)

    def shutdown(self, wait: bool = True) -> None:
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)


def _get_pool(workers: int) -> _MorselPool:
    """The shared pool, grown (never shrunk) to at least ``workers``."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool_size = max(_pool_size, workers)
            _pool = _MorselPool(_pool_size)
        return _pool


def on_worker_thread() -> bool:
    """True when the calling thread is a pool worker (nested scheduling
    from here would deadlock a bounded pool — run inline instead)."""
    return threading.current_thread().name.startswith(WORKER_THREAD_PREFIX)


@dataclass
class MorselReport:
    """What :func:`run_morsels` did: results plus scheduling facts."""

    #: one result per task, in submission order.
    results: list
    #: workers the batch was scheduled across (1 = ran inline, serial).
    workers_used: int = 1
    #: summed wall time the tasks spent executing (across all workers).
    busy_seconds: float = 0.0


def run_morsels(
    tasks: Sequence[Callable[[], T]],
    workers: int | None = None,
) -> MorselReport:
    """Run morsel ``tasks`` and return their results in submission order.

    :param tasks: zero-argument callables, one per morsel.
    :param workers: worker-count override; defaults to
        :func:`repro.settings.get_settings`'s.
    :returns: a :class:`MorselReport`; ``results[i]`` is ``tasks[i]()``.

    Exceptions propagate: on the first failing task (or a deadline /
    cancellation poll firing), every not-yet-started future in the batch
    is cancelled, the already-running morsels are drained, and the first
    error re-raises — the pool is left empty, with no orphaned futures.

    Runs inline — on the calling thread, sequentially — when fewer than
    two tasks or workers are involved, or when called from a worker
    thread (nested parallelism). The submitting thread's active
    :class:`~repro.service.context.QueryContext` governs both paths: it
    is polled before every morsel, inline or pooled.
    """
    tasks = list(tasks)
    workers = get_settings().workers if workers is None else check("workers", workers)
    context = get_active_context()
    if len(tasks) <= 1 or workers == 1 or on_worker_thread():
        started = time.perf_counter()
        results = []
        for task in tasks:
            if context is not None:
                context.check()
            results.append(task())
        return MorselReport(
            results=results,
            workers_used=1,
            busy_seconds=time.perf_counter() - started,
        )

    tracer = get_tracer()
    busy_lock = threading.Lock()
    busy_by_worker: dict[str, float] = {}
    # The shared pool only grows, so it may hold more threads than this
    # batch's workers: the gate holds the batch to that many at a time.
    gate = threading.Semaphore(workers)
    failed = threading.Event()

    def measured(task: Callable[[], T], index: int) -> T:
        worker = threading.current_thread().name
        with activate_context(context):
            if context is not None:
                context.check()
            started = time.perf_counter()
            with tracer.span("parallel.morsel", index=index, worker=worker):
                result = task()
        elapsed = time.perf_counter() - started
        with busy_lock:
            busy_by_worker[worker] = busy_by_worker.get(worker, 0.0) + elapsed
        return result

    def timed(task: Callable[[], T], index: int) -> T:
        with gate:
            if failed.is_set():
                # Waited at the gate while the batch failed: as cancelled.
                raise CancelledError
            return measured(task, index)

    pool = _get_pool(workers)
    futures = [
        pool.submit(timed, task, index) for index, task in enumerate(tasks)
    ]
    results = []
    first_error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except CancelledError:
            results.append(None)  # cancelled below, after the first error
        except BaseException as error:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = error
                failed.set()
                for pending in futures:
                    pending.cancel()
            results.append(None)
    if first_error is not None:
        raise first_error
    return batch_report(results, workers, busy_by_worker)


def batch_report(
    results: list, workers: int, busy_by_worker: dict[str, float]
) -> MorselReport:
    """The report of a batch that ran on a pool (either one), with its
    busy time stamped into the process-wide ``parallel.*`` metrics."""
    busy_seconds = sum(busy_by_worker.values())
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("parallel.morsels", exist_ok=True).inc(len(results))
        metrics.gauge("worker.busy_seconds", exist_ok=True).add(busy_seconds)
        for worker, seconds in sorted(busy_by_worker.items()):
            metrics.gauge(
                f"worker.{worker}.busy_seconds", exist_ok=True
            ).add(seconds)
    return MorselReport(
        results=results,
        workers_used=min(workers, len(results)),
        busy_seconds=busy_seconds,
    )


def morsel_boundaries(num_rows: int, morsels: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` splits of ``num_rows``.

    Empty splits are dropped, so fewer than ``morsels`` pairs may return.
    """
    if morsels < 1:
        raise ExecutionError(f"morsels must be >= 1, got {morsels}")
    bounds = []
    for index in range(morsels):
        start = num_rows * index // morsels
        stop = num_rows * (index + 1) // morsels
        if stop > start:
            bounds.append((start, stop))
    return bounds


# ---------------------------------------------------------------------------
# named tasks: written once, run on either pool

_TASKS: dict[str, Callable[[dict], object]] = {}


def task(kind: str) -> Callable[[Callable], Callable]:
    """Register a module-level function as the morsel task ``kind``.

    A task takes one ``payload`` dict — the batch's shared inputs merged
    with one piece — and returns picklable values (arrays, tuples of
    arrays). It must not care which pool runs it: that is the whole
    contract, and ``tests/engine/test_task_registry.py`` checks it for
    every registered kind.
    """

    def register(fn: Callable[[dict], object]) -> Callable[[dict], object]:
        if _TASKS.setdefault(kind, fn) is not fn:
            raise ExecutionError(f"task {kind!r} is already registered")
        return fn

    return register


def registered_tasks() -> dict[str, Callable[[dict], object]]:
    """The registry, with the engine's own tasks loaded (they register
    when :mod:`repro.engine.kernels.parallel` is imported — which a
    freshly spawned worker process may not have done yet)."""
    import repro.engine.kernels.parallel  # noqa: F401 - registers tasks

    return _TASKS


def get_task(kind: str) -> Callable[[dict], object]:
    """The function registered as ``kind``."""
    tasks = registered_tasks()
    if kind not in tasks:
        raise ExecutionError(f"no task {kind!r}; registered: {sorted(tasks)}")
    return tasks[kind]


def map_leaves(value, leaf: Callable):
    """``value`` rebuilt with ``leaf`` applied to everything in it that
    is not a dict, list or tuple — the one walk over a payload's shape,
    shared by publishing (arrays -> refs) and resolving (refs -> views)."""
    if isinstance(value, dict):
        return {key: map_leaves(item, leaf) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map_leaves(item, leaf) for item in value)
    return leaf(value)


def run_tasks(
    kind: str,
    shared: dict,
    pieces: Sequence[dict],
    backend: str,
    workers: int | None = None,
) -> MorselReport:
    """Run the task ``kind`` once per piece; results in piece order.

    :param shared: inputs every piece reads — a (possibly nested) dict
        whose ndarray leaves are the big arrays (columns);
        everything else must be small and picklable.
    :param pieces: one small dict per morsel (bounds); each call's
        payload is ``{**shared, **piece}``.
    :param backend: ``"thread"`` or ``"process"``.
    :param workers: worker-count override; defaults to
        :func:`repro.settings.get_settings`'s.

    Deadlines, cancellation, error propagation and busy-time accounting
    are those of :func:`run_morsels` and
    :meth:`repro.engine.procpool.ProcessPool.run_batch` respectively.
    """
    fn = get_task(kind)
    if check("backend", backend) == "process":
        from repro.engine.procpool import get_shared_store, run_process_tasks

        store = get_shared_store()
        # Publishing needs C-contiguous arrays, and a published segment
        # lives only as long as its source array: the contiguous copies
        # are held here until the batch has drained.
        keepalive: list = []

        def publish(value):
            if not isinstance(value, np.ndarray):
                return value
            keepalive.append(np.ascontiguousarray(value))
            return store.publish(keepalive[-1])

        refs = map_leaves(shared, publish)
        report = run_process_tasks(
            [(kind, {**refs, **piece}) for piece in pieces], workers=workers
        )
        del keepalive
        return report
    return run_morsels(
        [(lambda piece=piece: fn({**shared, **piece})) for piece in pieces],
        workers=workers,
    )
