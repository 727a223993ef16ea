"""The process-based execution backend (`repro.engine.procpool`).

Covers the shared-memory column store lifecycle (publish/identity-cache/
GC/catalog-unregister) and governance across the process boundary:
deadline propagation, mid-batch cancellation with pool reuse, and a
SIGKILLed worker surfacing as WorkerCrashError with zero leaked
``/dev/shm`` segments after shutdown. What the workers compute is not
this module's business: ``test_task_registry.py`` holds every task to
the same result on both pools, ``test_parallel_routes.py`` every route
to the serial kernels.

The module runs on the ``fork_pool`` fixture so pool spin-up stays cheap
on the test host; one test exercises the default ``spawn`` path
explicitly.
"""

import gc
import os
import signal
import threading
import time

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.engine import count_star, sum_of
from repro.engine.kernels.grouping import GroupingAlgorithm, group_by
from repro.engine.procpool import (
    ProcessPool,
    get_process_pool,
    get_shared_store,
    leaked_segments,
    run_process_tasks,
    shutdown_process_pool,
)
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    PreconditionError,
    QueryCancelled,
    WorkerCrashError,
)
from repro.service.context import CancellationToken, QueryContext
from repro.storage import Catalog, Table

pytestmark = pytest.mark.usefixtures("fork_pool")


def group_task(keys_ref, values_ref, stop, algorithm=GroupingAlgorithm.HG):
    """A hand-built ``group_partial`` batch entry over published refs."""
    aggregates = [count_star("counts")]
    if values_ref is not None:
        aggregates.append(sum_of("values", "sums"))
    return (
        "group_partial",
        {
            "keys": keys_ref,
            "inputs": {} if values_ref is None else {"values": values_ref},
            "aggregates": aggregates,
            "algorithm": algorithm,
            "num_distinct_hint": None,
            "start": 0,
            "stop": stop,
        },
    )


class TestSharedColumnStore:
    def test_publish_roundtrip(self):
        store = get_shared_store()
        array = np.arange(1_000, dtype=np.int64) * 3
        ref = store.publish(array)
        segment = shared_memory.SharedMemory(name=ref.name)
        try:
            view = np.ndarray(
                ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf
            )
            assert np.array_equal(view, array)
        finally:
            segment.close()
        store.release_array(array)

    def test_publish_is_identity_cached(self):
        store = get_shared_store()
        array = np.arange(500, dtype=np.int64)
        before = store.stats()["segments"]
        first = store.publish(array)
        second = store.publish(array)
        assert first.name == second.name
        assert store.stats()["segments"] == before + 1
        store.release_array(array)

    def test_publish_rejects_noncontiguous(self):
        store = get_shared_store()
        with pytest.raises(ExecutionError):
            store.publish(np.arange(100, dtype=np.int64)[::2])

    def test_gc_releases_segment(self):
        store = get_shared_store()
        array = np.arange(2_000, dtype=np.int64)
        name = store.publish(array).name
        assert name in leaked_segments()
        del array
        gc.collect()
        assert name not in leaked_segments()

    def test_catalog_unregister_releases_segments(self, memory_storage):
        store = get_shared_store()
        table = Table.from_arrays({"v": np.arange(1_000, dtype=np.int64)})
        catalog = Catalog()
        catalog.register("T", table)
        name = store.publish(table["v"]).name
        assert name in leaked_segments()
        catalog.unregister("T")
        assert name not in leaked_segments()


class TestGovernance:
    def test_deadline_propagates_to_workers(self):
        context = QueryContext.start(deadline=0.0)
        tasks = [("sleep", {"seconds": 0.2}) for __ in range(4)]
        with pytest.raises(DeadlineExceeded):
            run_process_tasks(tasks, workers=2, context=context)

    def test_cancellation_mid_batch_and_pool_reuse(self):
        token = CancellationToken()
        context = QueryContext.start(token=token)
        tasks = [("sleep", {"seconds": 0.4}) for __ in range(6)]
        timer = threading.Timer(0.1, token.cancel)
        timer.start()
        try:
            with pytest.raises(QueryCancelled):
                run_process_tasks(tasks, workers=2, context=context)
        finally:
            timer.cancel()
        # The pool survives a cancelled batch and runs the next one.
        report = run_process_tasks(
            [("sleep", {"seconds": 0.0, "token": i}) for i in range(3)],
            workers=2,
        )
        assert report.results == [0, 1, 2]

    def test_worker_error_rebuilt_parent_side(self):
        keys = np.arange(100, dtype=np.int64)
        ref = get_shared_store().publish(keys)
        task = group_task(ref, None, 100, algorithm="no-such-algorithm")
        with pytest.raises(PreconditionError, match="no-such-algorithm"):
            run_process_tasks([task], workers=2)
        get_shared_store().release_array(keys)

    def test_sigkill_mid_morsel_raises_worker_crash(self):
        pool = get_process_pool(2)
        victim = pool._workers[0]
        timer = threading.Timer(
            0.1, lambda: os.kill(victim.pid, signal.SIGKILL)
        )
        timer.start()
        tasks = [("sleep", {"seconds": 0.5}) for __ in range(6)]
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run_batch(tasks)
        finally:
            timer.cancel()
        assert pool.broken
        assert excinfo.value.worker == victim.name
        # A later batch transparently gets a rebuilt pool ...
        report = run_process_tasks(
            [("sleep", {"seconds": 0.0, "token": "ok"})], workers=2
        )
        assert report.results == ["ok"]
        # ... and a broken pool refuses new batches outright.
        with pytest.raises(WorkerCrashError):
            pool.run_batch([("sleep", {"seconds": 0.0})])

    def test_shutdown_unlinks_all_segments(self):
        store = get_shared_store()
        keep = np.arange(5_000, dtype=np.int64)
        store.publish(keep)
        run_process_tasks([("sleep", {"seconds": 0.0})], workers=2)
        shutdown_process_pool()
        assert leaked_segments() == []
        # The next request transparently builds a fresh pool.
        report = run_process_tasks(
            [("sleep", {"seconds": 0.0, "token": "fresh"})], workers=2
        )
        assert report.results == ["fresh"]


class TestWorkerSegmentCache:
    def test_eviction_past_cap_never_unmaps_current_payload(self):
        """Regression: LIFO eviction used to close a segment attached
        moments earlier for the *same* multi-ref payload once a worker's
        cache hit its cap, so the kernel read unmapped memory (worker
        segfault or silently wrong results)."""
        from repro.engine.procpool import _WORKER_CACHE_CAP

        rng = np.random.default_rng(11)
        store = get_shared_store()
        keepalive = []
        tasks = []
        for __ in range(_WORKER_CACHE_CAP):
            keys = rng.integers(0, 8, size=32).astype(np.int64)
            keepalive.append(keys)
            tasks.append(group_task(store.publish(keys), None, int(keys.size)))
        # The capstone task carries two fresh refs: with the cache at its
        # cap, attaching ``values`` must not evict (and unmap) ``keys``.
        keys = rng.integers(0, 8, size=4_096).astype(np.int64)
        values = rng.integers(0, 1_000, size=4_096).astype(np.int64)
        keepalive += [keys, values]
        tasks.append(
            group_task(store.publish(keys), store.publish(values), int(keys.size))
        )
        pool = ProcessPool(1)  # one worker sees every task in order
        try:
            report = pool.run_batch(tasks)
        finally:
            pool.shutdown()
        expected = group_by(keys, values, GroupingAlgorithm.HG)
        group_keys, columns = report.results[-1]
        assert np.array_equal(group_keys, expected.keys)
        assert np.array_equal(columns["counts"], expected.counts)
        assert np.array_equal(columns["sums"], expected.sums)
        for array in keepalive:
            store.release_array(array)


class TestPoolUserRefcount:
    def test_stopping_one_service_keeps_pool_for_another(self):
        """Regression: QueryService.shutdown() used to tear down the
        process-global pool and unlink every segment unconditionally,
        breaking any other service's in-flight process-backend queries."""
        from repro.engine import procpool
        from repro.service.session import QueryService

        # Hermetic refcount: services elsewhere in the suite may still
        # hold claims; park them for the duration of this test.
        with procpool._pool_lock:
            parked, procpool._pool_users = procpool._pool_users, 0
        catalog = Catalog()
        catalog.register(
            "T", Table.from_arrays({"v": np.arange(100, dtype=np.int64)})
        )
        first = QueryService(catalog)
        second = QueryService(catalog)
        try:
            store = get_shared_store()
            pinned = np.arange(4_000, dtype=np.int64)
            name = store.publish(pinned).name
            first.shutdown()
            # `second` still owns the pool: segments stay mapped and new
            # batches run.
            assert name in leaked_segments()
            report = run_process_tasks(
                [("sleep", {"seconds": 0.0, "token": "alive"})], workers=2
            )
            assert report.results == ["alive"]
            second.shutdown()
            # Last user out: full teardown, segments unlinked.
            assert name not in leaked_segments()
        finally:
            with procpool._pool_lock:
                procpool._pool_users += parked


class TestSpawnStartMethod:
    def test_spawn_pool_roundtrip(self):
        """The production default (fork-safe under service threads)."""
        pool = ProcessPool(1, start_method="spawn")
        try:
            report = pool.run_batch(
                [("sleep", {"seconds": 0.0, "token": "spawned"})]
            )
            assert report.results == ["spawned"]
        finally:
            pool.shutdown()
