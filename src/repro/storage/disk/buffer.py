"""The buffer manager: a byte-budgeted segment cache with clock eviction.

Scans never read column files directly — they :meth:`~BufferManager.
acquire` a *lease* on a ``(table, column, segment)`` key and the buffer
manager either serves the cached frame (a **hit**) or invokes the
caller's loader (a **miss**), caching the decoded array under the
budget. Leases pin their frame: pinned frames are never evicted, so an
array handed to a scan stays valid until the lease is released.

Eviction is the classic clock (second-chance) sweep: every hit sets the
frame's reference bit; the hand clears bits as it passes and evicts the
first unpinned frame found clear. The invariant the concurrency stress
test asserts is *hard*: cached bytes never exceed the budget. A load
that cannot fit even after a full sweep (every frame pinned, or the
segment alone is larger than the budget) is served **transient** — the
array goes to the caller but is never cached, so the pool stays inside
its budget and scans never deadlock waiting for frames. Transient bytes
are the query's working set and are charged to the operator's
``memory_bytes()`` accounting by the scan, exactly like any other
working array.

When observability is enabled (:func:`repro.obs.enable_observability`)
the pool reports ``storage.buffer.{hits,misses,evictions}`` counters and
a ``storage.buffer.resident_bytes`` gauge.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.errors import StorageError
from repro.settings import get_settings


@dataclass
class Lease:
    """A pinned (or transient) segment handed out by :meth:`acquire`."""

    key: tuple
    #: the decoded segment values (read-only; valid until release).
    array: np.ndarray
    #: True when the load missed the cache (the caller did disk I/O).
    cold: bool
    #: payload bytes read from disk for this load (0 on a hit).
    bytes_read: int
    #: True when the frame was served outside the cache (over-budget).
    transient: bool = False


class _Frame:
    __slots__ = ("key", "array", "nbytes", "pins", "referenced")

    def __init__(self, key: tuple, array: np.ndarray, nbytes: int) -> None:
        self.key = key
        self.array = array
        self.nbytes = nbytes
        self.pins = 1  # born pinned by the acquiring lease
        self.referenced = True


class BufferManager:
    """A byte-budgeted cache of decoded column segments.

    :param budget_bytes: hard ceiling on cached (resident) bytes; ``None``
        takes the ``buffer_bytes`` setting (``REPRO_BUFFER_BYTES``,
        default 256 MiB).
    """

    def __init__(self, budget_bytes: int | None = None, name: str = "buffer") -> None:
        if budget_bytes is None:
            budget_bytes = get_settings().buffer_bytes
        if budget_bytes <= 0:
            raise StorageError(f"buffer budget must be > 0, got {budget_bytes}")
        self._budget = int(budget_bytes)
        self._name = name
        self._lock = threading.RLock()
        self._frames: dict[tuple, _Frame] = {}
        self._clock: list[tuple] = []  # frame keys in clock order
        self._hand = 0
        self._resident = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._transient_loads = 0

    # -- the lease protocol -------------------------------------------------

    def acquire(
        self,
        key: tuple,
        loader: Callable[[], tuple[np.ndarray, int]],
        cacheable: bool = True,
    ) -> Lease:
        """Pin ``key``'s segment, loading it on a miss.

        ``loader`` returns ``(array, bytes_read_from_disk)``; it runs
        outside the pool lock, so concurrent queries overlap their I/O.
        Release every lease (``release`` or the :meth:`lease` context
        manager) — pinned frames are immune to eviction.
        """
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                frame.pins += 1
                frame.referenced = True
                self._hits += 1
                self._note_metrics(hits=1)
                return Lease(key=key, array=frame.array, cold=False, bytes_read=0)
        array, bytes_read = loader()
        nbytes = int(array.nbytes)
        with self._lock:
            self._misses += 1
            self._note_metrics(misses=1)
            frame = self._frames.get(key)
            if frame is not None:
                # Lost a load race; the winner's frame is the cached one.
                frame.pins += 1
                frame.referenced = True
                return Lease(key=key, array=frame.array, cold=True, bytes_read=bytes_read)
            if (
                cacheable
                and nbytes <= self._budget
                and self._make_room(nbytes)
            ):
                self._frames[key] = _Frame(key, array, nbytes)
                self._clock.append(key)
                self._resident += nbytes
                self._note_metrics(resident=True)
                return Lease(key=key, array=array, cold=True, bytes_read=bytes_read)
            self._transient_loads += 1
            return Lease(
                key=key, array=array, cold=True, bytes_read=bytes_read, transient=True
            )

    def release(self, lease: Lease) -> None:
        """Unpin a lease; transient leases release trivially."""
        if lease.transient:
            return
        with self._lock:
            frame = self._frames.get(lease.key)
            if frame is not None and frame.pins > 0:
                frame.pins -= 1

    def lease(self, key, loader):
        """Context-manager form of :meth:`acquire`/:meth:`release`."""
        return _LeaseContext(self, key, loader)

    # -- eviction -----------------------------------------------------------

    def _make_room(self, nbytes: int) -> bool:
        """Evict (clock sweep) until ``nbytes`` fit; False if impossible.

        Caller holds the lock. Two full passes give every referenced
        frame its second chance; after that only pinned frames remain.
        """
        passes = 0
        while self._resident + nbytes > self._budget:
            if not self._clock or passes > 2 * len(self._clock):
                return False
            if self._hand >= len(self._clock):
                self._hand = 0
            key = self._clock[self._hand]
            frame = self._frames[key]
            if frame.pins > 0:
                self._hand += 1
            elif frame.referenced:
                frame.referenced = False
                self._hand += 1
            else:
                del self._frames[key]
                del self._clock[self._hand]
                self._resident -= frame.nbytes
                self._evictions += 1
                self._note_metrics(evictions=1, resident=True)
            passes += 1
        return True

    def invalidate(self, prefix: Hashable | None = None) -> int:
        """Drop unpinned frames whose key starts with ``prefix`` (all
        frames when ``None``); returns the count dropped. Called when a
        disk table is rewritten/appended so stale segments never serve."""
        dropped = 0
        with self._lock:
            for key in list(self._clock):
                if prefix is not None and key[0] != prefix:
                    continue
                frame = self._frames[key]
                if frame.pins > 0:
                    continue
                del self._frames[key]
                self._clock.remove(key)
                self._resident -= frame.nbytes
                dropped += 1
            self._hand = 0
            if dropped:
                self._note_metrics(resident=True)
        return dropped

    # -- introspection ------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """The hard cached-bytes ceiling."""
        return self._budget

    def resident_bytes(self) -> int:
        """Bytes currently cached (never exceeds :attr:`budget_bytes`)."""
        with self._lock:
            return self._resident

    def resident_bytes_for(self, prefix: Hashable) -> int:
        """Cached bytes whose key's first element equals ``prefix``
        (a table uid) — the residency input to the cost model's
        buffer-hit probability."""
        with self._lock:
            return sum(
                frame.nbytes
                for frame in self._frames.values()
                if frame.key[0] == prefix
            )

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, evictions, residency."""
        with self._lock:
            return {
                "name": self._name,
                "budget_bytes": self._budget,
                "resident_bytes": self._resident,
                "frames": len(self._frames),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "transient_loads": self._transient_loads,
            }

    def _note_metrics(
        self, hits: int = 0, misses: int = 0, evictions: int = 0, resident: bool = False
    ) -> None:
        # Imported lazily: storage must not drag the observability (and
        # transitively engine) packages in at import time.
        from repro.obs.runtime import get_metrics

        metrics = get_metrics()
        if not metrics.enabled:
            return
        if hits:
            metrics.counter("storage.buffer.hits", exist_ok=True).inc(hits)
        if misses:
            metrics.counter("storage.buffer.misses", exist_ok=True).inc(misses)
        if evictions:
            metrics.counter("storage.buffer.evictions", exist_ok=True).inc(evictions)
        if resident:
            metrics.gauge("storage.buffer.resident_bytes", exist_ok=True).set(
                self._resident
            )


class _LeaseContext:
    __slots__ = ("_pool", "_key", "_loader", "_lease")

    def __init__(self, pool: BufferManager, key, loader) -> None:
        self._pool = pool
        self._key = key
        self._loader = loader
        self._lease: Lease | None = None

    def __enter__(self) -> Lease:
        self._lease = self._pool.acquire(self._key, self._loader)
        return self._lease

    def __exit__(self, *exc_info) -> None:
        if self._lease is not None:
            self._pool.release(self._lease)
            self._lease = None


# -- the process-wide default pool -------------------------------------------

_default_lock = threading.Lock()
_default: BufferManager | None = None


def get_buffer_manager() -> BufferManager:
    """The process-wide buffer pool, created on first use with the
    ``buffer_bytes`` setting as its budget."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = BufferManager(name="default")
    return _default


def set_buffer_manager(manager: BufferManager | None) -> None:
    """Install (or, with ``None``, reset) the process-wide pool —
    test/benchmark hook for pinning a specific budget."""
    global _default
    with _default_lock:
        _default = manager
