"""Admission control: bounded concurrency with priorities and shedding.

The :class:`AdmissionController` stands between clients and the engine's
one shared morsel pool. It enforces three policies industrial systems
need (PAPERS.md, "Query Optimization in the Wild"):

* **bounded concurrency** — at most ``max_concurrency`` queries hold a
  slot and execute at once; the rest wait in a bounded queue;
* **priority classes** — :class:`Priority` orders the queue (HIGH before
  NORMAL before LOW), FIFO within a class, so an interactive query never
  starves behind a backlog of batch work;
* **load shedding + graceful degradation** — when the queue is full a
  new query is *rejected immediately* with a ``retry_after`` estimate
  (:class:`~repro.errors.AdmissionRejected`) rather than queued into an
  ever-growing backlog; when the queue is merely deep, queries are
  admitted **degraded** (:attr:`AdmissionSlot.degraded`), which the
  session layer maps to serial execution and shallow (SQO-depth)
  optimisation — trading per-query speed for system throughput.

Waiting is cooperative: a queued query's
:class:`~repro.service.context.QueryContext` is polled while it waits,
so a deadline or cancellation fires in the queue too, not just during
execution.

Instrumented into :mod:`repro.obs`: ``service.queue_depth`` (gauge),
``service.admitted`` / ``service.rejected`` / ``service.degraded``
(counters), and ``service.queue_seconds`` (histogram).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
from dataclasses import dataclass

from repro.errors import AdmissionRejected, ServiceError
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.obs.runtime import get_metrics
from repro.service.context import QueryContext

#: how often a queued waiter wakes to poll its context (seconds).
_POLL_SECONDS = 0.02


class Priority(enum.IntEnum):
    """Queue ordering class: higher values admit first."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


@dataclass(frozen=True)
class AdmissionConfig:
    """The controller's policy dials."""

    #: queries allowed to execute concurrently (slots).
    max_concurrency: int = 4
    #: queries allowed to *wait*; one more is shed with retry-after.
    max_queue_depth: int = 16
    #: waiting-query count at which new admissions come back degraded
    #: (serial execution, shallow optimisation). None disables.
    degrade_queue_depth: int | None = 8

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ServiceError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.max_queue_depth < 0:
            raise ServiceError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )


class AdmissionSlot:
    """A granted right to execute: release it when the query finishes.

    Usable as a context manager; releasing twice is a no-op.
    """

    __slots__ = (
        "_controller",
        "_released",
        "priority",
        "degraded",
        "queued_seconds",
        "_granted_at",
    )

    def __init__(
        self,
        controller: "AdmissionController",
        priority: Priority,
        degraded: bool,
        queued_seconds: float,
    ) -> None:
        self._controller = controller
        self._released = False
        self.priority = priority
        #: True when the controller asked this query to run degraded
        #: (serial loop, SQO-depth search) because the system is loaded.
        self.degraded = degraded
        #: seconds this query spent waiting in the admission queue.
        self.queued_seconds = queued_seconds
        self._granted_at = time.monotonic()

    def release(self) -> None:
        """Return the slot (idempotent)."""
        if self._released:
            return
        self._released = True
        self._controller._release(time.monotonic() - self._granted_at)

    def __enter__(self) -> "AdmissionSlot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Grants :class:`AdmissionSlot` objects under the configured policy.

    Thread-safe; one instance fronts one :class:`~repro.service.session.
    QueryService` (or the process, if shared).
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self._config = config or AdmissionConfig()
        self._lock = threading.Lock()
        self._slots_free = threading.Condition(self._lock)
        self._running = 0
        self._heap: list[tuple[int, int, int]] = []  # (-priority, seq, ticket)
        self._live: set[int] = set()  # tickets still waiting (lazy heap deletion)
        self._seq = itertools.count()
        self._closed = False
        #: EMA of slot-hold seconds, seeding the retry-after estimate.
        self._avg_hold_seconds = 0.05
        #: monotonic deadline of an external degrade advisory (the
        #: regression sentinel); 0.0 = no advisory.
        self._advice_until = 0.0

    @property
    def config(self) -> AdmissionConfig:
        return self._config

    @property
    def running(self) -> int:
        """Queries currently holding a slot."""
        with self._lock:
            return self._running

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for a slot."""
        with self._lock:
            return len(self._live)

    def advise_degraded(self, ttl_seconds: float) -> None:
        """Externally advise degraded admissions for ``ttl_seconds``.

        The regression sentinel calls this on a fresh *critical* alert
        (when the service opted in): until the advisory expires, new
        admissions come back degraded (serial, shallow search) even
        with an empty queue — containment while a regression is live.
        A non-positive TTL clears the advisory.
        """
        with self._lock:
            self._advice_until = (
                time.monotonic() + ttl_seconds if ttl_seconds > 0 else 0.0
            )

    def _advised_degraded_locked(self) -> bool:
        return self._advice_until > 0.0 and time.monotonic() < self._advice_until

    def state(self) -> str:
        """The controller's load state, for health reporting.

        ``"shedding"`` — the wait queue is full, so a new query would be
        rejected outright; ``"degraded"`` — deep enough that new
        admissions run degraded (serial, shallow search), or an external
        advisory (:meth:`advise_degraded`) is live; ``"accepting"``
        otherwise. A shut-down controller reports ``"stopped"``.
        """
        with self._lock:
            if self._closed:
                return "stopped"
            depth = len(self._live)
            # Mirrors admit(): a query walks straight in when a slot is
            # free and nobody waits, regardless of queue capacity.
            immediate = (
                self._running < self._config.max_concurrency
                and not self._live
            )
            if not immediate and depth >= self._config.max_queue_depth:
                return "shedding"
            if self._advised_degraded_locked():
                return "degraded"
            degrade_at = self._config.degrade_queue_depth
            if degrade_at is not None and depth >= degrade_at and depth:
                return "degraded"
            return "accepting"

    def retry_after(self) -> float:
        """Estimated seconds until capacity frees for one more query:
        the queue's total expected work divided across the slots."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        backlog = self._running + len(self._live)
        return max(
            self._avg_hold_seconds * backlog / self._config.max_concurrency,
            0.01,
        )

    def admit(
        self,
        priority: Priority = Priority.NORMAL,
        timeout: float | None = None,
        context: QueryContext | None = None,
    ) -> AdmissionSlot:
        """Wait for (or immediately claim) an execution slot.

        :param priority: queue class; HIGH admits before NORMAL before
            LOW, FIFO within a class.
        :param timeout: max seconds to wait before shedding (None = wait
            for the context's deadline, or forever).
        :param context: when given, polled while queued — a cancellation
            or deadline fires in the queue too.
        :raises AdmissionRejected: queue full, wait timed out, or the
            controller is shut down. Carries ``retry_after``.
        :raises repro.errors.QueryCancelled: ``context`` cancelled while
            queued.
        :raises repro.errors.DeadlineExceeded: ``context`` deadline
            passed while queued.
        """
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        metrics = get_metrics()
        started = time.monotonic()
        with self._lock:
            if self._closed:
                raise AdmissionRejected("admission controller is shut down")
            if self._running < self._config.max_concurrency and not self._live:
                self._running += 1
                return self._granted(priority, 0.0, metrics)
            if len(self._live) >= self._config.max_queue_depth:
                retry = self._retry_after_locked()
                if metrics.enabled:
                    metrics.counter("service.rejected", exist_ok=True).inc()
                raise AdmissionRejected(
                    f"admission queue full "
                    f"({self._config.max_queue_depth} waiting); "
                    f"retry in ~{retry:.2f}s",
                    retry_after=retry,
                )
            ticket = next(self._seq)
            heapq.heappush(self._heap, (-int(priority), ticket, ticket))
            self._live.add(ticket)
            self._report_depth(metrics)
            try:
                while True:
                    if (
                        self._running < self._config.max_concurrency
                        and self._head_ticket() == ticket
                    ):
                        heapq.heappop(self._heap)
                        self._live.discard(ticket)
                        self._running += 1
                        self._report_depth(metrics)
                        return self._granted(
                            priority, time.monotonic() - started, metrics
                        )
                    if self._closed:
                        raise AdmissionRejected(
                            "admission controller shut down while queued"
                        )
                    if context is not None:
                        context.check()  # QueryCancelled / DeadlineExceeded
                    wait = _POLL_SECONDS
                    if wait_deadline is not None:
                        remaining = wait_deadline - time.monotonic()
                        if remaining <= 0:
                            retry = self._retry_after_locked()
                            if metrics.enabled:
                                metrics.counter(
                                    "service.rejected", exist_ok=True
                                ).inc()
                            raise AdmissionRejected(
                                f"timed out after {timeout:.2f}s in the "
                                f"admission queue; retry in ~{retry:.2f}s",
                                retry_after=retry,
                            )
                        wait = min(wait, remaining)
                    self._slots_free.wait(timeout=wait)
            finally:
                if ticket in self._live:
                    self._live.discard(ticket)
                    self._report_depth(metrics)

    def _head_ticket(self) -> int | None:
        """The next-admitted waiting ticket (drops stale heap entries)."""
        while self._heap and self._heap[0][2] not in self._live:
            heapq.heappop(self._heap)
        return self._heap[0][2] if self._heap else None

    def _granted(
        self, priority: Priority, queued_seconds: float, metrics
    ) -> AdmissionSlot:
        degrade_at = self._config.degrade_queue_depth
        degraded = (
            degrade_at is not None and len(self._live) >= degrade_at
        ) or self._advised_degraded_locked()
        if metrics.enabled:
            metrics.counter("service.admitted", exist_ok=True).inc()
            if degraded:
                metrics.counter("service.degraded", exist_ok=True).inc()
            metrics.histogram(
                "service.queue_seconds", DEFAULT_BUCKETS, exist_ok=True
            ).observe(queued_seconds)
        return AdmissionSlot(self, priority, degraded, queued_seconds)

    def _report_depth(self, metrics) -> None:
        if metrics.enabled:
            metrics.gauge("service.queue_depth", exist_ok=True).set(
                len(self._live)
            )

    def _release(self, held_seconds: float) -> None:
        with self._lock:
            self._running = max(self._running - 1, 0)
            self._avg_hold_seconds = (
                0.8 * self._avg_hold_seconds + 0.2 * held_seconds
            )
            self._slots_free.notify_all()

    def shutdown(self) -> None:
        """Stop admitting; every queued waiter raises
        :class:`~repro.errors.AdmissionRejected`."""
        with self._lock:
            self._closed = True
            self._slots_free.notify_all()
