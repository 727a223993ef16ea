"""Exception hierarchy for the DQO reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of this package with a single ``except``
clause while still being able to discriminate on the finer-grained classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible."""


class ColumnError(ReproError):
    """A column is malformed, missing, or used with the wrong type."""


class StatisticsError(ReproError):
    """Column statistics are missing or inconsistent with the data."""


class StorageError(ReproError):
    """The disk storage layer hit a malformed file, an unsupported
    on-disk format version, or an invalid segment/buffer operation."""


class DataGenError(ReproError):
    """A dataset generator received impossible parameters."""


class IndexError_(ReproError):
    """An index structure was misused (named with a trailing underscore to
    avoid shadowing the built-in :class:`IndexError`)."""


class PreconditionError(ReproError):
    """A physical algorithm was invoked on input that violates its
    precondition (e.g. order-based grouping on unsorted input, or static
    perfect hashing on a sparse key domain)."""


class ExecutionError(ReproError):
    """A physical plan failed during execution."""


class ConfigurationError(ExecutionError):
    """An executor/runtime configuration value is invalid (e.g.
    ``REPRO_WORKERS=0`` or a non-integer worker count). Subclasses
    :class:`ExecutionError` so existing blanket handlers keep working."""


class WorkerCrashError(ExecutionError):
    """A process worker died mid-batch (killed, segfaulted, or lost).
    Carries the worker's name and, when known, its exit code so the
    failure is attributable in logs and telemetry."""

    def __init__(self, message: str, worker: str = "", exitcode: int | None = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode


class PlanError(ReproError):
    """A logical or physical plan is structurally invalid."""


class ParseError(ReproError):
    """The SQL frontend could not parse the input text."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class OptimizationError(ReproError):
    """The optimiser could not produce a plan (e.g. no implementation
    satisfies the required properties)."""


class ViewError(ReproError):
    """An Algorithmic View was registered, looked up, or applied wrongly."""


class ObservabilityError(ReproError):
    """The observability layer was misused (e.g. ending a span that was
    never started, or registering two metrics under one name)."""


class ServiceError(ReproError):
    """Base class of query-service errors (admission, deadlines,
    cancellation): everything that can go wrong *around* a query rather
    than inside its plan or data."""


class QueryCancelled(ServiceError):
    """The query's cancellation token was triggered while it ran (or
    while it waited in the admission queue)."""


class DeadlineExceeded(ServiceError):
    """The query's deadline passed before it finished. Raised
    cooperatively at chunk/morsel granularity, so the plan unwinds
    cleanly with its pool slots released."""


class MemoryBudgetExceeded(ServiceError):
    """An operator's working set grew past the query's memory budget."""


class AdmissionRejected(ServiceError):
    """The admission controller shed this query (queue full, or the
    queue wait timed out). ``retry_after`` is the controller's estimate
    of when capacity frees up, in seconds."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
