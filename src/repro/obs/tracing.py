"""Nested span tracing with JSON and Chrome trace export.

A :class:`Tracer` hands out :class:`Span` context managers; spans nest
per-thread (the innermost open span is the parent of the next one), so
wrapping the optimiser's phases and the engine's operators yields a
tree of timed regions. Finished spans export either as plain JSON or
as the Chrome ``chrome://tracing`` / Perfetto event format (open the
file in a Chromium browser's tracing UI to see the flame chart).

A span opened while a :class:`~repro.service.context.QueryContext` is
active on its thread is tagged with the context's ``trace_id`` and
``query_id``, so one id stitches a served request's spans together
across the optimiser, the executor and the morsel workers.

Like metrics, tracing is zero-cost by default: a disabled tracer hands
out one shared no-op span.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.service.context import get_active_context


class Span:
    """One timed region: name, tags, start offset, duration, parent.

    Spans are created by :meth:`Tracer.span` (already started); calling
    :meth:`end` on a span that was never started, or twice, raises
    :class:`~repro.errors.ObservabilityError`.
    """

    __slots__ = (
        "name",
        "tags",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "thread_id",
        "_tracer",
    )

    def __init__(self, name: str, tags: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.tags: dict[str, Any] = dict(tags or {})
        self.span_id = 0
        self.parent_id: int | None = None
        #: seconds since the owning tracer's epoch; None until started.
        self.start: float | None = None
        #: seconds; None while the span is open.
        self.duration: float | None = None
        self.thread_id = 0
        self._tracer: "Tracer | None" = None

    def set_tag(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one tag."""
        self.tags[key] = value

    def end(self) -> None:
        """Close the span and record it with its tracer."""
        if self.start is None or self._tracer is None:
            raise ObservabilityError(
                f"span {self.name!r} was never started; use Tracer.span()"
            )
        if self.duration is not None:
            raise ObservabilityError(f"span {self.name!r} already ended")
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        if self.duration is None:
            self.end()

    def to_dict(self) -> dict:
        """A plain-JSON representation of the finished span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start,
            "duration_s": self.duration,
            "thread_id": self.thread_id,
            "tags": dict(self.tags),
        }


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()
    name = ""
    tags: dict[str, Any] = {}

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans and exports the finished trace.

    :param enabled: when False, :meth:`span` returns a shared no-op
        span and nothing is recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._finished: list[Span] = []

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any) -> Span | _NullSpan:
        """Open a span nested under the current thread's innermost open
        span, tagged with the active query context's ids. Use as a
        context manager, or call :meth:`Span.end`."""
        if not self.enabled:
            return _NULL_SPAN
        active = get_active_context()
        if active is not None:
            tags = {
                "trace_id": active.trace_id,
                "query_id": active.query_id,
                **tags,
            }
        span = Span(name, tags)
        span._tracer = self
        span.start = time.perf_counter() - self._epoch
        span.thread_id = threading.get_ident()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.duration = (time.perf_counter() - self._epoch) - span.start
        stack = self._stack()
        if span in stack:
            # Close any dangling descendants too (misnested exits).
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        with self._lock:
            self._finished.append(span)

    # -- read-out -----------------------------------------------------------

    @property
    def finished_spans(self) -> list[Span]:
        """Finished spans, in end order."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop all finished spans and restart the epoch."""
        with self._lock:
            self._finished.clear()
            self._epoch = time.perf_counter()
            self._next_id = 1

    def to_dicts(self) -> list[dict]:
        """All finished spans as plain dicts, in end order."""
        return [span.to_dict() for span in self.finished_spans]

    def export_json(self) -> str:
        """The finished trace as a JSON document."""
        return json.dumps({"spans": self.to_dicts()}, indent=2, default=str)

    def export_chrome_trace(self) -> str:
        """The trace in Chrome's trace-event format.

        Save to a file and load it in ``chrome://tracing`` (or
        https://ui.perfetto.dev) to browse the flame chart. Durations
        use complete events (``"ph": "X"``) with microsecond units.
        """
        events = [
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round((span.duration or 0.0) * 1e6, 3),
                "pid": 0,
                "tid": span.thread_id,
                "args": dict(span.tags),
            }
            for span in self.finished_spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
