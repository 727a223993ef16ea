"""The query service: sessions, admission control, deadlines, cancellation.

This package turns the library into something you can *serve traffic
with*: :class:`QueryService` runs SQL end-to-end (parse → optimise with
the plan cache → morsel-parallel execution) under per-query resource
governance, :class:`AdmissionController` bounds concurrency with
priority classes and load shedding, :class:`Session` scopes client
settings, and :class:`QueryServer` exposes it all over a TCP protocol
(JSON-line requests, query results as raw column buffers) with graceful
shutdown.

Submodules import lazily (PEP 562): the engine imports
:mod:`repro.service.context` from its hot path, and an eager package
``__init__`` would close an import cycle through the executor.
"""

from __future__ import annotations

_EXPORTS = {
    "CancellationToken": "repro.service.context",
    "QueryContext": "repro.service.context",
    "activate_context": "repro.service.context",
    "check_active_context": "repro.service.context",
    "get_active_context": "repro.service.context",
    "AdmissionConfig": "repro.service.admission",
    "AdmissionController": "repro.service.admission",
    "AdmissionSlot": "repro.service.admission",
    "Priority": "repro.service.admission",
    "QueryOutcome": "repro.service.session",
    "QueryService": "repro.service.session",
    "ServiceConfig": "repro.service.session",
    "Session": "repro.service.session",
    "QueryServer": "repro.service.server",
    "ServiceClient": "repro.service.server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
