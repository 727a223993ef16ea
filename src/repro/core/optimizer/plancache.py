"""The optimiser plan cache: memoised :class:`OptimizationResult`s.

Deep query optimisation pays for its plan quality with enumeration
effort (§4.3's search-statistics tables); a plan cache amortises that
effort across repeated queries, which is how the paper's "longterm
vision" (§6) expects DQO to stay affordable in steady state: the deep
search runs once per (query shape, catalog state) and every repetition
reuses the verdict.

Cache keys combine

* a normalised **query fingerprint** — scans with their pushed-down
  filter conjuncts (order-insensitive), the join-edge set
  (order-insensitive), grouping, aggregates, decoration — so two
  syntactically shuffled but equivalent :class:`QuerySpec`s share an
  entry;
* the **catalog fingerprint** — identity token plus mutation version
  (:meth:`repro.storage.catalog.Catalog.fingerprint`), so registering,
  replacing (fresh statistics), or unregistering a table, or adding a
  constraint, invalidates every plan optimised against the old state;
* the **configuration and cost model identity**, and the executor
  **worker count** — a plan costed for 4 workers is not the plan for 1;
* the **search strategy** — the greedy baseline searches the DP's
  configuration but may keep another plan.

Entries evict LRU. Hits return a fresh :class:`OptimizationResult`
carrying the cached plan with zeroed :class:`SearchStats` and
``cached=True`` — a hit does no enumeration and no property closures.
Lookups report ``optimizer.plancache.{hit,miss}`` (and evictions) to the
process-wide metrics registry when observability is enabled.

The cache is opt-in: pass one to
:class:`~repro.core.optimizer.dp.DynamicProgrammingOptimizer`, or
install a process-wide default with :func:`enable_plan_cache`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    SearchStats,
)
from repro.obs.runtime import get_metrics

if TYPE_CHECKING:
    from repro.core.cost.model import CostModel
    from repro.core.optimizer.query import QuerySpec
    from repro.storage.catalog import Catalog

#: default LRU capacity of a plan cache.
DEFAULT_CAPACITY = 128


def spec_fingerprint(spec: "QuerySpec") -> str:
    """A stable digest of a normalised query specification.

    Scan order is significant (join edges address scans by index), but
    the filter conjuncts within a scan and the join-edge set are sorted:
    conjunction and edge-set order don't change the query.
    """
    parts: list[str] = []
    for scan in spec.scans:
        conjuncts = " & ".join(sorted(repr(f) for f in scan.filters))
        parts.append(f"scan {scan.table_name} as {scan.alias} [{conjuncts}]")
    for edge in sorted(
        (e.left_scan, e.right_scan, e.left_column, e.right_column)
        for e in spec.joins
    ):
        parts.append(f"join {edge}")
    parts.append(f"group {spec.group_key!r}")
    parts.append(f"aggs {[repr(a) for a in spec.aggregates]}")
    if spec.final_outputs is None:
        parts.append("out *")
    else:
        parts.append(
            "out "
            + "; ".join(f"{alias} = {expr!r}" for alias, expr in spec.final_outputs)
        )
    parts.append(f"order {list(spec.order_by)}")
    parts.append(f"limit {spec.limit}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def config_fingerprint(config: OptimizerConfig) -> tuple:
    """The configuration dials a cached plan depends on. View registries
    are compared by identity: registering/dropping views swaps the
    registry object in a fresh config (they are also mutable — callers
    mutating a registry in place must :meth:`PlanCache.clear`)."""
    return (
        config.max_granularity,
        config.property_scope,
        config.consider_commutation,
        config.prune_dominated,
        config.backend,
        id(config.views) if config.views is not None else None,
    )


def _cost_model_fingerprint(cost_model: "CostModel") -> tuple:
    """Delegates to :meth:`CostModel.cache_fingerprint`: stateless models
    fingerprint by class (entries shared across instances), stateful ones
    by instance identity. A model mutated *in place* keeps its identity —
    callers doing that must :meth:`PlanCache.clear`."""
    return cost_model.cache_fingerprint()


class _CacheEntry:
    """One cached result plus its bookkeeping (hits, insertion time)."""

    __slots__ = ("result", "hits", "created_at")

    def __init__(self, result: OptimizationResult) -> None:
        self.result = result
        self.hits = 0
        self.created_at = time.monotonic()


class PlanCache:
    """A thread-safe LRU cache of optimisation results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that required a fresh search."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries displaced by the LRU policy."""
        return self._evictions

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(
        self,
        spec: "QuerySpec",
        catalog: "Catalog",
        config: OptimizerConfig,
        cost_model: "CostModel",
        workers: int,
        strategy: str,
    ) -> tuple:
        """The cache key of one optimisation request. ``strategy`` names
        the search (``"dp"``, ``"greedy"``): two searches over one
        configuration may pick different plans."""
        return (
            spec_fingerprint(spec),
            catalog.fingerprint(),
            config_fingerprint(config),
            _cost_model_fingerprint(cost_model),
            int(workers),
            strategy,
        )

    def get(self, key: tuple) -> OptimizationResult | None:
        """The cached result under ``key``, or None.

        A hit returns a *fresh* :class:`OptimizationResult` sharing the
        (immutable) plan tree but carrying zeroed search stats and
        ``cached=True``; the stored entry is untouched.
        """
        metrics = get_metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                if metrics.enabled:
                    metrics.counter(
                        "optimizer.plancache.miss", exist_ok=True
                    ).inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            entry.hits += 1
        if metrics.enabled:
            metrics.counter("optimizer.plancache.hit", exist_ok=True).inc()
        return replace(
            entry.result,
            stats=SearchStats(),
            alternatives=list(entry.result.alternatives),
            cached=True,
            # A cached verdict ran no search, so it carries no decision
            # trace — without this, replace() would leak the stored
            # result's stamp into every hit.
            search_trace=None,
        )

    def put(self, key: tuple, result: OptimizationResult) -> None:
        """Store ``result`` under ``key``, evicting LRU entries beyond
        capacity."""
        evicted = 0
        with self._lock:
            self._entries[key] = _CacheEntry(result)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "optimizer.plancache.evictions", exist_ok=True
                ).inc(evicted)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> dict:
        """A JSON-friendly snapshot of the cache state."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def entry_stats(self, limit: int | None = None) -> list[dict]:
        """Per-entry statistics, hottest first: the spec fingerprint and
        plan hash each entry serves, its hit count, and its age.

        ``limit`` caps the rows (None = all). A cache key's first
        component is the spec fingerprint (see :meth:`key_for`), so
        entries are attributable back to query-log rows carrying the
        same ``spec_fingerprint``.
        """
        now = time.monotonic()
        with self._lock:
            rows = [
                {
                    "spec_fingerprint": key[0],
                    "plan_hash": entry.result.plan_fingerprint,
                    "hits": entry.hits,
                    "age_seconds": now - entry.created_at,
                    "cost": entry.result.cost,
                    "workers": key[4],
                }
                for key, entry in self._entries.items()
            ]
        rows.sort(key=lambda row: (-row["hits"], row["age_seconds"]))
        return rows if limit is None else rows[: max(int(limit), 0)]


# -- process-wide default cache (opt-in) -----------------------------------

_global_cache: PlanCache | None = None
_global_lock = threading.Lock()


def get_plan_cache() -> PlanCache | None:
    """The process-wide plan cache, or None when caching is disabled
    (the default)."""
    return _global_cache


def set_plan_cache(cache: PlanCache | None) -> None:
    """Install (or, with None, remove) the process-wide plan cache."""
    global _global_cache
    with _global_lock:
        _global_cache = cache


def enable_plan_cache(capacity: int = DEFAULT_CAPACITY) -> PlanCache:
    """Install a process-wide plan cache and return it. Idempotent: an
    already-installed cache is returned unchanged (capacity ignored)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = PlanCache(capacity)
        return _global_cache


def disable_plan_cache() -> None:
    """Remove the process-wide plan cache."""
    set_plan_cache(None)
