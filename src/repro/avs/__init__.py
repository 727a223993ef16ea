"""Algorithmic Views (§3) and the AV Selection Problem, with partial
AVs (§6)."""

from repro.avs.partial import (
    PartialAlgorithmicView,
    bind_offline,
    enumeration_savings,
)
from repro.avs.registry import AVRegistry
from repro.avs.selection import (
    CandidateView,
    SelectionResult,
    best_query_cost,
    enumerate_candidates,
    exhaustive_avsp,
    greedy_avsp,
    workload_cost,
)
from repro.avs.view import (
    AlgorithmicView,
    DictionaryViewArtifact,
    ViewKind,
    build_cost_of,
    materialize_view,
)

__all__ = [
    "AVRegistry",
    "AlgorithmicView",
    "CandidateView",
    "DictionaryViewArtifact",
    "PartialAlgorithmicView",
    "SelectionResult",
    "ViewKind",
    "best_query_cost",
    "bind_offline",
    "build_cost_of",
    "enumerate_candidates",
    "enumeration_savings",
    "exhaustive_avsp",
    "greedy_avsp",
    "materialize_view",
    "workload_cost",
]
