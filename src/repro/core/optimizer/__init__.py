"""The unified SQO/DQO optimiser and its baselines."""

from repro.core.optimizer.base import (
    OptimizationResult,
    OptimizerConfig,
    PropertyScope,
    SearchStats,
    dqo_config,
    sqo_config,
)
from repro.core.optimizer.dp import DynamicProgrammingOptimizer
from repro.core.optimizer.dqo import optimize_dqo
from repro.core.optimizer.exhaustive import ExhaustivePlan, enumerate_exhaustive
from repro.core.optimizer.greedy import GreedyOptimizer, optimize_greedy
from repro.core.optimizer.plancache import (
    PlanCache,
    disable_plan_cache,
    enable_plan_cache,
    get_plan_cache,
    set_plan_cache,
    spec_fingerprint,
)
from repro.core.optimizer.pruning import DPEntry, dominates, pareto_insert
from repro.core.optimizer.query import (
    JoinEdge,
    QuerySpec,
    ScanSpec,
    extract_query,
)
from repro.core.optimizer.rules import (
    GroupingOption,
    JoinOption,
    grouping_options,
    join_options,
)
from repro.core.optimizer.sqo import optimize_sqo

__all__ = [
    "DPEntry",
    "DynamicProgrammingOptimizer",
    "ExhaustivePlan",
    "GreedyOptimizer",
    "GroupingOption",
    "JoinEdge",
    "JoinOption",
    "OptimizationResult",
    "OptimizerConfig",
    "PlanCache",
    "PropertyScope",
    "QuerySpec",
    "ScanSpec",
    "SearchStats",
    "disable_plan_cache",
    "dominates",
    "dqo_config",
    "enable_plan_cache",
    "enumerate_exhaustive",
    "extract_query",
    "get_plan_cache",
    "grouping_options",
    "join_options",
    "set_plan_cache",
    "spec_fingerprint",
    "optimize_dqo",
    "optimize_greedy",
    "optimize_sqo",
    "pareto_insert",
    "sqo_config",
]
