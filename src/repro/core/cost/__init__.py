"""Cost models: the paper's Table 2, and cardinalities."""

from repro.core.cost.cardinality import CardinalityEstimator, RelationEstimate
from repro.core.cost.model import CostModel
from repro.core.cost.paper import AccessPathCostModel, PaperCostModel

__all__ = [
    "AccessPathCostModel",
    "CardinalityEstimator",
    "CostModel",
    "PaperCostModel",
    "RelationEstimate",
]
