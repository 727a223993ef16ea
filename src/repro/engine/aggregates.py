"""Aggregate functions over slot assignments.

The paper's §4.1 kernels compute COUNT and SUM on the fly; the engine
generalises to the usual decomposable aggregates (§2.1 calls out
"distributive and/or decomposable aggregation functions" as what makes
running aggregates inside SPH arrays possible). Every aggregate here is
computed from the *same* per-row slot assignment that any of the five
grouping algorithms produced — aggregation is algorithm-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.storage.dtypes import DataType


class AggregateFunction(enum.Enum):
    """Supported aggregate functions. All are decomposable."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregateSpec:
    """One requested aggregate: function, input column, and output name.

    ``COUNT`` takes no input column (``column=None`` means ``COUNT(*)``).
    """

    function: AggregateFunction
    column: str | None
    alias: str

    def __post_init__(self) -> None:
        needs_column = self.function is not AggregateFunction.COUNT
        if needs_column and self.column is None:
            raise ExecutionError(
                f"{self.function.value.upper()} requires an input column"
            )

    @property
    def output_dtype(self) -> DataType:
        """Logical type of the aggregate output column."""
        if self.function is AggregateFunction.COUNT:
            return DataType.INT64
        if self.function is AggregateFunction.AVG:
            return DataType.FLOAT64
        return DataType.INT64


def count_star(alias: str = "count") -> AggregateSpec:
    """``COUNT(*) AS alias``."""
    return AggregateSpec(AggregateFunction.COUNT, None, alias)


def sum_of(column: str, alias: str | None = None) -> AggregateSpec:
    """``SUM(column) AS alias``."""
    return AggregateSpec(AggregateFunction.SUM, column, alias or f"sum_{column}")


def min_of(column: str, alias: str | None = None) -> AggregateSpec:
    """``MIN(column) AS alias``."""
    return AggregateSpec(AggregateFunction.MIN, column, alias or f"min_{column}")


def max_of(column: str, alias: str | None = None) -> AggregateSpec:
    """``MAX(column) AS alias``."""
    return AggregateSpec(AggregateFunction.MAX, column, alias or f"max_{column}")


def avg_of(column: str, alias: str | None = None) -> AggregateSpec:
    """``AVG(column) AS alias``."""
    return AggregateSpec(AggregateFunction.AVG, column, alias or f"avg_{column}")


def _sum(slots: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    """SUM per slot: float64 for float input, exact int64 for integers
    (wrapping only where the true sum leaves int64). A float64 detour
    for integers would round partial sums at magnitudes >= 2**53."""
    if np.issubdtype(values.dtype, np.integer):
        sums = np.zeros(num_groups, dtype=np.int64)
        np.add.at(sums, slots, values.astype(np.int64, copy=False))
        return sums
    return np.bincount(
        slots, weights=values.astype(np.float64), minlength=num_groups
    )


def compute_aggregate(
    spec: AggregateSpec,
    slots: np.ndarray,
    num_groups: int,
    values: np.ndarray | None,
) -> np.ndarray:
    """Evaluate one aggregate over a slot assignment.

    :param spec: what to compute.
    :param slots: per-row group slot ids (``0..num_groups-1``).
    :param num_groups: number of groups.
    :param values: the input column's values (None only for COUNT).
    :returns: one value per group, indexed by slot id.
    :raises ExecutionError: on a missing input column or an empty group
        for MIN/MAX (cannot happen for slot assignments produced by the
        grouping kernels, where every slot has at least one row).
    """
    if spec.function is AggregateFunction.COUNT:
        return np.bincount(slots, minlength=num_groups).astype(np.int64)
    if values is None:
        raise ExecutionError(
            f"aggregate {spec.alias!r} needs column {spec.column!r} values"
        )
    if values.size != slots.size:
        raise ExecutionError(
            f"aggregate input length {values.size} != slot count {slots.size}"
        )
    if spec.function is AggregateFunction.SUM:
        return _sum(slots, num_groups, values)
    if spec.function is AggregateFunction.AVG:
        sums = np.bincount(
            slots, weights=values.astype(np.float64), minlength=num_groups
        )
        counts = np.bincount(slots, minlength=num_groups)
        if num_groups and int(counts.min()) == 0:
            raise ExecutionError("AVG over a slot with no rows")
        return sums / counts
    # MIN / MAX via unbuffered scatter-reduce.
    if spec.function is AggregateFunction.MIN:
        out = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(out, slots, values.astype(np.int64))
    else:
        out = np.full(num_groups, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(out, slots, values.astype(np.int64))
    counts = np.bincount(slots, minlength=num_groups)
    if num_groups and int(counts.min()) == 0:
        raise ExecutionError(
            f"{spec.function.value.upper()} over a slot with no rows"
        )
    return out
