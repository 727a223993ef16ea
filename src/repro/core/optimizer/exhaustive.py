"""Exhaustive plan enumeration — a validation oracle for the DP.

Enumerates *every* plan in the DP's search space for two-relation
join+group-by queries (all join implementations x all grouping
implementations x all enforcer placements) and returns the cheapest.
Property-based tests assert the DP's cost equals this oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost.model import CostModel
from repro.core.cost.paper import PaperCostModel
from repro.core.optimizer.base import OptimizerConfig, SearchStats, dqo_config
from repro.core.optimizer.dp import DynamicProgrammingOptimizer, base_access_cost
from repro.core.optimizer.query import QuerySpec, extract_query
from repro.core.optimizer.rules import grouping_options, join_options
from repro.core.properties import (
    Correlations,
    correlations_from_table,
    properties_from_table,
)
from repro.engine.parallel import get_executor_config
from repro.errors import OptimizationError
from repro.obs.search.trace import get_search_trace
from repro.logical.algebra import LogicalPlan
from repro.service.context import check_active_context
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class ExhaustivePlan:
    """One complete plan of the exhaustive space, with its total cost."""

    description: str
    cost: float
    #: estimated output cardinality (same estimation chain as the DP).
    rows: float = 0.0


def enumerate_exhaustive(
    plan: LogicalPlan,
    catalog: Catalog,
    cost_model: CostModel | None = None,
    config: OptimizerConfig | None = None,
    stats: SearchStats | None = None,
) -> list[ExhaustivePlan]:
    """All complete plans for a 1- or 2-relation query, any cost order.

    :param stats: when given, ``generated``/``retained`` record the size
        of the enumerated space (the oracle never prunes, so both equal
        the number of plans).
    :raises OptimizationError: for queries outside the supported shape.
    """
    spec = extract_query(plan)
    cost_model = cost_model or PaperCostModel()
    config = config or dqo_config()
    # Same worker resolution as the DP: the oracle must cost the same
    # implementation space, parallel-loop variants included.
    workers = max(
        config.workers
        if config.workers is not None
        else get_executor_config().workers,
        1,
    )
    if len(spec.scans) > 2:
        raise OptimizationError(
            "exhaustive oracle supports at most 2 relations, got "
            f"{len(spec.scans)}"
        )
    if spec.scans and spec.scans[0].filters or (
        len(spec.scans) > 1 and spec.scans[1].filters
    ):
        raise OptimizationError("exhaustive oracle does not support filters")

    correlations = Correlations()
    scan_states = []  # per scan: list of (description, cost, properties, rows, ndv map)
    scope = config.property_scope
    for scan in spec.scans:
        table = catalog.table(scan.table_name)
        correlations = correlations.merged(
            correlations_from_table(table, scan.alias)
        )
    for scan in spec.scans:
        table = catalog.table(scan.table_name)
        props = properties_from_table(table, scan.alias)
        if scope.value == "orders":
            props = props.restrict_to_orders()
        props = correlations.close_sorted(props)
        rows = float(table.num_rows)
        ndv = {
            f"{scan.alias}.{column.name}": float(column.statistics.distinct)
            for column in table.columns()
        }
        # Same base access costing as the DP (disk-aware for spilled
        # tables), so oracle agreement holds in every storage mode.
        access_cost, __ = base_access_cost(cost_model, table, (), scan.alias)
        variants = [(f"scan({scan.alias})", access_cost, props)]
        if config.consider_enforcers:
            interesting = set()
            for edge in spec.joins:
                interesting.add(edge.left_column)
                interesting.add(edge.right_column)
            if spec.group_key:
                interesting.add(spec.group_key)
            owned = {
                column
                for column in interesting
                if column.split(".", 1)[0] == scan.alias
            }
            for column in sorted(owned):
                if props.is_sorted_on(column):
                    continue
                sorted_props = correlations.close_sorted(
                    props.without_order().with_sorted(column)
                )
                if scope.value == "orders":
                    sorted_props = sorted_props.restrict_to_orders()
                variants.append(
                    (
                        f"sort({scan.alias}.{column.split('.', 1)[1]})",
                        access_cost + cost_model.sort_cost(rows),
                        sorted_props,
                    )
                )
        scan_states.append((variants, rows, ndv))

    plans: list[ExhaustivePlan] = []
    if len(spec.scans) == 1:
        variants, rows, ndv = scan_states[0]
        for description, cost, props in variants:
            plans.extend(
                _grouping_plans(
                    spec, description, cost, props, rows, ndv, cost_model,
                    config, correlations, workers,
                )
            )
        return _record(plans, stats)

    edge = spec.joins[0]
    orientations = [(0, 1, edge.left_column, edge.right_column)]
    if config.consider_commutation:
        orientations.append((1, 0, edge.right_column, edge.left_column))
    # Orientation maps scan index 0 = edge.left_scan side.
    for build_side, probe_side, build_key, probe_key in orientations:
        build_idx = edge.left_scan if build_side == 0 else edge.right_scan
        probe_idx = edge.right_scan if probe_side == 1 else edge.left_scan
        build_variants, build_rows, build_ndv = scan_states[build_idx]
        probe_variants, probe_rows, probe_ndv = scan_states[probe_idx]
        fk = catalog.foreign_key_between(
            spec.scans[build_idx].table_name,
            build_key.split(".", 1)[1],
            spec.scans[probe_idx].table_name,
            probe_key.split(".", 1)[1],
        )
        if fk is not None:
            fk_child_is_probe = fk.child_table == spec.scans[probe_idx].table_name
            join_rows = probe_rows if fk_child_is_probe else build_rows
        else:
            join_rows = (
                build_rows
                * probe_rows
                / max(build_ndv.get(build_key, build_rows), probe_ndv.get(probe_key, probe_rows))
            )
        group_hint = max(
            min(
                build_ndv.get(build_key, build_rows),
                probe_ndv.get(probe_key, probe_rows),
            ),
            1.0,
        )
        domains = {**build_ndv, **probe_ndv}
        merged_ndv = {
            column: min(value, join_rows) for column, value in domains.items()
        }
        for b_desc, b_cost, b_props in build_variants:
            for p_desc, p_cost, p_props in probe_variants:
                check_active_context()
                for option in join_options(config, workers):
                    if not option.applicable(
                        b_props, p_props, build_key, probe_key, config.property_scope
                    ):
                        continue
                    if option.parallel:
                        j_cost = cost_model.parallel_join_cost(
                            option.algorithm,
                            build_rows,
                            probe_rows,
                            group_hint,
                            float(workers),
                        )
                    else:
                        j_cost = cost_model.join_cost(
                            option.algorithm, build_rows, probe_rows, group_hint
                        )
                    j_props = option.derive(
                        b_props,
                        p_props,
                        build_key,
                        probe_key,
                        correlations,
                        config.property_scope,
                        join_rows,
                        domains,
                    )
                    description = (
                        f"{option.algorithm.name}({b_desc}, {p_desc})"
                    )
                    total = b_cost + p_cost + j_cost
                    plans.extend(
                        _grouping_plans(
                            spec,
                            description,
                            total,
                            j_props,
                            join_rows,
                            merged_ndv,
                            cost_model,
                            config,
                            correlations,
                            workers,
                        )
                    )
    return _record(plans, stats)


def _record(
    plans: list[ExhaustivePlan], stats: SearchStats | None
) -> list[ExhaustivePlan]:
    if stats is not None:
        stats.generated += len(plans)
        stats.retained += len(plans)
    trace = get_search_trace()
    if trace is not None and trace.enabled:
        # The oracle never prunes: every plan of the space is one
        # journal event, so a trace diff against the DP's journal shows
        # exactly what the frontiers refused to carry.
        for plan in plans:
            trace.oracle(plan.description, plan.cost, plan.rows)
    return plans


def _grouping_plans(
    spec: QuerySpec,
    description: str,
    cost: float,
    props,
    rows: float,
    ndv: dict[str, float],
    cost_model: CostModel,
    config: OptimizerConfig,
    correlations: Correlations,
    workers: int = 1,
) -> list[ExhaustivePlan]:
    if spec.group_key is None:
        return [ExhaustivePlan(description, cost, rows)]
    key = spec.group_key
    groups = min(ndv.get(key, rows), rows)
    inputs = [(description, cost, props)]
    if config.consider_enforcers and not props.is_sorted_on(key):
        sorted_props = correlations.close_sorted(
            props.without_order().with_sorted(key)
        )
        if config.property_scope.value == "orders":
            sorted_props = sorted_props.restrict_to_orders()
        inputs.append(
            (
                f"sort_by_key({description})",
                cost + cost_model.sort_cost(rows),
                sorted_props,
            )
        )
    plans = []
    for in_description, in_cost, in_props in inputs:
        for option in grouping_options(config, workers):
            if not option.applicable(in_props, key, config.property_scope):
                continue
            if option.parallel:
                g_cost = cost_model.parallel_grouping_cost(
                    option.algorithm, rows, groups, float(workers)
                )
            else:
                g_cost = cost_model.grouping_cost(option.algorithm, rows, groups)
            plans.append(
                ExhaustivePlan(
                    f"{option.algorithm.name}({in_description})",
                    in_cost + g_cost,
                    groups,
                )
            )
    return plans


def exhaustive_minimum(
    plan: LogicalPlan,
    catalog: Catalog,
    cost_model: CostModel | None = None,
    config: OptimizerConfig | None = None,
    stats: SearchStats | None = None,
) -> ExhaustivePlan:
    """The cheapest plan in the exhaustive space.

    :raises OptimizationError: if the space is empty.
    """
    plans = enumerate_exhaustive(plan, catalog, cost_model, config, stats)
    if not plans:
        raise OptimizationError("exhaustive enumeration found no plan")
    return min(plans, key=lambda p: p.cost)
