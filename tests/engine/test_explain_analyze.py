"""EXPLAIN ANALYZE: per-operator actuals on a known join+group-by plan."""

import numpy as np
import pytest

from repro.engine import (
    GroupBy,
    GroupingAlgorithm,
    Join,
    JoinAlgorithm,
    TableScan,
    count_star,
    execute,
    explain_analyze,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    disable_observability,
    instrumented,
    qerror_summary,
    set_metrics,
    set_tracer,
    walk_operator_nodes,
)
from repro.storage import Table


@pytest.fixture
def plan():
    """R(3 rows) ⋈ S(6 rows) on R.ID = S.R_ID, grouped by R.A.

    Every R row matches exactly two S rows, and the three R rows carry
    two distinct A values -> 6 join rows, 2 groups.
    """
    r = Table.from_arrays(
        {
            "R.ID": np.array([0, 1, 2], dtype=np.int64),
            "R.A": np.array([10, 10, 20], dtype=np.int64),
        }
    )
    s = Table.from_arrays(
        {
            "S.R_ID": np.array([0, 0, 1, 1, 2, 2], dtype=np.int64),
            "S.B": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
        }
    )
    return GroupBy(
        Join(
            TableScan(r),
            TableScan(s),
            "R.ID",
            "S.R_ID",
            algorithm=JoinAlgorithm.HJ,
        ),
        key="R.A",
        aggregates=[count_star()],
        algorithm=GroupingAlgorithm.HG,
    )


class TestExplainAnalyze:
    def test_row_counts(self, plan):
        analyzed = explain_analyze(plan)
        group_stats = analyzed.root
        join_stats = group_stats.children[0]
        scan_r, scan_s = join_stats.children
        assert scan_r.rows_out == 3
        assert scan_s.rows_out == 6
        assert join_stats.rows_in == 9
        assert join_stats.rows_out == 6
        assert group_stats.rows_in == 6
        assert group_stats.rows_out == 2
        assert analyzed.table.num_rows == 2

    def test_result_matches_uninstrumented_execution(self, plan):
        analyzed = explain_analyze(plan)
        assert analyzed.table.sort_by(["R.A"]).equals(
            execute(plan).sort_by(["R.A"])
        )

    def test_cumulative_time_nests(self, plan):
        analyzed = explain_analyze(plan)
        for node in analyzed.root.walk():
            child_total = sum(c.cumulative_seconds for c in node.children)
            assert child_total <= node.cumulative_seconds + 1e-9
            assert node.self_seconds >= 0.0
        assert analyzed.root.cumulative_seconds <= analyzed.wall_seconds + 1e-9

    def test_chunks_counted(self, plan):
        analyzed = explain_analyze(plan)
        for node in analyzed.root.walk():
            assert node.chunks_out >= 1

    def test_render_and_to_dict(self, plan):
        analyzed = explain_analyze(plan)
        text = analyzed.render()
        assert "actual rows=6" in text
        assert "Execution time" in text
        record = analyzed.root.to_dict()
        assert record["rows_out"] == 2
        assert len(record["children"]) == 1

    def test_hooks_removed_after_analyze(self, plan):
        explain_analyze(plan)
        for operator in [plan] + plan.children + plan.children[0].children:
            assert "chunks" not in operator.__dict__

    def test_hooks_removed_on_failure(self, plan):
        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with instrumented(plan):
                raise Boom()
        assert "chunks" not in plan.__dict__


class TestEstimatesAndQError:
    """The plan-quality feedback loop on an optimiser-chosen 2-join plan."""

    @pytest.fixture
    def optimised(self):
        from repro import optimize_dqo, plan_query, to_operator
        from repro.datagen import DimensionSpec, make_star_scenario

        scenario = make_star_scenario(
            fact_rows=4_000,
            dimensions=[
                DimensionSpec(rows=500, num_groups=50),
                DimensionSpec(rows=800, num_groups=80),
            ],
            seed=11,
        )
        catalog = scenario.build_catalog()
        logical = plan_query(scenario.join_query(0), catalog)
        result = optimize_dqo(logical, catalog)
        return to_operator(result.plan, catalog), result

    def test_operators_carry_estimates(self, optimised):
        operator, result = optimised
        assert operator.estimated_rows is not None
        assert operator.estimated_cost is not None
        assert operator.plan_op == "group_by"
        assert result.estimated_rows == operator.estimated_rows

    def test_analyzed_plan_reports_qerror_per_operator(self, optimised):
        operator, __ = optimised
        analyzed = explain_analyze(operator)
        kinds = {
            node["operator_kind"]: node["qerror"]
            for node in walk_operator_nodes(analyzed.profile.operators)
            if "qerror" in node
        }
        assert any(k.startswith("group_by") for k in kinds)
        assert any(k.startswith("join") for k in kinds)
        for q in kinds.values():
            assert q >= 1.0
        assert analyzed.profile.max_qerror == max(kinds.values())

    def test_render_shows_est_act_q(self, optimised):
        operator, __ = optimised
        text = explain_analyze(operator).render()
        assert "[est " in text
        assert "· act " in text
        assert "· q=" in text
        assert "Worst cardinality q-error:" in text

    def test_to_dict_includes_estimates(self, optimised):
        operator, __ = optimised
        record = explain_analyze(operator).root.to_dict()
        assert record["estimated_rows"] is not None
        assert record["qerror"] >= 1.0

    def test_feedback_store_populated(self, optimised):
        operator, __ = optimised
        nodes = list(
            walk_operator_nodes(explain_analyze(operator).profile.operators)
        )
        summary = qerror_summary(nodes)
        # group_by + 2 joins at minimum
        assert sum(stats["count"] for stats in summary.values()) >= 3
        kinds = {node["plan_op"] for node in nodes if "qerror" in node}
        assert {"group_by", "join"} <= kinds

    def test_qerror_histogram_recorded(self, optimised):
        operator, __ = optimised
        metrics = set_metrics(MetricsRegistry(enabled=True))
        set_tracer(Tracer(enabled=True))
        try:
            explain_analyze(operator)
            histogram = metrics.get("optimizer.qerror")
            assert histogram.count >= 3
            assert histogram.p50 >= 0.0
        finally:
            disable_observability()


class TestExecuteObservability:
    def test_disabled_observability_records_nothing(self, plan):
        disable_observability()
        execute(plan)
        from repro.obs import get_metrics, get_tracer

        assert get_metrics().snapshot() == {}
        assert get_tracer().finished_spans == []

    def test_enabled_observability_records(self, plan):
        metrics = set_metrics(MetricsRegistry(enabled=True))
        tracer = set_tracer(Tracer(enabled=True))
        try:
            execute(plan)
            assert metrics.get("engine.executions").value == 1
            assert metrics.get("engine.rows_out").value == 2
            assert metrics.get("engine.execute_seconds").count == 1
            assert [s.name for s in tracer.finished_spans] == [
                "engine.execute"
            ]
        finally:
            disable_observability()
