"""q-error math and the per-kind estimate->actual report over the
operator record."""

import math

import pytest

from repro.core.cost.cardinality import qerror
from repro.obs.instrument import (
    OperatorStats,
    node_qerror,
    qerror_summary,
    walk_operator_nodes,
)
from repro.obs.profile import QueryProfile


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert qerror(1000.0, 1000) == 1.0

    def test_symmetric_in_direction(self):
        assert qerror(1000.0, 412) == pytest.approx(1000.0 / 412)
        assert qerror(412.0, 1000) == pytest.approx(1000.0 / 412)

    def test_both_zero_is_perfect(self):
        assert qerror(0.0, 0) == 1.0

    def test_one_side_zero_is_unbounded(self):
        assert qerror(0.0, 10) == math.inf
        assert qerror(10.0, 0) == math.inf

    def test_negative_inputs_clamped(self):
        # Negative cardinalities cannot occur; clamping keeps the metric
        # total rather than raising mid-report.
        assert qerror(-5.0, -3.0) == 1.0
        assert qerror(-5.0, 10.0) == math.inf

    def test_always_at_least_one(self):
        for est, act in [(1, 2), (7, 3), (1e6, 1e6), (0.5, 0.25)]:
            assert qerror(est, act) >= 1.0


def _stats(plan_op, algorithm, est, act, seconds=0.01, children=()):
    node = OperatorStats(
        name=plan_op,
        description=plan_op,
        rows_out=act,
        estimated_rows=est,
        plan_op=plan_op,
        plan_algorithm=algorithm,
        cumulative_seconds=seconds
        + sum(c.cumulative_seconds for c in children),
        children=list(children),
    )
    return node


class TestFeedbackStore:
    """Estimate-vs-actual feedback, read from the operator record."""

    def test_record_plan_skips_estimate_free_nodes(self):
        scan = OperatorStats(name="TableScan", description="scan", rows_out=10)
        root = _stats("group_by", "HG", 5.0, 5, children=(scan,))
        summary = qerror_summary(walk_operator_nodes(root.to_dict()))
        assert list(summary) == ["group_by[HG]"]
        assert summary["group_by[HG]"]["count"] == 1

    def test_rows_in_comes_from_children(self):
        scan = _stats("scan", "", 100.0, 100)
        root = _stats("group_by", "SPHG", 20.0, 18, children=(scan,))
        profile = QueryProfile.from_stats(root, wall_seconds=0.0, rows_out=18)
        group = profile.operators
        assert group["plan_op"] == "group_by"
        assert group["rows_in"] == 100
        assert group["rows_out"] == 18

    def test_qerror_summary_by_kind(self):
        def node(kind, est, act):
            return {"operator_kind": kind, "estimated_rows": est, "rows_out": act}

        summary = qerror_summary(
            [
                node("join[HJ]", 100.0, 50),
                node("join[HJ]", 100.0, 100),
                node("scan", 0.0, 7),
                node("scan", None, 7),
            ]
        )
        assert summary["join[HJ]"]["count"] == 2
        assert summary["join[HJ]"]["mean"] == pytest.approx(1.5)
        assert summary["join[HJ]"]["p50"] == pytest.approx(1.0)
        assert summary["join[HJ]"]["max"] == pytest.approx(2.0)
        # The unbounded scan miss shows up in max but not the mean; the
        # estimate-free scan is not graded at all.
        assert summary["scan"]["count"] == 1
        assert summary["scan"]["max"] == math.inf
        assert summary["scan"]["mean"] == math.inf

    def test_a_logged_qerror_key_is_read_as_is(self):
        node = {"operator_kind": "scan", "estimated_rows": 3.0, "rows_out": 3}
        assert node_qerror(node) == 1.0
        assert node_qerror({**node, "qerror": 7.5}) == 7.5
        assert node_qerror({"operator_kind": "scan", "rows_out": 3}) is None
