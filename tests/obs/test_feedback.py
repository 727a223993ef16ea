"""q-error math and the FeedbackStore estimate->actual report."""

import math

import pytest

from repro.core.cost.cardinality import qerror
from repro.obs.feedback import FeedbackSample, FeedbackStore
from repro.obs.instrument import OperatorStats


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
    def test_record_plan_skips_estimate_free_nodes(self):
        scan = OperatorStats(name="TableScan", description="scan", rows_out=10)
        root = _stats("group_by", "HG", 5.0, 5, children=(scan,))
        store = FeedbackStore()
        assert store.record_plan(root) == 1
        assert len(store) == 1
        assert store.samples()[0].operator_kind == "group_by[HG]"

    def test_rows_in_comes_from_children(self):
        scan = _stats("scan", "", 100.0, 100)
        root = _stats("group_by", "SPHG", 20.0, 18, children=(scan,))
        store = FeedbackStore()
        store.record_plan(root)
        group_sample = [
            s for s in store.samples() if s.plan_op == "group_by"
        ][0]
        assert group_sample.rows_in == 100
        assert group_sample.actual_rows == 18

    def test_qerror_summary_by_kind(self):
        store = FeedbackStore()
        store.record(
            FeedbackSample("join[HJ]", "join", "HJ", 100.0, 50, 150, 50.0, 0.1)
        )
        store.record(
            FeedbackSample("join[HJ]", "join", "HJ", 100.0, 100, 200, 50.0, 0.1)
        )
        store.record(
            FeedbackSample("scan", "scan", "", 0.0, 7, 0, 0.0, 0.0)
        )
        summary = store.qerror_summary()
        assert summary["join[HJ]"]["count"] == 2
        assert summary["join[HJ]"]["mean"] == pytest.approx(1.5)
        assert summary["join[HJ]"]["max"] == pytest.approx(2.0)
        # The unbounded scan miss shows up in max but not the mean.
        assert summary["scan"]["max"] == math.inf
        assert len(store.render().splitlines()) == 3

    def test_clear(self):
        store = FeedbackStore()
        store.record(
            FeedbackSample("scan", "scan", "", 1.0, 1, 0, 0.0, 0.0)
        )
        store.clear()
        assert len(store) == 0
