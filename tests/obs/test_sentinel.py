"""The plan-regression sentinel: baselines, detectors, the live tail."""

import json
import threading

import pytest

from repro.obs import disable_observability
from repro.obs.querylog import QueryLog, set_query_log
from repro.obs.sentinel import (
    BASELINE_SCHEMA_VERSION,
    BaselineStore,
    Sentinel,
    SentinelConfig,
    SentinelThread,
    robust_mad,
    robust_median,
)


@pytest.fixture(autouse=True)
def _clean_globals():
    disable_observability()
    set_query_log(None)
    yield
    set_query_log(None)
    disable_observability()


def optimize_row(
    spec_fp="fp-a",
    plan_hash="h1",
    cost=100.0,
    catalog_version=1,
    deep=True,
    workers=1,
    **extra,
):
    row = {
        "kind": "optimize",
        "spec_fingerprint": spec_fp,
        "plan_hash": plan_hash,
        "cost": cost,
        "catalog_version": catalog_version,
        "deep": deep,
        "workers": workers,
        "ts": 1000.0,
    }
    row.update(extra)
    return row


def service_row(
    spec_fp="fp-a",
    plan_hash="h1",
    execute_seconds=0.010,
    trace_id="",
    status="ok",
    **extra,
):
    row = {
        "kind": "service",
        "spec_fingerprint": spec_fp,
        "plan_hash": plan_hash,
        "execute_seconds": execute_seconds,
        "wall_seconds": execute_seconds + 0.001,
        "status": status,
        "trace_id": trace_id,
        "ts": 1000.0,
    }
    row.update(extra)
    return row


class TestRobustStats:
    def test_median_odd_and_even(self):
        assert robust_median([3.0, 1.0, 2.0]) == 2.0
        assert robust_median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_mad_is_robust_to_one_outlier(self):
        values = [1.0] * 10 + [100.0]
        assert robust_mad(values) == 0.0
        assert robust_median(values) == 1.0


class TestBaselineStore:
    def test_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "baselines.json"
        store = BaselineStore(path)
        store.commit_plan("fp", "deep/w1", {"plan_hash": "h1", "cost": 5.0})
        store.absorb_latency("fp", [0.01, 0.02])
        store.absorb_qerrors("fp", "join", [1.5, 2.0])
        store.index_plan("h1", "fp")
        store.save()

        reloaded = BaselineStore(path)
        assert reloaded.peek("fp")["plans"]["deep/w1"]["plan_hash"] == "h1"
        median, mad, count = reloaded.latency_baseline("fp")
        assert count == 2 and median == pytest.approx(0.015)
        assert reloaded.spec_for_plan("h1") == "fp"
        assert reloaded.qerror_baseline("fp", "join") == (
            pytest.approx(1.75),
            2,
        )

    def test_schema_mismatch_loads_empty(self, tmp_path):
        path = tmp_path / "baselines.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": BASELINE_SCHEMA_VERSION + 1,
                    "fingerprints": {"fp": {}},
                }
            )
        )
        assert len(BaselineStore(path)) == 0

    def test_corrupt_file_loads_empty(self, tmp_path):
        path = tmp_path / "baselines.json"
        path.write_text("{not json")
        assert len(BaselineStore(path)) == 0

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "baselines.json"
        store = BaselineStore(path)
        store.absorb_latency("fp", [0.01])
        store.save()
        leftovers = [
            p for p in tmp_path.iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []
        assert (
            json.loads(path.read_text())["schema_version"]
            == BASELINE_SCHEMA_VERSION
        )

    def test_reservoir_is_bounded(self):
        store = BaselineStore(reservoir=8)
        store.absorb_latency("fp", [float(i) for i in range(100)])
        record = store.peek("fp")
        assert len(record["latency"]["samples"]) == 8
        assert record["latency"]["count"] == 100

    def test_concurrent_writers_never_tear_the_file(self, tmp_path):
        path = tmp_path / "baselines.json"

        def writer(tag):
            store = BaselineStore(path)
            for i in range(20):
                store.absorb_latency(f"fp-{tag}", [0.01 * i])
                store.save()

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whatever won, the file parses and carries the right schema.
        final = json.loads(path.read_text())
        assert final["schema_version"] == BASELINE_SCHEMA_VERSION


class TestPlanFlipDetection:
    def test_first_sighting_is_silent(self):
        sentinel = Sentinel()
        assert sentinel.observe([optimize_row()]) == []
        assert sentinel.counts()["plan_flip"] == 0

    def test_flip_alerts_once_with_both_hashes(self):
        sentinel = Sentinel()
        sentinel.observe([optimize_row(plan_hash="h1", catalog_version=1)])
        alerts = sentinel.observe(
            [
                optimize_row(
                    plan_hash="h2", catalog_version=2, cost=150.0
                )
            ]
        )
        assert [a.kind for a in alerts] == ["plan_flip"]
        alert = alerts[0]
        assert alert.old_plan_hash == "h1"
        assert alert.new_plan_hash == "h2"
        assert alert.old_catalog_version == 1
        assert alert.new_catalog_version == 2
        assert alert.severity == "critical"  # cost 100 -> 150 > 1.1x
        # Repetitions of the new plan do not re-alert.
        assert sentinel.observe([optimize_row(plan_hash="h2")]) == []

    def test_cheaper_flip_is_informational(self):
        sentinel = Sentinel()
        sentinel.observe([optimize_row(plan_hash="h1", cost=100.0)])
        alerts = sentinel.observe(
            [optimize_row(plan_hash="h2", cost=50.0)]
        )
        assert alerts[0].severity == "info"

    def test_mode_change_is_not_a_flip(self):
        """A degraded (shallow/serial) plan is a different lane, not a
        regression of the governed plan."""
        sentinel = Sentinel()
        sentinel.observe([optimize_row(plan_hash="h1", deep=True, workers=4)])
        alerts = sentinel.observe(
            [optimize_row(plan_hash="h9", deep=False, workers=1)]
        )
        assert alerts == []

    def test_alert_serialises(self):
        sentinel = Sentinel()
        sentinel.observe([optimize_row(plan_hash="h1")])
        (alert,) = sentinel.observe([optimize_row(plan_hash="h2")])
        payload = alert.to_dict()
        assert payload["kind"] == "plan_flip"
        json.dumps(payload)  # JSON-friendly end to end


class TestLatencyDrift:
    def make_baseline(self, sentinel, n=32, seconds=0.010):
        sentinel.observe(
            [service_row(execute_seconds=seconds) for _ in range(n)]
        )

    def test_stable_latency_never_alerts(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8))
        for _ in range(6):
            alerts = sentinel.observe(
                [service_row(execute_seconds=0.010) for _ in range(16)]
            )
            assert alerts == []

    def test_shift_beyond_threshold_alerts_with_exemplars(self):
        config = SentinelConfig(min_samples=8, window=16)
        sentinel = Sentinel(config=config)
        self.make_baseline(sentinel, n=32)
        alerts = sentinel.observe(
            [
                service_row(execute_seconds=0.030, trace_id=f"t{i}")
                for i in range(16)
            ]
        )
        kinds = [a.kind for a in alerts]
        assert "latency_drift" in kinds
        drift = next(a for a in alerts if a.kind == "latency_drift")
        assert drift.ratio == pytest.approx(3.0, rel=0.1)
        assert drift.severity == "critical"  # 3x >= critical ratio
        assert 1 <= len(drift.trace_ids) <= 3

    def test_drift_does_not_poison_baseline(self):
        config = SentinelConfig(min_samples=8, window=16)
        sentinel = Sentinel(config=config)
        self.make_baseline(sentinel, n=32)
        sentinel.observe(
            [service_row(execute_seconds=0.030) for _ in range(16)]
        )
        median, __, __ = sentinel.store.latency_baseline("fp-a")
        assert median == pytest.approx(0.010, rel=0.05)

    def test_single_outlier_does_not_alert(self):
        config = SentinelConfig(min_samples=8, window=16)
        sentinel = Sentinel(config=config)
        self.make_baseline(sentinel, n=32)
        alerts = sentinel.observe(
            [service_row(execute_seconds=0.010) for _ in range(15)]
            + [service_row(execute_seconds=0.500)]
        )
        assert [a for a in alerts if a.kind == "latency_drift"] == []

    def test_failed_rows_are_ignored(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=4))
        alerts = sentinel.observe(
            [
                service_row(execute_seconds=9.0, status="DeadlineExceeded")
                for _ in range(20)
            ]
        )
        assert alerts == []
        assert sentinel.store.latency_baseline("fp-a") == (0.0, 0.0, 0)


class TestQErrorDrift:
    def profile_row(self, qerror, plan_hash="h1"):
        actual = 100
        estimated = actual * qerror
        return {
            "kind": "profile",
            "plan_hash": plan_hash,
            "operators": {
                "operator_kind": "join",
                "estimated_rows": estimated,
                "rows_out": actual,
                "children": [],
            },
            "ts": 1000.0,
        }

    def test_growth_past_envelope_alerts(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8))
        # Index the plan so bare profile rows attribute to the spec.
        sentinel.observe([optimize_row(plan_hash="h1")])
        sentinel.observe([self.profile_row(1.5) for _ in range(12)])
        alerts = sentinel.observe([self.profile_row(8.0) for _ in range(4)])
        assert [a.kind for a in alerts] == ["qerror_drift"]
        alert = alerts[0]
        assert alert.operator_kind == "join"
        assert alert.spec_fingerprint == "fp-a"
        assert alert.observed == pytest.approx(8.0)

    def test_small_qerror_growth_is_ignored(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8))
        sentinel.observe([optimize_row(plan_hash="h1")])
        sentinel.observe([self.profile_row(1.1) for _ in range(12)])
        # 2x growth but below the absolute floor: noise, not drift.
        alerts = sentinel.observe([self.profile_row(2.4) for _ in range(4)])
        assert alerts == []

    def test_a_node_is_graded_with_the_cardinality_qerror(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8))
        sentinel.observe([optimize_row(plan_hash="h1")])
        row = self.profile_row(1.0)
        # An estimate below one row: q-error 4.0, as
        # ``cardinality.qerror`` gives. The empty scan's miss is
        # unbounded and skipped.
        row["operators"] = {
            "operator_kind": "join",
            "estimated_rows": 0.25,
            "rows_out": 1,
            "children": [
                {"operator_kind": "scan", "estimated_rows": 5.0, "rows_out": 0}
            ],
        }
        sentinel.observe([row])
        assert sentinel.store.qerror_baseline("fp-a", "join") == (4.0, 1)
        assert sentinel.store.qerror_baseline("fp-a", "scan") == (0.0, 0)

    def test_unattributable_profiles_are_skipped(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=2))
        alerts = sentinel.observe(
            [self.profile_row(50.0, plan_hash="mystery")]
        )
        assert alerts == []


class TestEvaluateLog:
    def test_stable_history_replay_is_quiet(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8))
        history = [optimize_row()] + [
            service_row(execute_seconds=0.010 + (i % 5) * 0.0002)
            for i in range(240)
        ]
        alerts = sentinel.evaluate_log(history, chunk=32)
        assert alerts == []
        assert sentinel.counts()["evaluated"] >= 240

    def test_seeded_regression_replay_alerts(self):
        sentinel = Sentinel(config=SentinelConfig(min_samples=8, window=16))
        history = (
            [optimize_row(plan_hash="h1", catalog_version=1)]
            + [service_row(execute_seconds=0.010) for _ in range(64)]
            + [
                optimize_row(
                    plan_hash="h2", catalog_version=2, cost=200.0
                )
            ]
            + [
                service_row(plan_hash="h2", execute_seconds=0.040)
                for _ in range(32)
            ]
        )
        alerts = sentinel.evaluate_log(history, chunk=16)
        kinds = {a.kind for a in alerts}
        assert "plan_flip" in kinds
        assert "latency_drift" in kinds

    def test_disabled_sentinel_observes_nothing(self):
        sentinel = Sentinel(config=SentinelConfig(enabled=False))
        assert sentinel.observe([optimize_row()]) == []
        assert len(sentinel.store) == 0


class TestSentinelThread:
    def test_tick_reads_incrementally_and_dispatches(self, tmp_path):
        log = QueryLog(tmp_path / "log.jsonl")
        received = []
        sentinel = Sentinel()
        thread = SentinelThread(
            log, sentinel, on_alerts=lambda alerts: received.extend(alerts)
        )
        log.append(optimize_row(plan_hash="h1"))
        assert thread.tick() == []
        log.append(optimize_row(plan_hash="h2"))
        alerts = thread.tick()
        assert [a.kind for a in alerts] == ["plan_flip"]
        assert [a.kind for a in received] == ["plan_flip"]
        # Nothing new: the cursor advanced past consumed rows.
        assert thread.tick() == []

    def test_start_stop_lifecycle(self, tmp_path):
        log = QueryLog(tmp_path / "log.jsonl")
        thread = SentinelThread(log, Sentinel(), interval_seconds=0.05)
        thread.start()
        assert thread.running
        thread.start()  # idempotent
        thread.stop()
        assert not thread.running

    def test_torn_trailing_line_is_deferred(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = QueryLog(path)
        log.append(optimize_row(plan_hash="h1"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "optimize", "spec_fing')  # torn write
        sentinel = Sentinel()
        thread = SentinelThread(log, sentinel)
        thread.tick()
        assert len(sentinel.store) == 1
        # The writer finishes the line; the next tick picks it up whole.
        with path.open("a", encoding="utf-8") as handle:
            handle.write(
                'erprint": "fp-b", "plan_hash": "h9", "cost": 1.0, '
                '"catalog_version": 1, "deep": true, "workers": 1}\n'
            )
        thread.tick()
        assert sentinel.store.peek("fp-b") is not None


def test_a_served_query_is_one_latency_sample_however_the_tail_splits_the_log(
    tmp_path, join_catalog, paper_query
):
    """A served query writes one row, so a tail that hands the sentinel
    one row per batch still counts each query once."""
    from repro.service.session import QueryService, ServiceConfig

    log = QueryLog(tmp_path / "served.jsonl")
    set_query_log(log)
    service = QueryService(
        join_catalog, ServiceConfig(sentinel=SentinelConfig(enabled=False))
    )
    try:
        outcomes = [service.execute(paper_query) for __ in range(5)]
    finally:
        service.shutdown()
        set_query_log(None)
    sentinel = Sentinel()
    for row in log.entries():
        sentinel.observe([row])
    fingerprint = outcomes[0].spec_fingerprint
    assert sentinel.store.latency_baseline(fingerprint)[2] == len(outcomes)
