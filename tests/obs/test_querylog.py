"""The persistent query log: appends, settings gating, and the CLI."""

import json

import numpy as np
import pytest

from repro.engine.aggregates import count_star
from repro.engine.executor import execute, explain_analyze
from repro.engine.operators.grouping import GroupBy, GroupingAlgorithm
from repro.engine.operators.scan import TableScan
from repro.errors import ObservabilityError
from repro.obs import disable_observability
from repro.obs.querylog import (
    QueryLog,
    get_query_log,
    main,
    set_query_log,
    summarise,
)
from repro.settings import scoped_settings
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _clean_globals():
    disable_observability()
    set_query_log(None)
    with scoped_settings(query_log=""):
        yield
    set_query_log(None)
    disable_observability()


@pytest.fixture
def plan():
    table = Table.from_arrays(
        {"K": (np.arange(2_000, dtype=np.int64) % 20)}
    )
    return GroupBy(
        TableScan(table),
        key="K",
        aggregates=[count_star()],
        algorithm=GroupingAlgorithm.SPHG,
    )


class TestQueryLog:
    def test_append_assigns_ids_and_persists(self, tmp_path):
        log = QueryLog(tmp_path / "log.jsonl")
        first = log.append({"kind": "execute", "rows_out": 1})
        second = log.append({"kind": "execute", "rows_out": 2})
        assert first != second
        entries = log.entries()
        assert [e["rows_out"] for e in entries] == [1, 2]
        assert all("ts" in e and "log_schema_version" in e for e in entries)

    def test_entries_skip_malformed_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = QueryLog(path)
        log.append({"kind": "execute"})
        with path.open("a") as handle:
            handle.write('{"kind": "truncat\n')  # torn write
        log.append({"kind": "profile"})
        assert [e["kind"] for e in log.entries()] == ["execute", "profile"]

    def test_entry_lookup_supports_unique_prefixes(self, tmp_path):
        log = QueryLog(tmp_path / "log.jsonl")
        log.append({"kind": "execute", "id": "aaa-1"})
        log.append({"kind": "execute", "id": "abb-2"})
        assert log.entry("aaa")["id"] == "aaa-1"
        with pytest.raises(ObservabilityError):
            log.entry("a")  # ambiguous
        with pytest.raises(ObservabilityError):
            log.entry("zzz")  # absent

    def test_missing_file_reads_empty(self, tmp_path):
        assert QueryLog(tmp_path / "absent.jsonl").entries() == []


class TestProcessWideHandle:
    def test_disabled_by_default(self):
        assert get_query_log() is None

    def test_env_variable_enables(self, tmp_path):
        # REPRO_QUERY_LOG reaches the log through Settings.query_log
        # (tests/test_settings.py reads the variable in a subprocess).
        with scoped_settings(query_log=str(tmp_path / "env.jsonl")):
            log = get_query_log()
            assert log is not None
            assert log.path.name == "env.jsonl"
            # Handles on one path never mint the same entry id.
            ids = {log.append({}), get_query_log().append({})}
        assert len(ids) == 2 and len(log.entries()) == 2

    def test_explicit_set_wins_over_env(self, tmp_path):
        with scoped_settings(query_log=str(tmp_path / "env.jsonl")):
            set_query_log(tmp_path / "mine.jsonl")
            assert get_query_log().path.name == "mine.jsonl"
            set_query_log(None)
            assert get_query_log().path.name == "env.jsonl"


class TestEngineIntegration:
    def test_execute_appends_an_entry(self, tmp_path, plan):
        set_query_log(tmp_path / "log.jsonl")
        execute(plan)
        (entry,) = get_query_log().entries()
        assert entry["kind"] == "execute"
        assert entry["rows_out"] == 20
        assert entry["wall_seconds"] > 0

    def test_explain_analyze_appends_a_profile(self, tmp_path, plan):
        set_query_log(tmp_path / "log.jsonl")
        explain_analyze(plan)
        (entry,) = get_query_log().entries()
        assert entry["kind"] == "profile"
        assert entry["rows_out"] == 20
        assert entry["operators"]["peak_memory_bytes"] > 0

    def test_optimizer_appends_an_entry(self, tmp_path):
        from repro import optimize_dqo, plan_query
        from repro.datagen import DimensionSpec, make_star_scenario

        scenario = make_star_scenario(
            fact_rows=500,
            dimensions=[DimensionSpec(rows=50, num_groups=5)],
            seed=3,
        )
        catalog = scenario.build_catalog()
        set_query_log(tmp_path / "log.jsonl")
        optimize_dqo(plan_query(scenario.join_query(0), catalog), catalog)
        entries = get_query_log().entries()
        assert [e["kind"] for e in entries] == ["optimize"]
        assert entries[0]["cost"] > 0
        assert "search" in entries[0]

    def test_disabled_log_keeps_execute_on_fast_path(self, plan):
        # No log, no observability: nothing to write, nothing written.
        assert get_query_log() is None
        result = execute(plan)
        assert result.num_rows == 20


class TestCli:
    @pytest.fixture
    def populated(self, tmp_path, plan):
        path = tmp_path / "log.jsonl"
        set_query_log(path)
        explain_analyze(plan)
        explain_analyze(plan)
        execute(plan)
        set_query_log(None)
        return path

    def test_list(self, populated, capsys):
        assert main(["--log", str(populated), "list"]) == 0
        out = capsys.readouterr().out
        assert "profile" in out and "execute" in out

    def test_show_renders_a_profile(self, populated, capsys):
        log = QueryLog(populated)
        profile_id = next(
            e["id"] for e in log.entries() if e["kind"] == "profile"
        )
        assert main(["--log", str(populated), "show", profile_id]) == 0
        out = capsys.readouterr().out
        assert "GroupBy" in out and "peak" in out

    def test_show_writes_html_and_flamegraph(
        self, populated, tmp_path, capsys
    ):
        log = QueryLog(populated)
        profile_id = next(
            e["id"] for e in log.entries() if e["kind"] == "profile"
        )
        html_path = tmp_path / "report.html"
        folded_path = tmp_path / "stacks.folded"
        assert (
            main(
                [
                    "--log",
                    str(populated),
                    "show",
                    profile_id,
                    "--html",
                    str(html_path),
                    "--flamegraph",
                    str(folded_path),
                ]
            )
            == 0
        )
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert "GroupBy" in folded_path.read_text()

    def test_diff_two_profiles(self, populated, capsys):
        ids = [
            e["id"]
            for e in QueryLog(populated).entries()
            if e["kind"] == "profile"
        ]
        assert main(["--log", str(populated), "diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "GroupBy" in out
        assert "rows A" in out and "peak B" in out

    def test_summary_reports_qerror_and_latency(self, populated, capsys):
        assert main(["--log", str(populated), "summary"]) == 0
        out = capsys.readouterr().out
        assert "per-operator self-time percentiles" in out
        assert "query latency" in out
        assert "p99" in out

    def test_missing_log_is_a_clean_error(self, capsys):
        assert main(["list"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_show_unknown_id_is_a_clean_error(self, populated, capsys):
        assert main(["--log", str(populated), "show", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSummaryAcceptance:
    def test_summary_over_two_quickstart_style_runs(self, tmp_path, capsys):
        """The acceptance shape: optimise + execute + analyze twice,
        summary shows per-operator q-error and latency percentiles."""
        from repro import optimize_dqo, plan_query, to_operator
        from repro.datagen import DimensionSpec, make_star_scenario

        scenario = make_star_scenario(
            fact_rows=1_000,
            dimensions=[DimensionSpec(rows=100, num_groups=10)],
            seed=7,
        )
        catalog = scenario.build_catalog()
        path = tmp_path / "log.jsonl"
        set_query_log(path)
        for __ in range(2):
            result = optimize_dqo(
                plan_query(scenario.join_query(0), catalog), catalog
            )
            root = to_operator(result.plan, catalog)
            execute(root)
            explain_analyze(root)
        set_query_log(None)
        kinds = [e["kind"] for e in QueryLog(path).entries()]
        assert kinds.count("optimize") == 2
        assert kinds.count("execute") == 2
        assert kinds.count("profile") == 2
        assert main(["--log", str(path), "summary"]) == 0
        out = capsys.readouterr().out
        assert "per-operator cardinality q-error" in out
        assert "q" in out and "p50" in out


def test_summary_counts_a_served_query_once(
    tmp_path, plan, join_catalog, paper_query, capsys
):
    """Served queries (one row each, stages nested) and direct
    ``execute()`` calls (one standalone row each) are one backend count
    and one latency sample apiece."""
    from repro.service.session import QueryService

    path = tmp_path / "log.jsonl"
    set_query_log(path)
    service = QueryService(join_catalog)
    try:
        for __ in range(3):
            service.execute(paper_query)
        for __ in range(2):
            execute(plan)
    finally:
        service.shutdown()
        set_query_log(None)
    kinds = [e["kind"] for e in QueryLog(path).entries()]
    assert kinds == ["service"] * 3 + ["execute"] * 2
    assert main(["--log", str(path), "summary"]) == 0
    out = capsys.readouterr().out
    assert "execution backends: 5 " in out
    assert "query latency: count=5 " in out
    assert "lookups=3 hits=2 misses=1" in out


def test_log_entries_are_plain_json(tmp_path, plan):
    set_query_log(tmp_path / "log.jsonl")
    explain_analyze(plan)
    set_query_log(None)
    for line in (tmp_path / "log.jsonl").read_text().splitlines():
        json.loads(line)  # every line parses standalone


class TestWindowFilters:
    def test_parse_since_durations(self):
        from repro.obs.querylog import parse_since

        now = 10_000.0
        assert parse_since("30s", now=now) == pytest.approx(now - 30)
        assert parse_since("15m", now=now) == pytest.approx(now - 900)
        assert parse_since("2h", now=now) == pytest.approx(now - 7200)
        assert parse_since("1d", now=now) == pytest.approx(now - 86400)

    def test_parse_since_iso_timestamp(self):
        from datetime import datetime

        from repro.obs.querylog import parse_since

        stamp = "2026-08-07T12:00:00"
        assert parse_since(stamp) == pytest.approx(
            datetime.fromisoformat(stamp).timestamp()
        )

    def test_parse_since_rejects_garbage(self):
        from repro.obs.querylog import parse_since

        with pytest.raises(ObservabilityError):
            parse_since("soon-ish")

    def test_filter_window_since_and_last_compose(self):
        from repro.obs.querylog import filter_window

        entries = [{"ts": float(i), "n": i} for i in range(10)]
        assert [
            e["n"] for e in filter_window(entries, since_ts=6.0)
        ] == [6, 7, 8, 9]
        assert [e["n"] for e in filter_window(entries, last=3)] == [7, 8, 9]
        assert [
            e["n"] for e in filter_window(entries, since_ts=4.0, last=2)
        ] == [8, 9]

    def test_cli_list_honours_last(self, tmp_path, capsys):
        log = QueryLog(tmp_path / "log.jsonl")
        for i in range(5):
            log.append({"kind": "execute", "rows_out": i})
        assert main(["--log", str(log.path), "list", "--last", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("execute") == 2

    def test_cli_summary_honours_since(self, tmp_path, capsys):
        log = QueryLog(tmp_path / "log.jsonl")
        log.append({"kind": "execute", "wall_seconds": 1.0, "ts": 100.0})
        log.append({"kind": "execute", "wall_seconds": 2.0})  # now
        assert main(["--log", str(log.path), "summary", "--since", "1h"]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out


class TestReadFrom:
    def test_incremental_cursor(self, tmp_path):
        log = QueryLog(tmp_path / "log.jsonl")
        log.append({"kind": "execute", "n": 1})
        entries, offset = log.read_from(0)
        assert [e["n"] for e in entries] == [1]
        assert log.read_from(offset) == ([], offset)
        log.append({"kind": "execute", "n": 2})
        entries, offset2 = log.read_from(offset)
        assert [e["n"] for e in entries] == [2]
        assert offset2 > offset

    def test_torn_trailing_line_is_not_consumed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = QueryLog(path)
        log.append({"kind": "execute", "n": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "execu')  # no newline: torn write
        entries, offset = log.read_from(0)
        assert len(entries) == 1
        with path.open("a", encoding="utf-8") as handle:
            handle.write('te", "n": 2}\n')
        entries, __ = log.read_from(offset)
        assert [e["n"] for e in entries] == [2]

    def test_shrunk_log_resets_cursor(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = QueryLog(path)
        log.append({"kind": "execute", "n": 1})
        log.append({"kind": "execute", "n": 2})
        __, offset = log.read_from(0)
        path.write_text("")  # rotation/truncation
        log.append({"kind": "execute", "n": 3})
        entries, __ = log.read_from(offset)
        assert [e["n"] for e in entries] == [3]

    def test_missing_log_reads_empty(self, tmp_path):
        log = QueryLog(tmp_path / "nope.jsonl")
        assert log.read_from(123) == ([], 0)


class TestConcurrentAppenders:
    def test_multiprocess_appends_never_poison_the_reader(self, tmp_path):
        """Several processes hammer one log; every line stays parseable
        and the incremental reader sees every row exactly once."""
        import subprocess
        import sys

        path = tmp_path / "log.jsonl"
        writers, rows = 4, 120
        script = (
            "import sys\n"
            "from repro.obs.querylog import QueryLog\n"
            "log = QueryLog(sys.argv[1])\n"
            "for i in range(int(sys.argv[3])):\n"
            "    log.append({'kind': 'execute', 'writer': sys.argv[2],"
            " 'n': i})\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), str(w), str(rows)],
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd="/root/repo",
            )
            for w in range(writers)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        entries = QueryLog(path).entries()
        assert len(entries) == writers * rows
        seen = {(e["writer"], e["n"]) for e in entries}
        assert len(seen) == writers * rows
        # The incremental reader drains the same total, chunk by chunk.
        log, offset, drained = QueryLog(path), 0, 0
        while True:
            chunk, offset = log.read_from(offset)
            if not chunk:
                break
            drained += len(chunk)
        assert drained == writers * rows


class TestRegressCli:
    def seed_log(self, path):
        log = QueryLog(path)
        log.append(
            {
                "kind": "optimize",
                "spec_fingerprint": "fp-cli",
                "plan_hash": "h1",
                "cost": 10.0,
                "catalog_version": 1,
                "deep": True,
                "workers": 1,
            }
        )
        for __ in range(24):
            log.append(
                {
                    "kind": "service",
                    "status": "ok",
                    "spec_fingerprint": "fp-cli",
                    "plan_hash": "h1",
                    "execute_seconds": 0.01,
                }
            )
        return log

    def test_quiet_history_exits_zero(self, tmp_path, capsys):
        log = self.seed_log(tmp_path / "log.jsonl")
        assert main(["--log", str(log.path), "regress"]) == 0
        out = capsys.readouterr().out
        assert "0 alert(s)" in out
        assert "1 fingerprint(s)" in out

    def test_regression_reports_and_gates(self, tmp_path, capsys):
        log = self.seed_log(tmp_path / "log.jsonl")
        log.append(
            {
                "kind": "optimize",
                "spec_fingerprint": "fp-cli",
                "plan_hash": "h2",
                "cost": 50.0,
                "catalog_version": 2,
                "deep": True,
                "workers": 1,
            }
        )
        assert (
            main(
                [
                    "--log",
                    str(log.path),
                    "regress",
                    "--fail-on-alert",
                ]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "plan_flip" in out
        assert "h1" in out and "h2" in out

    def test_json_report_and_baseline_store(self, tmp_path, capsys):
        log = self.seed_log(tmp_path / "log.jsonl")
        store_path = tmp_path / "baselines.json"
        assert (
            main(
                [
                    "--log",
                    str(log.path),
                    "regress",
                    "--json",
                    "--baseline",
                    str(store_path),
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["total"] == 0
        assert report["store"]["fingerprints"] == 1
        assert store_path.exists()


class TestPlanHashSummary:
    def test_summary_breaks_down_plan_shapes(self, tmp_path, capsys):
        log = QueryLog(tmp_path / "log.jsonl")
        for cached in (False, True, True):
            log.append(
                {
                    "kind": "optimize",
                    "cached": cached,
                    "spec_fingerprint": "fp-x",
                    "plan_hash": "hash-x",
                    "cost": 1.0,
                }
            )
        assert main(["--log", str(log.path), "summary"]) == 0
        out = capsys.readouterr().out
        assert "plan shapes chosen" in out
        assert "hash-x" in out


class TestOptimiserEffortSummary:
    def optimize_row(self, *, deep, cached=False, search=None, traced=False):
        row = {
            "kind": "optimize",
            "deep": deep,
            "cached": cached,
            "spec_fingerprint": "abcd",
        }
        if search is not None:
            row["search"] = search
        if traced:
            row["search_trace"] = {"path": None, "summary": {"generated": 12}}
        return row

    def test_effort_section_breaks_down_by_mode(self):
        entries = [
            self.optimize_row(
                deep=True,
                search={"generated": 24, "pruned_dominated": 10,
                        "displaced": 2, "truncated": 0, "closures": 3},
                traced=True,
            ),
            self.optimize_row(
                deep=False,
                search={"generated": 8, "pruned_dominated": 4,
                        "displaced": 0, "truncated": 1, "closures": 0},
            ),
            # Cache hits never searched: excluded from effort.
            self.optimize_row(deep=True, cached=True,
                              search={"generated": 99}),
        ]
        report = summarise(entries)
        assert "optimiser effort (fresh searches)" in report
        assert "deep" in report and "shallow" in report
        # Deep: (10 + 2 + 0) / 24 pruned; one traced search.
        assert "50.0%" in report

    def test_no_fresh_searches_no_section(self):
        entries = [self.optimize_row(deep=True, cached=True)]
        assert "optimiser effort" not in summarise(entries)
