"""The per-operator record law: ``querylog show`` prints a logged
profile's operator lines exactly as EXPLAIN ANALYZE printed them.

The profile's operator record (:meth:`OperatorStats.to_dict` nodes) is
written to the query log as JSON and read back; the one renderer over
it must give the same lines on both sides, I/O brackets included.
"""

import pytest

from repro import optimize_dqo, plan_query, to_operator
from repro.datagen import (
    Density,
    DimensionSpec,
    Sortedness,
    make_join_scenario,
    make_star_scenario,
)
from repro.engine import explain_analyze
from repro.obs.instrument import walk_operator_nodes
from repro.obs.querylog import QueryLog, main, set_query_log
from repro.storage.disk import BufferManager, set_buffer_manager


def two_join_plan():
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
    return to_operator(optimize_dqo(logical, catalog).plan, catalog)


def disk_scan_plan():
    catalog = make_join_scenario(
        n_r=1_000,
        n_s=2_500,
        num_groups=100,
        r_sortedness=Sortedness.SORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
        seed=11,
    ).build_catalog()
    logical = plan_query(
        "SELECT R.A, COUNT(*) FROM R WHERE R.ID < 100 GROUP BY R.A", catalog
    )
    return to_operator(optimize_dqo(logical, catalog).plan, catalog)


@pytest.fixture
def disk_storage(configured, tmp_path):
    configured(storage="disk", spill_dir=str(tmp_path), segment_rows=256)
    set_buffer_manager(BufferManager(budget_bytes=8 * 1024 * 1024))
    yield
    set_buffer_manager(None)


def analysed_and_shown(operator, path, capsys):
    """The operator lines of EXPLAIN ANALYZE and of ``querylog show``
    for one logged run of ``operator``."""
    set_query_log(path)
    try:
        analyzed = explain_analyze(operator)
    finally:
        set_query_log(None)
    (entry,) = QueryLog(path).entries()
    assert main(["--log", str(path), "show", entry["id"]]) == 0
    shown = capsys.readouterr().out.splitlines()
    count = len(list(walk_operator_nodes(analyzed.profile.operators)))
    return analyzed.render().splitlines()[:count], shown[1 : 1 + count]


def test_show_prints_explain_analyze_lines_for_a_two_join_plan(
    tmp_path, capsys
):
    analysed, shown = analysed_and_shown(
        two_join_plan(), tmp_path / "log.jsonl", capsys
    )
    assert sum("Join(" in line for line in analysed) == 2
    assert "· q=" in analysed[0]
    assert shown == analysed


def test_show_prints_explain_analyze_lines_for_a_disk_plan(
    disk_storage, tmp_path, capsys
):
    analysed, shown = analysed_and_shown(
        disk_scan_plan(), tmp_path / "log.jsonl", capsys
    )
    assert any("[io segments=" in line for line in analysed)
    assert shown == analysed
