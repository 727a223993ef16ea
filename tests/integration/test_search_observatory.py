"""The search observatory end to end, on a three-join star query.

This is the issue's acceptance gauntlet. On `SELECT D0.A, COUNT(*)
FROM D0 JOIN FACT JOIN D1 JOIN D2 ... GROUP BY D0.A`:

(a) a journalled optimisation *replays*: the trace alone reconstructs
    the chosen plan and every runner-up's cause of death (who killed
    whom, dominance edge by dominance edge);
(b) ``explain_why`` names the decisive Table-2 cost term behind every
    join/group-by decision of the winner;
(c) a what-if overlay that flips the plan agrees exactly with direct
    re-optimisation over a catalog whose statistics were truly mutated
    — the overlay is a lens, never a second optimiser;
and tracing is an observer: untraced, disabled-trace, and live-trace
runs pick bit-identical plans.
"""

import pytest

from repro import (
    get_plan_cache,
    optimize_dqo,
    plan_query,
    set_plan_cache,
)
from repro.datagen import Density, Sortedness, make_star_scenario
from repro.datagen.star import DimensionSpec
from repro.obs.search import (
    SearchTrace,
    StatisticsOverlay,
    explain_why,
    replay,
    set_search_trace,
    trace_search,
    whatif,
)


@pytest.fixture(scope="module")
def star():
    return make_star_scenario()


@pytest.fixture(scope="module")
def star_catalog(star):
    return star.build_catalog()


@pytest.fixture(scope="module")
def star_sql(star):
    sql = star.join_query(0)
    assert sql.count("JOIN") == 3
    return sql


@pytest.fixture
def no_plan_cache():
    previous = get_plan_cache()
    set_plan_cache(None)
    yield
    set_plan_cache(previous)


class TestReplay:
    def test_journal_reconstructs_chosen_plan_and_every_death(
        self, no_plan_cache, star_catalog, star_sql
    ):
        with trace_search() as trace:
            result = optimize_dqo(
                plan_query(star_sql, star_catalog), star_catalog
            )
        rep = replay(trace)
        assert rep["complete"] is True
        # The journal alone names the winner...
        assert rep["chosen"]["fingerprint"] == result.plan_fingerprint
        assert rep["chosen"]["cost"] == pytest.approx(result.cost)
        # ...and accounts for every candidate: alive on some frontier,
        # or dead with a recorded cause and killer.
        alive = {
            entry_id
            for frontier in rep["frontiers"].values()
            for entry_id in frontier
        }
        assert rep["candidates"]
        assert rep["deaths"]
        for entry_id in rep["candidates"]:
            assert entry_id in alive or entry_id in rep["deaths"]
        for death in rep["deaths"].values():
            assert death["cause"] in ("dominated", "displaced", "truncated")
            assert death["by"] is not None

    def test_runner_up_finalists_rank_behind_the_chosen(
        self, no_plan_cache, star_catalog, star_sql
    ):
        with trace_search() as trace:
            optimize_dqo(plan_query(star_sql, star_catalog), star_catalog)
        finalists = replay(trace)["finalists"]
        assert finalists[0]["rank"] == 0
        costs = [finalist["cost"] for finalist in finalists]
        assert costs == sorted(costs)


class TestExplainWhy:
    def test_names_the_decisive_term_for_every_decision(
        self, star_catalog, star_sql
    ):
        report = explain_why(star_sql, star_catalog)
        # Three joins and one group-by, each attributed.
        assert len(report.decisions) == 4
        for decision in report.decisions:
            assert decision.decisive_term
            assert decision.terms
            assert decision.facts
            assert decision.rivals
        assert report.deaths
        for death in report.deaths:
            assert death["cause"]
        rendered = report.render()
        assert "EXPLAIN WHY" in rendered
        assert report.decisions[0].decisive_term in rendered


class TestWhatIfParity:
    def test_density_flip_matches_a_truly_sparse_catalog(
        self, star_catalog, star_sql
    ):
        overlay = (
            StatisticsOverlay()
            .set_dense("D0", "ID", False)
            .set_dense("D0", "A", False)
        )
        report = whatif(star_sql, star_catalog, overlay)
        assert report.plan_changed
        assert report.diff["changed"]
        truth_catalog = make_star_scenario(
            dimensions=[
                DimensionSpec(5_000, 500, density=Density.SPARSE),
                DimensionSpec(8_000, 800, sortedness=Sortedness.UNSORTED),
                DimensionSpec(3_000, 300, density=Density.SPARSE),
            ]
        ).build_catalog()
        truth = optimize_dqo(
            plan_query(star_sql, truth_catalog), truth_catalog
        )
        assert report.hypothetical["fingerprint"] == truth.plan_fingerprint

    def test_no_flip_still_agrees_with_direct_reoptimisation(
        self, star_catalog, star_sql
    ):
        """Shuffling the fact table leaves this star plan alone (it is
        hash-based below the top join) — parity must hold regardless."""
        overlay = StatisticsOverlay().set_shuffled("FACT")
        report = whatif(star_sql, star_catalog, overlay)
        hyp_catalog = overlay.apply(star_catalog)
        direct = optimize_dqo(
            plan_query(star_sql, hyp_catalog), hyp_catalog
        )
        assert report.hypothetical["fingerprint"] == direct.plan_fingerprint


class TestTracingIsAnObserver:
    def test_untraced_disabled_and_live_plans_are_bit_identical(
        self, no_plan_cache, star_catalog, star_sql
    ):
        logical = plan_query(star_sql, star_catalog)
        untraced = optimize_dqo(logical, star_catalog)

        disabled = SearchTrace()
        disabled.enabled = False
        set_search_trace(disabled)
        try:
            with_disabled = optimize_dqo(logical, star_catalog)
        finally:
            set_search_trace(None)

        with trace_search() as trace:
            live = optimize_dqo(logical, star_catalog)

        assert (
            untraced.plan_fingerprint
            == with_disabled.plan_fingerprint
            == live.plan_fingerprint
        )
        assert untraced.cost == pytest.approx(live.cost)
        assert untraced.plan.describe() == live.plan.describe()
        assert disabled.summary()["events"] == 0
        assert trace.summary()["generated"] > 0
