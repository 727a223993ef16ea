"""What-if overlays, EXPLAIN WHY, and the CLI's overlay grammar.

The soundness claim under test: a hypothetical plan produced through an
overlay is exactly the plan direct re-optimisation over the patched
catalog would produce — the overlay is a lens, not a second optimiser.
"""

import re

import pytest

from repro import dqo_config, optimize_dqo, plan_query
from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.datagen import Sortedness, make_join_scenario
from repro.engine.kernels.joins import JoinAlgorithm
from repro.engine.operators.joins import memoised_build_side
from repro.obs.search import (
    StatisticsOverlay,
    explain_why,
    render_frontier,
    sensitivity_frontier,
    whatif,
)
from repro.obs.search.__main__ import parse_overlay


class TestWhatIf:
    def test_report_structure(self, join_catalog, paper_query):
        report = whatif(
            paper_query, join_catalog, StatisticsOverlay().set_shuffled("S")
        )
        assert report.baseline["fingerprint"]
        assert report.hypothetical["fingerprint"]
        assert report.cost_ratio > 0
        assert "identical" in report.diff
        assert report.plan_changed == (
            report.baseline["fingerprint"] != report.hypothetical["fingerprint"]
        )
        payload = report.to_dict()
        assert payload["overlay"]["patches"]
        assert "WHAT IF" in report.render()

    def test_hypothetical_matches_direct_reoptimisation(
        self, join_catalog, paper_query
    ):
        overlay = StatisticsOverlay().set_shuffled("S")
        report = whatif(paper_query, join_catalog, overlay)
        hyp_catalog = overlay.apply(join_catalog)
        direct = optimize_dqo(
            plan_query(paper_query, hyp_catalog), hyp_catalog
        )
        assert report.hypothetical["fingerprint"] == direct.plan_fingerprint

    def test_sortedness_flip_matches_a_truly_unsorted_catalog(self, paper_query):
        """Patching S unsorted must pick the same plan a catalog built
        with genuinely unsorted S would get (acceptance criterion c)."""
        params = dict(n_r=800, n_s=2_000, num_groups=80, seed=3)
        sorted_cat = make_join_scenario(**params).build_catalog()
        unsorted_cat = make_join_scenario(
            s_sortedness=Sortedness.UNSORTED, **params
        ).build_catalog()
        report = whatif(
            paper_query,
            sorted_cat,
            StatisticsOverlay().set_sorted("S", "R_ID", False),
        )
        truth = optimize_dqo(
            plan_query(paper_query, unsorted_cat), unsorted_cat
        )
        assert report.plan_changed
        assert report.hypothetical["fingerprint"] == truth.plan_fingerprint

    def test_hypothetical_views_erect_nothing(
        self, memory_storage, join_catalog, paper_query
    ):
        """A what-if only optimises: its views are declared, not built,
        so the real column keeps its build side, and the hypothetical
        plan is the one really materialised views give."""
        column = join_catalog.table("R").column("ID")
        before = materialize_view(join_catalog, ViewKind.SPH_ARRAY, "R", "ID").artifact
        overlay = (
            StatisticsOverlay()
            .set_index("R", "ID", kind="btree")
            .set_index("R", "ID", kind="hash_table")
        )
        report = whatif(paper_query, join_catalog, overlay)
        assert memoised_build_side(column, JoinAlgorithm.SPHJ) is before
        built = AVRegistry(
            [
                materialize_view(join_catalog, kind, "R", "ID")
                for kind in (ViewKind.BTREE, ViewKind.HASH_TABLE)
            ]
        )
        real = whatif(
            paper_query,
            join_catalog,
            StatisticsOverlay(),
            config=dqo_config(views=built),
        )
        assert report.hypothetical == real.hypothetical

    def test_empty_overlay_changes_nothing(self, join_catalog, paper_query):
        report = whatif(paper_query, join_catalog, StatisticsOverlay())
        assert not report.plan_changed
        assert report.cost_ratio == pytest.approx(1.0)


class TestSensitivityFrontier:
    def test_probes_cover_key_columns(self, join_catalog, paper_query):
        probes = sensitivity_frontier(
            paper_query, join_catalog, max_scale=4.0
        )
        assert probes
        kinds = {probe.kind for probe in probes}
        assert "sortedness" in kinds and "density" in kinds
        for probe in probes:
            assert probe.baseline_fingerprint
            if probe.flips:
                assert probe.flipped_fingerprint
                assert probe.flipped_fingerprint != probe.baseline_fingerprint
            else:
                assert probe.flipped_fingerprint is None
                assert probe.diff_text == ""
        text = render_frontier(probes)
        assert "STATISTICS SENSITIVITY" in text


class TestExplainWhy:
    def test_names_the_decisive_term(self, join_catalog, paper_query):
        report = explain_why(paper_query, join_catalog)
        assert report.plan_fingerprint
        assert report.decisions
        for decision in report.decisions:
            assert decision.decisive_term
        rendered = report.render()
        assert "EXPLAIN WHY" in rendered

    def test_rivals_quote_the_searchs_own_prices(self, join_catalog, paper_query):
        # Pruning off keeps every candidate's full description in the
        # journal, so each rival can be looked up by its label among the
        # candidates the search itself built over the chosen node's inputs.
        config = dqo_config(workers=4, backend="process", prune_dominated=False)
        report = explain_why(
            paper_query, join_catalog, config=config, capacity_per_class=1 << 16
        )
        nodes = [n for n in report.result.plan.walk() if n.op in ("join", "group_by")]
        assert len(report.decisions) == len(nodes) == 2
        for decision, node in zip(report.decisions, nodes):
            cls = "group_by" if node.op == "group_by" else "join:R+S"
            input_cost = sum(child.cost for child in node.children)
            searched = {}
            for event in report.trace.events(cls):
                payload = event.to_dict()
                if event.kind == "generated" and payload["breakdown"][
                    "input_cost"
                ] == pytest.approx(input_cost):
                    label = re.search(r"\[(.+?)\]", payload["plan"]).group(1)
                    searched[label] = payload["breakdown"]["local_cost"]
            labels = [rival["algorithm"] for rival in decision.rivals]
            assert len(set(labels)) == len(labels)
            assert decision.algorithm not in labels
            # The grouping's rivals include its parallel siblings, which
            # the search refuses on a key of the join's build input; a
            # join has none, it runs serially in every configuration.
            parallel = [
                rival for rival in decision.rivals if "/parallel" in rival["algorithm"]
            ]
            if node.op == "group_by":
                assert any("parallel@process" in label for label in labels)
                for rival in parallel:
                    assert not rival["applicable"] and "build input" in rival["reason"]
                    assert rival["algorithm"] not in searched
            else:
                assert parallel == []
            for rival in decision.rivals:
                if rival["applicable"]:
                    assert rival["cost"] == pytest.approx(searched[rival["algorithm"]])


class TestParseOverlay:
    def test_full_grammar(self):
        overlay = parse_overlay(
            [
                "R.cardinality=500",
                "S.shuffled=true",
                "R.ID.sorted=false",
                "R.A.dense=false",
                "R.A.distinct=10",
                "R.ID.index=btree",
            ]
        )
        assert overlay.tables() == ["R", "S"]
        assert len(overlay.index_patches()) == 1
        assert "cardinality" in overlay.describe()

    @pytest.mark.parametrize(
        "spec",
        [
            "R.cardinality",          # no '='
            "R.bogus=1",              # unknown table-level field
            "A.B.C.D=1",              # too many parts
            "R.ID.sorted=maybe",      # not a boolean
            "R.ID.nonsense=true",     # unknown column-level field
        ],
    )
    def test_malformed_specs_exit(self, spec):
        with pytest.raises(SystemExit):
            parse_overlay([spec])
