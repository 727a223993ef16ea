"""Dictionary Algorithmic Views (§2.1): density as a precomputed property.

*"The keys of a dictionary-compressed column are a natural candidate for
[static perfect hashing] and can directly be used for SPH."* A dictionary
view re-encodes a sparse column into dense codes offline; the deep
optimiser may then pick SPH variants, and the plan decodes the group keys
on the way out.
"""

import numpy as np
import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.avs.view import DictionaryViewArtifact
from repro.core import optimize_dqo, optimize_sqo, to_operator
from repro.datagen import Density, Sortedness, make_grouping_dataset, make_join_scenario
from repro.engine import GroupingAlgorithm, execute
from repro.engine.operators.joins import memoised_encoding
from repro.errors import PlanError
from repro.logical import evaluate_naive
from repro.sql import plan_query
from repro.storage import Catalog


GROUPING_QUERY = "SELECT key, COUNT(*) AS c, SUM(value) AS s FROM T GROUP BY key"


@pytest.fixture
def sparse_catalog():
    dataset = make_grouping_dataset(
        8_000, 200, Sortedness.UNSORTED, Density.SPARSE, seed=5
    )
    catalog = Catalog()
    catalog.register("T", dataset.to_table())
    return catalog


@pytest.fixture
def sparse_join_catalog():
    return make_join_scenario(
        n_r=600,
        n_s=1_400,
        num_groups=80,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.SPARSE,
        seed=6,
    ).build_catalog()


class TestArtifact:
    def test_encoded_table_is_dense_and_order_preserving(self, sparse_catalog):
        view = materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")
        artifact = view.artifact
        assert isinstance(artifact, DictionaryViewArtifact)
        stats = artifact.encoded_table.column("key").statistics
        assert stats.is_dense
        assert stats.distinct == 200
        # Order-preserving: decode of sorted codes is sorted.
        decoded = artifact.encoding.decode_codes(
            np.arange(artifact.encoding.cardinality)
        )
        assert bool(np.all(decoded[:-1] < decoded[1:]))

    def test_encoding_is_the_columns_memo_entry(self, memory_storage, sparse_catalog):
        """The view's encoding is the column's one ``encoding`` entry: the
        object a join's probe or a build-side group-by over the column
        reads, and a second view shares it."""
        view = materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")
        column = sparse_catalog.table("T").column("key")
        key, entry = column.memo["encoding"]
        assert key == () and view.artifact.encoding is entry
        assert memoised_encoding(column) is entry
        again = materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")
        assert again.artifact.encoding is entry
        codes = again.artifact.encoded_table.column("key").values
        assert np.array_equal(codes, entry.codes)

    def test_other_columns_untouched(self, sparse_catalog):
        view = materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")
        original = sparse_catalog.table("T")
        assert np.array_equal(
            view.artifact.encoded_table["value"], original["value"]
        )

    def test_build_cost_is_sort_plus_pass(self, sparse_catalog):
        view = materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")
        assert view.build_cost > 8_000  # more than one pass


class TestGroupingWithDictionaryView:
    def test_optimiser_switches_to_sphg(self, sparse_catalog):
        logical = plan_query(
            "SELECT key, COUNT(*) AS c FROM T GROUP BY key", sparse_catalog
        )
        baseline = optimize_dqo(logical, sparse_catalog)
        registry = AVRegistry(
            [materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")]
        )
        with_view = optimize_dqo(logical, sparse_catalog, views=registry)
        base_algorithm = next(
            n.option.algorithm for n in baseline.plan.walk() if n.op == "group_by"
        )
        view_algorithm = next(
            n.option.algorithm for n in with_view.plan.walk() if n.op == "group_by"
        )
        assert base_algorithm is not GroupingAlgorithm.SPHG
        assert view_algorithm is GroupingAlgorithm.SPHG
        assert with_view.cost < baseline.cost

    def test_view_cuts_grouping_cost_4x(self, memory_storage, sparse_catalog):
        """HG (4n) -> SPHG over the codes (n), and the view's offline build
        is recovered in fewer than 10 queries."""
        logical = plan_query(GROUPING_QUERY, sparse_catalog)
        baseline = optimize_dqo(logical, sparse_catalog)
        registry = AVRegistry(
            [materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")]
        )
        with_view = optimize_dqo(logical, sparse_catalog, views=registry)
        assert baseline.cost / with_view.cost == pytest.approx(4.0)
        saving = baseline.cost - with_view.cost
        assert registry.total_build_cost() / saving < 10

    def test_execution_decodes_group_keys(self, sparse_catalog):
        logical = plan_query(GROUPING_QUERY, sparse_catalog)
        registry = AVRegistry(
            [materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")]
        )
        truth = evaluate_naive(logical, sparse_catalog)
        assert truth.num_rows == 200
        # The plain plan and the view's plan return the same groups.
        for views in (None, registry):
            result = optimize_dqo(logical, sparse_catalog, views=views)
            output = execute(
                to_operator(result.plan, sparse_catalog, validate=True, views=views)
            )
            assert output.equals_unordered(truth)

    def test_lowering_without_registry_fails_loudly(self, sparse_catalog):
        logical = plan_query(
            "SELECT key, COUNT(*) FROM T GROUP BY key", sparse_catalog
        )
        registry = AVRegistry(
            [materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")]
        )
        result = optimize_dqo(logical, sparse_catalog, views=registry)
        with pytest.raises(PlanError, match="view"):
            to_operator(result.plan, sparse_catalog)

    def test_sqo_cannot_use_the_view(self, sparse_catalog):
        # Density is invisible to the shallow configuration even when
        # manufactured: a dictionary view must not change SQO's plan.
        logical = plan_query(
            "SELECT key, COUNT(*) FROM T GROUP BY key", sparse_catalog
        )
        registry = AVRegistry(
            [materialize_view(sparse_catalog, ViewKind.DICTIONARY, "T", "key")]
        )
        baseline = optimize_sqo(logical, sparse_catalog)
        with_view = optimize_sqo(logical, sparse_catalog, views=registry)
        assert with_view.cost == baseline.cost


class TestJoinQueryWithDictionaryView:
    def test_sparse_figure5_cell_lifts(self, sparse_join_catalog, paper_query):
        logical = plan_query(paper_query, sparse_join_catalog)
        sqo = optimize_sqo(logical, sparse_join_catalog)
        dqo_plain = optimize_dqo(logical, sparse_join_catalog)
        registry = AVRegistry(
            [
                materialize_view(
                    sparse_join_catalog, ViewKind.DICTIONARY, "R", "A"
                )
            ]
        )
        dqo_view = optimize_dqo(logical, sparse_join_catalog, views=registry)
        # Plain DQO cannot beat SQO on sparse data (the paper's 1x cells);
        # a dictionary view on the grouping attribute re-opens the gap.
        assert dqo_plain.cost == pytest.approx(sqo.cost)
        assert dqo_view.cost < sqo.cost

    def test_sparse_figure5_cell_costs(self, memory_storage, paper_query):
        """At Figure 5's sizes: SQO and plain DQO both cost 900 000; with
        the view, HJ + SPHG over the codes costs 630 000 (1.43x)."""
        catalog = make_join_scenario(
            r_sortedness=Sortedness.UNSORTED,
            s_sortedness=Sortedness.UNSORTED,
            density=Density.SPARSE,
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        registry = AVRegistry(
            [materialize_view(catalog, ViewKind.DICTIONARY, "R", "A")]
        )
        sqo = optimize_sqo(logical, catalog)
        dqo_plain = optimize_dqo(logical, catalog)
        dqo_view = optimize_dqo(logical, catalog, views=registry)
        assert sqo.cost == dqo_plain.cost == 900_000
        assert dqo_view.cost == 630_000

    def test_execution_through_join_and_decode(self, sparse_join_catalog, paper_query):
        logical = plan_query(paper_query, sparse_join_catalog)
        registry = AVRegistry(
            [
                materialize_view(
                    sparse_join_catalog, ViewKind.DICTIONARY, "R", "A"
                )
            ]
        )
        result = optimize_dqo(logical, sparse_join_catalog, views=registry)
        truth = evaluate_naive(logical, sparse_join_catalog)
        output = execute(
            to_operator(
                result.plan, sparse_join_catalog, validate=True, views=registry
            )
        )
        assert output.equals_unordered(truth)

    def test_join_keys_never_encoded(self, sparse_join_catalog, paper_query):
        # A dictionary view on the JOIN key must be ignored: codes cannot
        # join against the other side's raw values.
        logical = plan_query(paper_query, sparse_join_catalog)
        registry = AVRegistry(
            [
                materialize_view(
                    sparse_join_catalog, ViewKind.DICTIONARY, "R", "ID"
                )
            ]
        )
        baseline = optimize_dqo(logical, sparse_join_catalog)
        with_view = optimize_dqo(logical, sparse_join_catalog, views=registry)
        assert with_view.cost == pytest.approx(baseline.cost)
        for node in with_view.plan.walk():
            if node.op == "scan":
                assert node.decision.view[0] != "dictionary"
