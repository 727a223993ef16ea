"""Algorithmic Views: materialisation, registry, optimiser integration."""

import numpy as np
import pytest

from repro.avs import (
    AVRegistry,
    AlgorithmicView,
    ViewKind,
    build_cost_of,
    materialize_view,
)
from repro.core import Granularity, optimize_dqo
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.errors import ViewError
from repro.engine.kernels.joins import BuildSide
from repro.sql import plan_query
from repro.storage import Catalog, Table


@pytest.fixture
def catalog():
    return make_join_scenario(n_r=500, n_s=1_200, num_groups=50).build_catalog()


class TestMaterialisation:
    def test_hash_table_view(self, catalog):
        view = materialize_view(catalog, ViewKind.HASH_TABLE, "R", "ID")
        assert isinstance(view.artifact, BuildSide)
        assert view.artifact.kind == "hash"
        assert view.artifact.num_slots == 500
        assert view.build_cost == 4 * 500
        assert view.granularity is Granularity.MACROMOLECULE

    def test_sph_view_dense(self, catalog):
        view = materialize_view(catalog, ViewKind.SPH_ARRAY, "R", "ID")
        assert isinstance(view.artifact, BuildSide)
        assert view.artifact.kind == "direct"
        # Minimal: one slot per distinct key of the dense domain.
        assert view.artifact.num_slots == 500

    def test_sph_view_sparse_rejected(self):
        catalog = make_join_scenario(
            n_r=500, n_s=800, num_groups=50, density=Density.SPARSE
        ).build_catalog()
        with pytest.raises(ViewError, match="SPH"):
            materialize_view(catalog, ViewKind.SPH_ARRAY, "R", "ID")

    @pytest.mark.parametrize(
        "kind",
        [ViewKind.HASH_TABLE, ViewKind.SPH_ARRAY, ViewKind.SORTED_KEYS, ViewKind.BTREE],
    )
    def test_build_side_view_refuses_non_integer_column(self, kind):
        """A build side's keys are int64: a float column would be
        truncated into keys it does not hold."""
        catalog = Catalog()
        catalog.register("T", Table.from_arrays({"k": np.array([1.5, 2.5, 0.5, 2.5])}))
        with pytest.raises(ViewError, match="integers, not float64"):
            materialize_view(catalog, kind, "T", "k")
        assert "build_side" not in catalog.table("T").column("k").memo

    def test_sorted_keys_view(self, catalog):
        view = materialize_view(catalog, ViewKind.SORTED_KEYS, "R", "A")
        assert isinstance(view.artifact, BuildSide)
        assert view.artifact.kind == "sorted"
        assert view.artifact.num_slots == 50

    def test_sorted_projection_view(self, catalog):
        view = materialize_view(catalog, ViewKind.SORTED_PROJECTION, "S", "R_ID")
        values = view.artifact["R_ID"]
        assert bool(np.all(values[:-1] <= values[1:]))

    def test_build_cost_formulas(self):
        assert build_cost_of(ViewKind.HASH_TABLE, 1_000, 100) == 4_000
        assert build_cost_of(ViewKind.SPH_ARRAY, 1_000, 100) == 1_000
        assert build_cost_of(ViewKind.SORTED_PROJECTION, 1_024, 100) == pytest.approx(
            1_024 * 10
        )


class TestRegistry:
    def test_add_lookup_remove(self):
        registry = AVRegistry()
        view = AlgorithmicView(ViewKind.HASH_TABLE, "R", "ID", 10.0)
        registry.add(view)
        assert registry.has_view(ViewKind.HASH_TABLE, "R", "ID")
        assert registry.has_view("hash_table", "R", "ID")  # string form
        assert not registry.has_view("sph_array", "R", "ID")
        assert registry.get("hash_table", "R", "ID") is view
        assert len(registry) == 1
        registry.remove(ViewKind.HASH_TABLE, "R", "ID")
        assert len(registry) == 0

    def test_duplicate_rejected(self):
        registry = AVRegistry()
        view = AlgorithmicView(ViewKind.SPH_ARRAY, "R", "ID", 1.0)
        registry.add(view)
        with pytest.raises(ViewError, match="duplicate"):
            registry.add(view)

    def test_missing_lookups(self):
        registry = AVRegistry()
        with pytest.raises(ViewError):
            registry.get("hash_table", "R", "ID")
        with pytest.raises(ViewError):
            registry.remove(ViewKind.HASH_TABLE, "R", "ID")

    def test_sorted_scan_columns(self):
        registry = AVRegistry(
            [
                AlgorithmicView(ViewKind.SORTED_PROJECTION, "R", "A", 1.0),
                AlgorithmicView(ViewKind.HASH_TABLE, "R", "ID", 1.0),
            ]
        )
        assert registry.sorted_scan_columns("R") == ["A"]
        assert registry.sorted_scan_columns("S") == []

    def test_total_build_cost_and_describe(self):
        registry = AVRegistry(
            [
                AlgorithmicView(ViewKind.SPH_ARRAY, "R", "ID", 5.0),
                AlgorithmicView(ViewKind.SORTED_KEYS, "S", "R_ID", 7.0),
            ]
        )
        assert registry.total_build_cost() == 12.0
        assert "sph_array" in registry.describe()


class TestOptimiserIntegration:
    def test_build_view_reduces_join_cost(self, paper_query):
        catalog = make_join_scenario(
            r_sortedness=Sortedness.UNSORTED,
            s_sortedness=Sortedness.UNSORTED,
            density=Density.DENSE,
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        baseline = optimize_dqo(logical, catalog)
        registry = AVRegistry(
            [AlgorithmicView(ViewKind.SPH_ARRAY, "R", "ID", 45_000.0)]
        )
        with_view = optimize_dqo(logical, catalog, views=registry)
        # SPHJ's build phase (|R| = 45,000) is waived.
        assert baseline.cost - with_view.cost == pytest.approx(45_000.0)

    def test_sorted_projection_view_replaces_sort(self, paper_query, memory_storage):
        catalog = make_join_scenario(
            r_sortedness=Sortedness.UNSORTED,
            s_sortedness=Sortedness.UNSORTED,
            density=Density.SPARSE,
        ).build_catalog()
        logical = plan_query(paper_query, catalog)
        baseline = optimize_dqo(logical, catalog)
        registry = AVRegistry(
            [
                AlgorithmicView(ViewKind.SORTED_PROJECTION, "R", "ID", 0.0),
                AlgorithmicView(ViewKind.SORTED_PROJECTION, "S", "R_ID", 0.0),
            ]
        )
        with_views = optimize_dqo(logical, catalog, views=registry)
        # Order for free unlocks OJ + OG: |R|+|S| + |J| = 225,000.
        assert with_views.cost == pytest.approx(225_000.0)
        assert with_views.cost < baseline.cost
