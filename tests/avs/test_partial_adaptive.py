"""Partial AVs (§6)."""

import pytest

from repro.avs import bind_offline, enumeration_savings
from repro.core import Granularity
from repro.core.physiological import recipe_algorithm
from repro.engine import GroupingAlgorithm
from repro.errors import ViewError


class TestPartialAV:
    def test_offline_binding_shrinks_query_time_space(self):
        partial = bind_offline(bound_level=Granularity.MACROMOLECULE)
        from_scratch, remaining = enumeration_savings(partial)
        assert from_scratch == 68
        assert remaining < from_scratch

    def test_completions_respect_offline_choice(self):
        # Offline pick 0 is the textbook hash path; every query-time
        # completion must still be hash-based grouping.
        partial = bind_offline(
            bound_level=Granularity.MACROMOLECULE, pick_index=0
        )
        for recipe in partial.query_time_recipes():
            assert recipe_algorithm(recipe) is GroupingAlgorithm.HG

    def test_full_binding_leaves_one_choice(self):
        partial = bind_offline(bound_level=Granularity.MOLECULE, pick_index=2)
        assert partial.query_time_choices() == 1

    def test_organelle_binding_keeps_space_open(self):
        partial = bind_offline(bound_level=Granularity.ORGANELLE)
        # Only the Γ -> partitioned form is fixed; all five algorithm
        # families remain query-time choices.
        algorithms = {
            recipe_algorithm(r) for r in partial.query_time_recipes()
        }
        assert len(algorithms) == 5

    def test_invalid_pick(self):
        with pytest.raises(ViewError):
            bind_offline(pick_index=999)

    def test_describe(self):
        partial = bind_offline(bound_level=Granularity.MACROMOLECULE)
        assert "PartialAV" in partial.describe()
