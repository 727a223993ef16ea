"""The physiological algebra: unnesting lattice, recipes, requirements."""

import pytest

from repro.core import Granularity
from repro.core.physiological import (
    count_recipes,
    enumerate_recipes,
    logical_grouping,
    logical_join,
    recipe_algorithm,
    recipe_hash_function,
    recipe_join_algorithm,
    recipe_requirements,
    unnest,
)
from repro.engine import GroupingAlgorithm, JoinAlgorithm


class TestUnnesting:
    def test_gamma_unnests_to_partitioned_grouping(self):
        alternatives = unnest(logical_grouping())
        assert len(alternatives) == 1
        node = alternatives[0]
        assert node.kind == "partitioned_grouping"
        assert [child.kind for child in node.children] == [
            "partition_by",
            "aggregate_bundle",
        ]

    def test_partition_by_has_five_strategies(self):
        partition = unnest(logical_grouping())[0].children[0]
        alternatives = unnest(partition)
        assert [a.kind for a in alternatives] == [
            "index_partition",
            "presorted_partition",
            "sort_partition",
            "index_partition",
            "index_partition",
        ]

    def test_leaves_do_not_unnest(self):
        partition_alternatives = unnest(
            unnest(logical_grouping())[0].children[0]
        )
        for alternative in partition_alternatives:
            if alternative.kind in ("presorted_partition", "sort_partition"):
                assert unnest(alternative) == []


class TestEnumeration:
    def test_space_grows_with_depth(self):
        organelle = count_recipes(Granularity.ORGANELLE)
        macromolecule = count_recipes(Granularity.MACROMOLECULE)
        molecule = count_recipes(Granularity.MOLECULE)
        assert organelle < macromolecule < molecule
        assert organelle == 1  # the developer's single textbook default

    def test_organelle_default_is_textbook_hash(self):
        # The paper's SQO arrow: "translate to hash-based grouping".
        recipes = enumerate_recipes(logical_grouping(), Granularity.ORGANELLE)
        assert recipe_algorithm(recipes[0]) is GroupingAlgorithm.HG

    def test_macromolecule_covers_all_five_algorithms(self):
        recipes = enumerate_recipes(
            logical_grouping(), Granularity.MACROMOLECULE
        )
        algorithms = {recipe_algorithm(recipe) for recipe in recipes}
        assert algorithms == set(GroupingAlgorithm)

    def test_molecule_level_exposes_hash_function_choice(self):
        recipes = enumerate_recipes(logical_grouping(), Granularity.MOLECULE)
        hash_functions = {recipe_hash_function(recipe) for recipe in recipes}
        assert hash_functions == {"murmur3", "identity"}

    def test_join_lattice_mirrors_grouping(self):
        recipes = enumerate_recipes(logical_join(), Granularity.MACROMOLECULE)
        algorithms = {recipe_join_algorithm(recipe) for recipe in recipes}
        assert algorithms == set(JoinAlgorithm)

    def test_recipes_carry_levels(self):
        for recipe in enumerate_recipes(logical_grouping(), Granularity.MOLECULE):
            assert recipe.max_level() <= Granularity.MOLECULE
            assert recipe.level is Granularity.ORGANELLE


class TestRequirements:
    def _recipe_for(self, algorithm):
        for recipe in enumerate_recipes(
            logical_grouping(), Granularity.MACROMOLECULE
        ):
            if recipe_algorithm(recipe) is algorithm:
                return recipe
        raise AssertionError(f"no recipe for {algorithm}")

    def test_og_needs_clustered(self):
        requirements = recipe_requirements(self._recipe_for(GroupingAlgorithm.OG))
        assert requirements.needs_clustered

    def test_sphg_needs_dense(self):
        requirements = recipe_requirements(
            self._recipe_for(GroupingAlgorithm.SPHG)
        )
        assert requirements.needs_dense

    def test_hg_sog_bsg_unconditional(self):
        for algorithm in (
            GroupingAlgorithm.HG,
            GroupingAlgorithm.SOG,
            GroupingAlgorithm.BSG,
        ):
            requirements = recipe_requirements(self._recipe_for(algorithm))
            assert not requirements.needs_dense
            assert not requirements.needs_clustered


class TestExplain:
    def test_explain_shows_levels_and_bindings(self):
        recipes = enumerate_recipes(logical_grouping(), Granularity.MOLECULE)
        hash_recipes = [
            recipe
            for recipe in recipes
            if recipe_algorithm(recipe) is GroupingAlgorithm.HG
        ]
        text = hash_recipes[0].explain()
        assert "<MOLECULE>" in text
        assert "hash_function=" in text
        assert "partitioned_grouping" in text
