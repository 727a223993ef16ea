"""Cost models: Table 2 exactness, the term tables, cardinalities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CardinalityEstimator, PaperCostModel
from repro.core.cost.model import BUILD
from repro.datagen import make_join_scenario
from repro.engine import GroupingAlgorithm, JoinAlgorithm


def _log2(value):
    return math.log2(value) if value > 1 else 0.0


#: Table 2 as the model wrote it before its terms became tables: per
#: algorithm, the term names EXPLAIN WHY prints, the total and (joins) the
#: build phase an Algorithmic View waives, each over float inputs.
GROUPING_FORMULAS = {
    GroupingAlgorithm.HG: (["hash build+probe 4*|R|"], lambda n, g: 4.0 * n),
    GroupingAlgorithm.OG: (["ordered pass |R|"], lambda n, g: n),
    GroupingAlgorithm.SOG: (
        ["sort |R|*log2|R|", "pass |R|"],
        lambda n, g: n * _log2(n) + n,
    ),
    GroupingAlgorithm.SPHG: (["direct-address pass |R|"], lambda n, g: n),
    GroupingAlgorithm.BSG: (
        ["binary-search probes |R|*log2(g)"],
        lambda n, g: n * _log2(g),
    ),
}
JOIN_FORMULAS = {
    JoinAlgorithm.HJ: (
        ["hash build 4*|R|", "hash probe 4*|S|"],
        lambda r, s, g: 4.0 * (r + s),
        lambda r, s, g: 4.0 * r,
    ),
    JoinAlgorithm.OJ: (["merge pass |R|+|S|"], lambda r, s, g: r + s, lambda r, s, g: 0.0),
    JoinAlgorithm.SOJ: (
        ["sort build |R|*log2|R|", "sort probe |S|*log2|S|", "merge pass |R|+|S|"],
        lambda r, s, g: r * _log2(r) + s * _log2(s) + r + s,
        lambda r, s, g: r * _log2(r),
    ),
    JoinAlgorithm.SPHJ: (
        ["dense build |R|", "probe pass |S|"],
        lambda r, s, g: r + s,
        lambda r, s, g: r,
    ),
    JoinAlgorithm.BSJ: (
        ["binary-search build |R|*log2(g)", "binary-search probe |S|*log2(g)"],
        lambda r, s, g: r * _log2(g) + s * _log2(g),
        lambda r, s, g: r * _log2(g),
    ),
}

#: Cardinalities: the degenerate 0 and 1, and non-integer estimates.
SIZES = st.one_of(
    st.sampled_from([0, 1, 0.5, 1.5, 2, 20_000, 90_000]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)


class TestPaperCostModel:
    """Every formula of Table 2, verbatim."""

    model = PaperCostModel()

    def test_grouping_formulas(self):
        n, g = 90_000, 20_000
        assert self.model.grouping_cost(GroupingAlgorithm.HG, n, g) == 4 * n
        assert self.model.grouping_cost(GroupingAlgorithm.OG, n, g) == n
        assert self.model.grouping_cost(GroupingAlgorithm.SPHG, n, g) == n
        assert self.model.grouping_cost(
            GroupingAlgorithm.SOG, n, g
        ) == pytest.approx(n * math.log2(n) + n)
        assert self.model.grouping_cost(
            GroupingAlgorithm.BSG, n, g
        ) == pytest.approx(n * math.log2(g))

    def test_join_formulas(self):
        r, s, g = 45_000, 90_000, 20_000
        assert self.model.join_cost(JoinAlgorithm.HJ, r, s, g) == 4 * (r + s)
        assert self.model.join_cost(JoinAlgorithm.OJ, r, s, g) == r + s
        assert self.model.join_cost(JoinAlgorithm.SPHJ, r, s, g) == r + s
        assert self.model.join_cost(
            JoinAlgorithm.SOJ, r, s, g
        ) == pytest.approx(r * math.log2(r) + s * math.log2(s) + r + s)
        assert self.model.join_cost(
            JoinAlgorithm.BSJ, r, s, g
        ) == pytest.approx((r + s) * math.log2(g))

    def test_figure5_arithmetic(self):
        """The reconstruction behind DESIGN.md substitution #4."""
        r, s, j, g = 45_000, 90_000, 90_000, 20_000
        sqo_unsorted = self.model.join_cost(
            JoinAlgorithm.HJ, r, s, g
        ) + self.model.grouping_cost(GroupingAlgorithm.HG, j, g)
        dqo = self.model.join_cost(
            JoinAlgorithm.SPHJ, r, s, g
        ) + self.model.grouping_cost(GroupingAlgorithm.SPHG, j, g)
        sqo_s_sorted = self.model.join_cost(
            JoinAlgorithm.HJ, r, s, g
        ) + self.model.grouping_cost(GroupingAlgorithm.OG, j, g)
        assert (sqo_unsorted, sqo_s_sorted, dqo) == (900_000, 630_000, 225_000)
        assert sqo_unsorted / dqo == pytest.approx(4.0)
        assert sqo_s_sorted / dqo == pytest.approx(2.8)

    def test_degenerate_cardinalities(self):
        assert self.model.grouping_cost(GroupingAlgorithm.SOG, 1, 1) == 1
        assert self.model.grouping_cost(GroupingAlgorithm.BSG, 10, 1) == 0
        assert self.model.sort_cost(1) == 0

    def test_scan_free(self):
        assert self.model.scan_cost(10**9) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(r=SIZES, s=SIZES, g=SIZES)
    def test_build_split_bounded_by_total(self, r, s, g):
        """Each price is the sum of its formula's terms, bit for bit
        Table 2 as written, and a build credit is a build-phase term of
        its own join formula."""
        for algorithm, (names, formula) in GROUPING_FORMULAS.items():
            total = self.model.grouping_cost(algorithm, r, g)
            terms = self.model.grouping_cost_terms(algorithm, r, g)
            assert [name for name, _ in terms] == names
            assert total.hex() == formula(float(r), float(g)).hex()
            assert total == sum(value for _, value in terms)
            # A group-by builds nothing that outlives its query.
            assert all(t.phase != BUILD for t in self.model.grouping_terms[algorithm])
        for algorithm, (names, formula, build_formula) in JOIN_FORMULAS.items():
            total = self.model.join_cost(algorithm, r, s, g)
            build = self.model.join_build_cost(algorithm, r, s, g)
            terms = self.model.join_cost_terms(algorithm, r, s, g)
            assert [name for name, _ in terms] == names
            assert total.hex() == formula(float(r), float(s), float(g)).hex()
            assert build.hex() == build_formula(float(r), float(s), float(g)).hex()
            values = [value for _, value in terms]
            if algorithm is JoinAlgorithm.SOJ:
                # SOJ's merge term adds |R| and then |S|, in Table 2's
                # order; summed as one value it may round once less.
                assert total == pytest.approx(math.fsum(values), rel=1e-15, abs=0)
            else:
                assert total == sum(values)
            assert build == sum(
                term.add(0.0, r, s, g)
                for term in self.model.join_terms[algorithm]
                if term.phase == BUILD
            )
            assert 0 <= build <= total


class TestCardinality:
    def test_fk_join_output_is_child_side(self):
        scenario = make_join_scenario(n_r=500, n_s=1_500, num_groups=50)
        catalog = scenario.build_catalog()
        estimator = CardinalityEstimator(catalog)
        r = estimator.base_table("R", "R")
        s = estimator.base_table("S", "S")
        joined = estimator.join(r, s, "R.ID", "S.R_ID", is_foreign_key=True)
        assert joined.rows == 1_500
        # Grouping output bounded by R.A's NDV.
        grouped = estimator.group_by(joined, "R.A")
        assert grouped.rows == 50

    def test_non_fk_join_formula(self):
        scenario = make_join_scenario(n_r=500, n_s=1_500, num_groups=50)
        estimator = CardinalityEstimator(scenario.build_catalog())
        r = estimator.base_table("R", "R")
        s = estimator.base_table("S", "S")
        joined = estimator.join(r, s, "R.ID", "S.R_ID", is_foreign_key=False)
        # |R|*|S| / max(ndv) = 500*1500/500
        assert joined.rows == pytest.approx(1_500)

    def test_ndv_capped_by_rows(self):
        scenario = make_join_scenario(n_r=500, n_s=100, num_groups=50)
        estimator = CardinalityEstimator(scenario.build_catalog())
        r = estimator.base_table("R", "R")
        s = estimator.base_table("S", "S")
        joined = estimator.join(r, s, "R.ID", "S.R_ID", is_foreign_key=True)
        assert joined.rows == 100
        assert joined.ndv("R.ID") <= 100
