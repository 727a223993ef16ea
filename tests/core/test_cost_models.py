"""Cost models: Table 2 exactness, calibration fitting, cardinalities."""

import math

import numpy as np
import pytest

from repro.core.cost import (
    CardinalityEstimator,
    PaperCostModel,
    Sample,
    calibrate_grouping,
    fit_coefficients,
)
from repro.datagen import make_join_scenario
from repro.engine import GroupingAlgorithm, JoinAlgorithm
from repro.errors import CostModelError


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

    def test_build_split_bounded_by_total(self):
        r, s, g = 10_000, 20_000, 500
        for algorithm in JoinAlgorithm:
            build = self.model.join_build_cost(algorithm, r, s, g)
            total = self.model.join_cost(algorithm, r, s, g)
            assert 0 <= build <= total


class TestCalibration:
    def test_fit_recovers_linear_model(self):
        # Synthetic samples from cost = 2n exactly.
        samples = [
            Sample(n, g, 2.0 * n)
            for n in (1_000, 2_000, 5_000, 10_000)
            for g in (10, 100)
        ]
        coefficients = fit_coefficients(samples)
        assert coefficients[1] == pytest.approx(2.0, abs=1e-6)

    def test_fit_recovers_nlogn_model(self):
        samples = [
            Sample(n, 10, n * math.log2(n) * 0.5)
            for n in (1_000, 2_000, 4_000, 8_000, 16_000)
        ]
        coefficients = fit_coefficients(samples)
        assert coefficients[2] == pytest.approx(0.5, rel=0.05)

    def test_fit_needs_four_samples(self):
        with pytest.raises(CostModelError):
            fit_coefficients([Sample(1, 1, 1.0)] * 3)

    def test_coefficients_nonnegative(self):
        rng = np.random.default_rng(0)
        samples = [
            Sample(n, 10, max(float(rng.normal(n, n / 10)), 1.0))
            for n in (1_000, 2_000, 4_000, 8_000, 16_000, 32_000)
        ]
        assert (fit_coefficients(samples) >= 0).all()

    def test_calibrated_model_costs(self):
        samples = {
            GroupingAlgorithm.HG: [
                Sample(n, g, 4.0 * n) for n in (1_000, 2_000, 4_000, 8_000)
                for g in (10, 100)
            ],
            GroupingAlgorithm.SPHG: [
                Sample(n, g, 1.0 * n) for n in (1_000, 2_000, 4_000, 8_000)
                for g in (10, 100)
            ],
        }
        model = calibrate_grouping(samples)
        hg = model.grouping_cost(GroupingAlgorithm.HG, 50_000, 100)
        sphg = model.grouping_cost(GroupingAlgorithm.SPHG, 50_000, 100)
        assert hg / sphg == pytest.approx(4.0, rel=0.01)
        # Joins reuse the grouping fit: build + probe.
        hj = model.join_cost(JoinAlgorithm.HJ, 10_000, 30_000, 100)
        assert hj == pytest.approx(4.0 * 40_000, rel=0.01)

    def test_uncalibrated_algorithm_rejected(self):
        model = calibrate_grouping({})
        with pytest.raises(CostModelError, match="no calibration"):
            model.grouping_cost(GroupingAlgorithm.HG, 10, 2)


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
