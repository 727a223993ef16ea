"""Ablation: paper cost model vs a calibrated (measured) cost model.

Table 2's constants were chosen for the authors' C++ kernels. This
ablation fits a model to *this* substrate's measured kernel runtimes
(:mod:`repro.core.cost.calibrated`) and re-runs the Figure 5 decision:
does the fitted model still pick SPH plans for dense data, i.e. is the
paper's conclusion robust to the constants? It retires with ROADMAP item
1(b), which leaves one calibration path (or none) in place of
``core/cost/calibrated.py``'s timing-dependent fit.
"""

import pytest

from repro.core import optimize_dqo, optimize_sqo
from repro.core.cost import calibrate_grouping, measure_grouping_samples
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import GroupingAlgorithm, JoinAlgorithm
from repro.sql import plan_query

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"


@pytest.fixture(scope="module")
def calibrated_model():
    samples = measure_grouping_samples(
        sizes=[50_000, 100_000, 200_000, 400_000],
        group_counts=[100, 2_000, 20_000],
        repeats=2,
    )
    return calibrate_grouping(samples)


def test_calibration_time():
    samples = measure_grouping_samples(
        sizes=[50_000, 100_000], group_counts=[100, 2_000], repeats=1
    )
    model = calibrate_grouping(samples)
    assert model.grouping_coefficients


def test_calibrated_model_prefers_sph_on_dense(calibrated_model):
    """The fitted model must reproduce the paper's core ranking: SPH
    variants cheapest on dense domains, HG paying a constant factor."""
    sph = calibrated_model.grouping_cost(GroupingAlgorithm.SPHG, 10**6, 10**4)
    hg = calibrated_model.grouping_cost(GroupingAlgorithm.HG, 10**6, 10**4)
    og = calibrated_model.grouping_cost(GroupingAlgorithm.OG, 10**6, 10**4)
    assert sph < hg
    assert og < hg


def test_figure5_winners_stable_under_calibration(calibrated_model):
    """Re-run the dense-unsorted Figure 5 cell with the fitted model: the
    DQO plan must still be the SPH plan and still beat SQO's."""
    catalog = make_join_scenario(
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.DENSE,
    ).build_catalog()
    logical = plan_query(QUERY, catalog)
    sqo = optimize_sqo(logical, catalog, cost_model=calibrated_model)
    dqo = optimize_dqo(logical, catalog, cost_model=calibrated_model)
    join_node = next(n for n in dqo.plan.walk() if n.op == "join")
    group_node = next(n for n in dqo.plan.walk() if n.op == "group_by")
    assert join_node.join_algorithm is JoinAlgorithm.SPHJ
    assert group_node.grouping_algorithm is GroupingAlgorithm.SPHG
    assert dqo.cost < sqo.cost
