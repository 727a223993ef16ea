"""The plan node says what was decided, and every reader says it alike.

A join or group-by node holds the option the plan space priced; a scan
holds its access path. Two contracts follow. Spelling: the decision
label, ``describe()`` and EXPLAIN WHY name each of the three modes the
same way. Lowering: the operator ``to_operator`` builds runs the node's
option in its mode and on its backend (a join's is always serial), and reads the table through the
access path the node names — something result-equality tests cannot see,
since every mode returns the same bits.
"""

import dataclasses

import numpy as np
import pytest

from repro.avs import AVRegistry, ViewKind, materialize_view
from repro.core import dqo_config
from repro.core.optimizer.rules import grouping_options, join_options
from repro.core.plan import (
    AccessPath,
    Implementation,
    PhysicalNode,
    decision_label,
    plan_decisions,
    to_operator,
)
from repro.datagen import Density, Sortedness, make_join_scenario
from repro.engine import count_star
from repro.engine.operators import (
    DecodeColumn,
    GroupBy,
    IndexRangeScan,
    Join,
    SegmentScan,
    TableScan,
)
from repro.obs.search import explain_why
from repro.storage import Catalog, Table
from repro.storage.disk import BufferManager, write_table

MODES = {"serial", "parallel", "parallel@process"}


def scenario_catalog():
    return make_join_scenario(
        n_r=2_000,
        n_s=5_000,
        num_groups=200,
        r_sortedness=Sortedness.UNSORTED,
        s_sortedness=Sortedness.UNSORTED,
        density=Density.SPARSE,
        seed=3,
    ).build_catalog()


def test_one_spelling_per_mode(paper_query):
    """Every join and grouping option, set on the chosen node in place of
    its own: EXPLAIN WHY's label for it (the decision's ``algorithm`` or
    a rival's) is what ``describe()`` and the decision label print."""
    config = dqo_config(workers=4, backend="process")
    report = explain_why(paper_query, scenario_catalog(), config=config)
    nodes = [node for node in report.result.plan.walk() if node.option is not None]
    seen = set()
    for node, why in zip(nodes, report.decisions):
        options = (
            join_options(config) if node.op == "join" else grouping_options(config, 4)
        )
        rivals = iter(why.rivals)
        for option in options:
            said = why.algorithm if option == node.option else next(rivals)["algorithm"]
            sibling = dataclasses.replace(
                node, decision=dataclasses.replace(node.decision, option=option)
            )
            assert sibling.label == said
            assert f"[{said}](" in sibling.describe()
            label = decision_label(plan_decisions(sibling)[0])
            assert label.startswith(f"{node.op}[{said}](")
            seen.add(option.mode)
    assert seen == MODES


def pinned(operator) -> tuple:
    """What a Join / GroupBy operator was told to run: its algorithm and
    the (parallel, backend) it pins — ``parallel=None`` would mean
    auto-detect, i.e. a dropped decision. A join has no loop to pin: it
    always runs the serial kernel."""
    if isinstance(operator, Join):
        return (operator.algorithm, False, "thread")
    return (operator.algorithm, operator._parallel, operator._backend)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_every_option_lowers_as_costed(backend, memory_storage):
    catalog = scenario_catalog()
    config = dqo_config(workers=4, backend=backend)
    scan_r = PhysicalNode("scan", AccessPath("R", "R"))
    scan_s = PhysicalNode("scan", AccessPath("S", "S"))
    nodes = [
        PhysicalNode("join", Implementation(option, ("R.ID", "S.R_ID")), (scan_r, scan_s))
        for option in join_options(config)
    ] + [
        PhysicalNode(
            "group_by", Implementation(option, ("R.A",), (count_star(),)), (scan_r,)
        )
        for option in grouping_options(config, 4)
    ]
    for node in nodes:
        operator = to_operator(node, catalog)
        option = node.option
        assert isinstance(operator, Join if node.op == "join" else GroupBy)
        assert pinned(operator) == (option.algorithm, option.parallel, option.backend)
        # The two read-only properties perf/harness.py reads.
        assert (node.join_algorithm or node.grouping_algorithm) is option.algorithm
    modes = {node.option.mode for node in nodes}
    assert modes == (MODES if backend == "process" else {
        mode for mode in MODES if "process" not in mode
    })


#: access path -> group key, and the lowered group-by over it, root down.
ACCESS_PATHS = [
    (AccessPath("T", "T"), "T.g", [GroupBy, TableScan]),
    (
        AccessPath("D", "D", storage="disk", pushed=()),
        "D.g",
        [GroupBy, SegmentScan],
    ),
    (
        AccessPath("T", "T", view=("sorted_projection", "k")),
        "T.g",
        [GroupBy, TableScan],
    ),
    (
        AccessPath("T", "T", view=("dictionary", "g")),
        "T.g",
        [DecodeColumn, GroupBy, TableScan],
    ),
    (
        AccessPath("T", "T", view=("btree", "k"), index_range=(10, 99)),
        "T.g",
        [GroupBy, IndexRangeScan],
    ),
]


@pytest.mark.parametrize(
    "path,key,chain", ACCESS_PATHS, ids=["memory", "disk", "sorted", "dictionary", "btree"]
)
def test_each_access_path_lowers_to_its_operator(
    path, key, chain, tmp_path, memory_storage
):
    rng = np.random.default_rng(5)
    columns = {"k": rng.permutation(1_000), "g": rng.integers(0, 1_000_000, 1_000)}
    catalog = Catalog()
    catalog.register("T", Table.from_arrays(columns))
    catalog.register(
        "D",
        write_table(
            Table.from_arrays(columns),
            str(tmp_path / "D"),
            segment_rows=256,
            buffer=BufferManager(budget_bytes=4 * 1024 * 1024),
        ),
    )
    views = AVRegistry(
        [
            materialize_view(catalog, ViewKind.SORTED_PROJECTION, "T", "k"),
            materialize_view(catalog, ViewKind.DICTIONARY, "T", "g"),
            materialize_view(catalog, ViewKind.BTREE, "T", "k"),
        ]
    )
    (option,) = [
        option for option in grouping_options(dqo_config(), 1) if option.label == "HG"
    ]
    node = PhysicalNode(
        "group_by",
        Implementation(option, (key,), (count_star(),)),
        (PhysicalNode("scan", path),),
    )
    operator = to_operator(node, catalog, views=views)
    lowered = []
    while True:
        lowered.append(type(operator))
        if not operator.children:
            break
        (operator,) = operator.children
    assert lowered == chain
