"""Plans do not move: golden fingerprints for the shapes ``perf/`` samples.

``golden_plans.json`` holds, for the four section 4.3 layouts, six star
queries and the three disk query classes, the plan fingerprint and
``SearchStats.generated`` the optimiser produced at the commit that last
*meant* to change a plan — serial, ``workers=2`` on threads and
``workers=2`` on processes. A performance change asserts equality here
instead of arguing that its plans are the same. A change that means to
move a plan regenerates the file and says so::

    PYTHONPATH=src python tests/integration/test_golden_plans.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # ``perf`` lives beside ``src``
    sys.path.insert(0, str(ROOT))

from perf import datagen  # noqa: E402
from perf.reference import Query  # noqa: E402
from repro.core.optimizer.base import dqo_config  # noqa: E402
from repro.core.optimizer.dp import DynamicProgrammingOptimizer  # noqa: E402
from repro.core.optimizer.plancache import PlanCache  # noqa: E402
from repro.settings import scoped_settings  # noqa: E402
from repro.sql import plan_query  # noqa: E402
from repro.storage import Catalog, Table  # noqa: E402
from repro.storage.catalog import ForeignKey  # noqa: E402
from repro.storage.disk import write_table  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_plans.json")
GOLDEN_PLANS = json.loads(GOLDEN.read_text())

#: (label, workers, backend) of every configuration a case is planned under.
CONFIGS = (("serial", 1, "thread"), ("thread2", 2, "thread"), ("process2", 2, "process"))

FIG5_QUERY = Query(fact="S", group=("R", "A"), joins=(("R", "R_ID"),))
FIG5_LAYOUTS = {
    "sorted_dense": (True, True),
    "sorted_sparse": (True, False),
    "unsorted_dense": (False, True),
    "unsorted_sparse": (False, False),
}
#: the paper's (|R|, |S|, distinct R.A).
FIG5_SIZES = (45_000, 90_000, 20_000)
STAR_FACT_ROWS = 5_000
#: an eighth of ``disk_scan``: the plans depend on the shape, not the size.
DISK_ROWS, DISK_SEGMENT_ROWS = 125_000, 8_192


def memory_catalog(tables: dict, keys) -> Catalog:
    catalog = Catalog()
    for name, columns in tables.items():
        catalog.register(name, Table.from_arrays(columns))
    for key in keys:
        catalog.add_foreign_key(ForeignKey(*key))
    return catalog


def star_queries() -> list[Query]:
    """Six star queries: every filter template of ``adhoc_plan``, over
    different grouped dimensions."""
    dimensions = len(datagen.STAR_DIMENSIONS)

    def star(group: int, where) -> Query:
        order = [group] + [i for i in range(dimensions) if i != group]
        return Query(
            fact="FACT",
            group=(f"D{group}", "A"),
            joins=tuple((f"D{i}", f"D{i}_ID") for i in order),
            filter=where,
        )

    return [
        star(0, None),
        star(1, None),
        star(2, ("FACT", "M", 600)),
        star(3, ("FACT", "D1_ID", 2_000)),
        star(4, ("D4", "A", 200)),
        star(2, ("D2", "A", 250_000)),
    ]


def cases(work_dir: Path):
    """Yield ``(label, catalog, query)`` for every golden case."""
    for index, (layout, (sorted_, dense)) in enumerate(FIG5_LAYOUTS.items()):
        tables = datagen.join_tables(
            np.random.default_rng([0, index]), *FIG5_SIZES, sorted_, dense
        )
        yield (
            f"fig5/{layout}",
            memory_catalog(tables, [("S", "R_ID", "R", "ID")]),
            FIG5_QUERY,
        )
    tables = datagen.star_tables(np.random.default_rng([0, 0]), STAR_FACT_ROWS)
    keys = [
        ("FACT", f"D{i}_ID", f"D{i}", "ID")
        for i in range(len(datagen.STAR_DIMENSIONS))
    ]
    star = memory_catalog(tables, keys)
    for index, query in enumerate(star_queries()):
        yield f"star/{index}", star, query
    scan = datagen.scan_table(np.random.default_rng([0, 0]), DISK_ROWS)
    directory = work_dir / "golden_T"
    write_table(Table.from_arrays(scan), str(directory), segment_rows=DISK_SEGMENT_ROWS)
    disk = Catalog()
    disk.register_disk("T", str(directory))
    group = ("T", "g")
    yield "disk/full", disk, Query("T", group)
    yield "disk/hot", disk, Query("T", group, filter=("T", "k", int(DISK_SEGMENT_ROWS * 2.5)))
    yield "disk/unselective", disk, Query("T", group, filter=("T", "v", 10), sum_column="v")


def measure(work_dir: Path) -> dict:
    """``{case/config: {"fingerprint", "generated"}}`` at this commit.

    The memory cases stay in memory under ``REPRO_STORAGE=disk``: a
    spilled table plans (rightly) with disk scans.
    """
    measured = {}
    with scoped_settings(storage="memory"):
        for label, catalog, query in cases(work_dir):
            logical = plan_query(query.sql(), catalog)
            for name, workers, backend in CONFIGS:
                config = dqo_config(workers=workers, backend=backend)
                # A private, empty plan cache: every case is a full search.
                result = DynamicProgrammingOptimizer(
                    catalog, config=config, plan_cache=PlanCache()
                ).optimize(logical)
                measured[f"{label}/{name}"] = {
                    "fingerprint": result.plan_fingerprint,
                    "generated": result.stats.generated,
                }
    return measured


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("golden"))


def test_every_golden_case_is_measured(measured):
    assert sorted(measured) == sorted(GOLDEN_PLANS)


@pytest.mark.parametrize("case", sorted(GOLDEN_PLANS))
def test_plan_and_search_effort_unchanged(measured, case):
    assert measured[case] == GOLDEN_PLANS[case]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(measure(Path(scratch)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
