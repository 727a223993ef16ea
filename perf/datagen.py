"""Seeded input data for the benchmark, as plain numpy arrays.

Nothing here imports ``repro``: the program under test receives only
the generated arrays, and :mod:`perf.reference` evaluates the same
arrays independently. A table is ``{column name: int64 array}``.
"""

from __future__ import annotations

import numpy as np

#: domain dilation of the sparse configurations (density ~ 1/1000, so
#: static perfect hashing is inapplicable).
SPARSE_SPREAD = 1000

#: the ``adhoc_plan`` star schema, one entry per dimension:
#: (rows, distinct A values, stored sorted by ID, dense domain).
STAR_DIMENSIONS = (
    (2000, 200, True, True),
    (3000, 300, False, True),
    (4000, 400, True, False),
    (2500, 250, False, False),
    (3500, 350, True, True),
)

#: distinct grouping values of the ``disk_scan`` table.
SCAN_GROUPS = 512


def _dilate(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map dense values onto a sparse domain, strictly monotonically."""
    size = int(values.max()) + 1
    mapping = np.arange(size, dtype=np.int64) * SPARSE_SPREAD
    mapping += rng.integers(0, SPARSE_SPREAD, size=size)
    return mapping[values]


def dimension(
    rng: np.random.Generator, rows: int, groups: int, sorted_: bool, dense: bool
) -> dict[str, np.ndarray]:
    """A keyed table: unique ``ID`` and a grouping attribute ``A`` that
    is monotone in ``ID`` (the paper's FK-correlation assumption) with
    exactly ``groups`` distinct values."""
    ids = np.arange(rows, dtype=np.int64)
    attrs = np.sort(
        np.concatenate(
            [
                np.arange(groups, dtype=np.int64),
                rng.integers(0, groups, size=rows - groups),
            ]
        )
    )
    if not dense:
        ids, attrs = _dilate(ids, rng), _dilate(attrs, rng)
    if not sorted_:
        order = rng.permutation(rows)
        ids, attrs = ids[order], attrs[order]
    return {"ID": ids, "A": attrs}


def join_tables(
    rng: np.random.Generator,
    r_rows: int,
    s_rows: int,
    groups: int,
    sorted_: bool,
    dense: bool,
) -> dict[str, dict[str, np.ndarray]]:
    """R and S of the paper's section 4.3 query: ``S.R_ID`` is a foreign
    key into ``R.ID``; sortedness applies to both tables' key columns."""
    r = dimension(rng, r_rows, groups, sorted_, dense)
    references = r["ID"][rng.integers(0, r_rows, size=s_rows)]
    if sorted_:
        references.sort()
    return {
        "R": r,
        "S": {"R_ID": references, "B": rng.integers(0, 1000, size=s_rows)},
    }


def star_tables(
    rng: np.random.Generator, fact_rows: int, dimensions=STAR_DIMENSIONS
) -> dict[str, dict[str, np.ndarray]]:
    """FACT with one foreign key ``D<i>_ID`` per dimension ``D<i>`` and a
    measure ``M``; FACT is stored sorted by its first foreign key."""
    tables = {}
    fact = {}
    for index, (rows, groups, sorted_, dense) in enumerate(dimensions):
        table = dimension(rng, rows, groups, sorted_, dense)
        tables[f"D{index}"] = table
        fact[f"D{index}_ID"] = table["ID"][rng.integers(0, rows, size=fact_rows)]
    order = np.argsort(fact["D0_ID"], kind="stable")
    fact = {name: values[order] for name, values in fact.items()}
    fact["M"] = rng.integers(0, 1000, size=fact_rows)
    tables["FACT"] = fact
    return tables


def scan_table(
    rng: np.random.Generator, rows: int, first_key: int = 0
) -> dict[str, np.ndarray]:
    """The ``disk_scan`` table: ascending key ``k`` (so zone maps can
    prune ranges of it), group ``g`` and value ``v`` uniform."""
    return {
        "k": np.arange(first_key, first_key + rows, dtype=np.int64),
        "g": rng.integers(0, SCAN_GROUPS, size=rows),
        "v": rng.integers(0, 1000, size=rows),
    }
