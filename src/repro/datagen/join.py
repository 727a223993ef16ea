"""Generator for the §4.3 foreign-key join + grouping scenario.

The paper's query::

    SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A;

with *"the output-size of the join to be 90,000 because of the foreign-key
constraint and the [grouping] output-size to be 20,000"*. |R| is not stated;
DESIGN.md substitution #4 reconstructs |R| = 45,000 from the published
improvement factors.

The generated data makes the paper's implicit assumptions true by
construction (DESIGN.md substitution #5):

* ``S.R_ID`` is a foreign key into ``R.ID`` — every S row matches exactly
  one R row, so |join output| = |S|.
* ``R.A`` is monotone in ``R.ID`` (FK-correlation assumption), so a join
  output ordered by ``R.ID`` is also ordered by ``R.A`` and order-based
  grouping applies downstream of an order-preserving join.
* In the *dense* configuration both ``R.ID`` and ``R.A`` use gap-free
  domains; in the *sparse* configuration both are dilated order-preservingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.distributions import sparsify
from repro.datagen.grouping import Density, Sortedness
from repro.errors import DataGenError
from repro.storage.catalog import Catalog, ForeignKey
from repro.storage.column import Column
from repro.storage.dtypes import DataType
from repro.storage.table import Table

#: Cardinalities of the paper's §4.3 scenario (|R| reconstructed).
PAPER_R_ROWS = 45_000
PAPER_S_ROWS = 90_000
PAPER_NUM_GROUPS = 20_000


@dataclass(frozen=True)
class JoinScenario:
    """Generated R and S tables plus their configuration."""

    r: Table
    s: Table
    num_groups: int
    r_sortedness: Sortedness
    s_sortedness: Sortedness
    density: Density

    def build_catalog(self) -> Catalog:
        """A catalog with R, S, and the S.R_ID -> R.ID foreign key."""
        catalog = Catalog()
        catalog.register("R", self.r)
        catalog.register("S", self.s)
        catalog.add_foreign_key(ForeignKey("S", "R_ID", "R", "ID"))
        return catalog

    def expected_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The query's rows computed with numpy alone, whatever route a
        plan takes: (R.A ascending, COUNT(*) per value), the group sizes
        of R.A over the position of each S row's R row."""
        ids = self.r["ID"]
        order = np.argsort(ids, kind="stable")
        positions = order[np.searchsorted(ids, self.s["R_ID"], sorter=order)]
        keys, counts = np.unique(self.r["A"][positions], return_counts=True)
        return keys, counts.astype(np.int64)


def make_join_scenario(
    n_r: int = PAPER_R_ROWS,
    n_s: int = PAPER_S_ROWS,
    num_groups: int = PAPER_NUM_GROUPS,
    r_sortedness: Sortedness = Sortedness.SORTED,
    s_sortedness: Sortedness = Sortedness.SORTED,
    density: Density = Density.DENSE,
    sparse_spread: int = 1000,
    seed: int = 0,
) -> JoinScenario:
    """Generate one configuration of the §4.3 scenario.

    R has columns ``ID`` (key, unique) and ``A`` (grouping attribute,
    ``num_groups`` distinct values, monotone in ``ID``); S has ``R_ID``
    (FK into R) and a payload ``B``.

    Sortedness of R means R is stored ordered by ``ID``; sortedness of S
    means S is stored ordered by ``R_ID``.
    """
    if num_groups > n_r:
        raise DataGenError(
            f"num_groups ({num_groups}) cannot exceed |R| ({n_r})"
        )
    rng = np.random.default_rng(seed)

    # R.ID: unique keys 0..n_r-1 (dense) or dilated (sparse).
    r_id_sorted = np.arange(n_r, dtype=np.int64)
    # R.A monotone in R.ID: non-decreasing group labels over R's ID order,
    # covering each of the num_groups values at least once.
    r_a_sorted = np.sort(
        np.concatenate(
            [
                np.arange(num_groups, dtype=np.int64),
                rng.integers(0, num_groups, size=n_r - num_groups, dtype=np.int64),
            ]
        )
    )
    if density is Density.SPARSE:
        r_id_sorted = sparsify(r_id_sorted, sparse_spread, rng)
        r_a_sorted = sparsify(r_a_sorted, sparse_spread, rng)

    # S.R_ID: uniform FK references, stored sorted or shuffled.
    s_ref_positions = rng.integers(0, n_r, size=n_s, dtype=np.int64)
    s_rid = r_id_sorted[s_ref_positions]
    s_rid.sort()
    if s_sortedness is Sortedness.UNSORTED:
        rng.shuffle(s_rid)
    s_b = rng.integers(0, 1000, size=n_s, dtype=np.int64)

    # Store R sorted by ID, or under a random row permutation.
    if r_sortedness is Sortedness.SORTED:
        r_id, r_a = r_id_sorted, r_a_sorted
    else:
        perm = rng.permutation(n_r)
        r_id, r_a = r_id_sorted[perm], r_a_sorted[perm]

    r = Table(
        [
            Column("ID", r_id, DataType.INT64),
            Column("A", r_a, DataType.INT64),
        ]
    )
    s = Table(
        [
            Column("R_ID", s_rid, DataType.INT64),
            Column("B", s_b, DataType.INT64),
        ]
    )
    return JoinScenario(
        r=r,
        s=s,
        num_groups=num_groups,
        r_sortedness=r_sortedness,
        s_sortedness=s_sortedness,
        density=density,
    )
