"""Static perfect hashing."""

import numpy as np
import pytest

from repro.errors import PreconditionError
from repro.indexes import StaticPerfectHash


class TestStaticPerfectHash:
    def test_minimal_on_dense_domain(self):
        sph = StaticPerfectHash(10, 19, num_distinct=10)
        assert sph.num_slots == 10
        assert sph.is_minimal
        assert sph.slot(10) == 0
        assert sph.slot(19) == 9
        assert sph.key_of_slot(9) == 19

    def test_vectorised_slots(self):
        sph = StaticPerfectHash(0, 4, num_distinct=5)
        keys = np.array([4, 0, 2])
        assert list(sph.slot(keys)) == [4, 0, 2]
        assert list(sph.key_of_slot(np.array([1, 3]))) == [1, 3]

    def test_sparse_domain_rejected(self):
        # density 10/1001 — the paper's applicability precondition.
        with pytest.raises(PreconditionError, match="dense"):
            StaticPerfectHash(0, 1000, num_distinct=10)

    def test_density_threshold_configurable(self):
        StaticPerfectHash(0, 1000, num_distinct=10, min_density=0.001)

    def test_relatively_dense_accepted(self):
        # "(relatively) dense": half-full passes the default 0.5 guard.
        StaticPerfectHash(0, 19, num_distinct=10)

    def test_for_keys(self):
        sph = StaticPerfectHash.for_keys(np.array([5, 6, 7, 7]))
        assert sph.min_key == 5
        assert sph.is_minimal

    def test_for_keys_empty(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash.for_keys(np.empty(0, dtype=np.int64))

    def test_slot_checked_bounds(self):
        sph = StaticPerfectHash(0, 9, num_distinct=10)
        with pytest.raises(PreconditionError):
            sph.slot_checked(np.array([10]))

    def test_empty_domain_rejected(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash(5, 4)

    def test_distinct_exceeding_domain_rejected(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash(0, 4, num_distinct=6)

