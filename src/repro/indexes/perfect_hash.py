"""Static perfect hashing (SPH).

Section 2.1: *"SPH can simply be an array of groups of tuples (or running
aggregates ...). The grouping key then serves as the index into that array.
Here, the linear array slot computation works like a perfect hash function.
If all array slots are used, the SPH is even minimal. This is only
applicable if the key domain of the grouping key is (relatively) dense."*

:class:`StaticPerfectHash` is exactly that: ``slot(key) = key - min_key``.
It refuses construction when the domain is too sparse, which is how the
applicability precondition surfaces as a hard error (the optimiser is the
component that must *not* ask for SPH on a sparse domain).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionError
from repro.storage.statistics import occupancy_distinct

#: minimum ``distinct / domain_size`` static perfect hashing accepts — the
#: paper's "(relatively) dense". The kernels' guards and the optimiser's
#: density propagation (:mod:`repro.core.optimizer.rules`) share it, so
#: the optimiser never asks for an SPH the guard would refuse.
MIN_DENSITY = 0.5


class StaticPerfectHash:
    """A (minimal when dense) static perfect hash over ``[min_key, max_key]``.

    :param min_key: smallest key of the domain.
    :param max_key: largest key of the domain.
    :param num_distinct: distinct keys that will actually occur; used for
        the minimality check and the density guard.
    :param min_density: minimum acceptable ``num_distinct / domain_size``
        (default :data:`MIN_DENSITY`).
    :raises PreconditionError: when the domain is too sparse.
    """

    def __init__(
        self,
        min_key: int,
        max_key: int,
        num_distinct: int | None = None,
        min_density: float = MIN_DENSITY,
    ) -> None:
        if max_key < min_key:
            raise PreconditionError(
                f"empty key domain: [{min_key}, {max_key}]"
            )
        domain_size = max_key - min_key + 1
        if num_distinct is not None:
            if num_distinct > domain_size:
                raise PreconditionError(
                    f"num_distinct ({num_distinct}) exceeds domain size "
                    f"({domain_size})"
                )
            density = num_distinct / domain_size
            if density < min_density:
                raise PreconditionError(
                    "static perfect hashing requires a dense key domain: "
                    f"density {density:.4f} < required {min_density:.4f} "
                    f"(domain [{min_key}, {max_key}], {num_distinct} distinct)"
                )
        self._min_key = min_key
        self._max_key = max_key
        self._num_distinct = num_distinct

    @property
    def min_key(self) -> int:
        """Smallest key in the domain."""
        return self._min_key

    @property
    def max_key(self) -> int:
        """Largest key in the domain."""
        return self._max_key

    @property
    def num_distinct(self) -> int | None:
        """Distinct keys occupying the domain, when known."""
        return self._num_distinct

    @property
    def num_slots(self) -> int:
        """Size of the slot array: ``max_key - min_key + 1``."""
        return self._max_key - self._min_key + 1

    def memory_bytes(self) -> int:
        """Bytes of the dense slot array SPH stands for: one 8-byte entry
        per domain slot (§2.1: "an array of groups of tuples ... the
        grouping key then serves as the index into that array")."""
        return self.num_slots * 8

    @property
    def is_minimal(self) -> bool:
        """True when every slot is used (paper: "the SPH is even minimal")."""
        return self._num_distinct == self.num_slots

    def slot(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Map key(s) to slot(s): ``key - min_key``. No bounds check —
        use :meth:`slot_checked` for untrusted input."""
        if np.isscalar(keys):
            return int(keys) - self._min_key
        return np.asarray(keys, dtype=np.int64) - np.int64(self._min_key)

    def slot_checked(self, keys: np.ndarray) -> np.ndarray:
        """Like :meth:`slot` but validates every key is inside the domain.

        :raises PreconditionError: on any out-of-domain key.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (
            int(keys.min()) < self._min_key or int(keys.max()) > self._max_key
        ):
            raise PreconditionError(
                f"key(s) outside SPH domain [{self._min_key}, {self._max_key}]"
            )
        return keys - np.int64(self._min_key)

    def key_of_slot(self, slots: np.ndarray | int) -> np.ndarray | int:
        """Inverse of :meth:`slot`: ``slot + min_key``."""
        if np.isscalar(slots):
            return int(slots) + self._min_key
        return np.asarray(slots, dtype=np.int64) + np.int64(self._min_key)

    @classmethod
    def for_keys(
        cls, keys: np.ndarray, min_density: float = MIN_DENSITY
    ) -> "StaticPerfectHash":
        """Build an SPH for the observed ``keys``: min/max, then the
        distinct count from the occupancy of the slot array
        (:func:`repro.storage.statistics.occupancy_distinct`, the count
        the column statistics use), in O(n + domain). A join reads off
        :attr:`num_distinct` whether its build keys are distinct. A domain
        that cannot reach ``min_density`` even if every key were distinct
        is rejected before the array is allocated.

        :raises PreconditionError: if ``keys`` is empty or too sparse.
        """
        if keys.size == 0:
            raise PreconditionError("cannot build an SPH over no keys")
        min_key = int(keys.min())
        max_key = int(keys.max())
        domain_size = max_key - min_key + 1
        if keys.size < min_density * domain_size:
            raise PreconditionError(
                "static perfect hashing requires a dense key domain: at most "
                f"{keys.size} distinct keys over [{min_key}, {max_key}] "
                f"cannot reach density {min_density:.4f}"
            )
        num_distinct = occupancy_distinct(keys, min_key, domain_size)
        return cls(min_key, max_key, num_distinct, min_density)
