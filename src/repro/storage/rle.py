"""Run-length encoding (RLE).

Section 2.2 lists *"compressed (and how exactly?)"* among the DQO plan
properties. RLE is the second concrete compression scheme in this library
(next to :mod:`repro.storage.dictionary`); it is interesting to DQO because
a run-length encoded column *is* a partitioned/clustered representation —
grouping over an RLE column degenerates to an aggregation over runs, which
is the order-based grouping kernel operating on metadata only. Disk
pages use it too; the engine's memoised key encoding is a dictionary,
which :func:`~repro.storage.dictionary.dictionary_encode` reads off a
non-decreasing column's runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.arrays import runs_of
from repro.errors import ColumnError
from repro.storage.dictionary import narrow_counts


@dataclass(frozen=True)
class RunLengthEncoded:
    """A run-length-encoded 1-D array: (value, run length) pairs in order."""

    #: value of each run.
    values: np.ndarray
    #: length of each run (>= 1, one per value), in ``narrow_counts`` width.
    lengths: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.lengths.shape:
            raise ColumnError(
                "values and lengths must have equal shape, got "
                f"{self.values.shape} vs {self.lengths.shape}"
            )
        if self.lengths.size and int(self.lengths.min()) < 1:
            raise ColumnError("all run lengths must be >= 1")

    @property
    def num_runs(self) -> int:
        """Number of runs."""
        return int(self.values.size)

    @property
    def decoded_size(self) -> int:
        """Number of elements after decoding."""
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def compression_ratio(self) -> float:
        """``decoded_size / num_runs``; 1.0 means RLE gained nothing."""
        if self.num_runs == 0:
            return 1.0
        return self.decoded_size / self.num_runs

    def memory_bytes(self) -> int:
        """Bytes held by the run arrays (values plus lengths)."""
        return int(self.values.nbytes) + int(self.lengths.nbytes)

    def decode(self) -> np.ndarray:
        """Expand back to the original element sequence."""
        return np.repeat(self.values, self.lengths)


def rle_encode(values: np.ndarray) -> RunLengthEncoded:
    """Encode ``values`` as runs of consecutive equal elements."""
    if values.ndim != 1:
        raise ColumnError(f"expected 1-D values, got shape {values.shape}")
    starts, run_values = runs_of(values)
    lengths = np.diff(np.append(starts, values.size))
    return RunLengthEncoded(values=run_values, lengths=narrow_counts(lengths))
