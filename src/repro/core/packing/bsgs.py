"""Baby-step giant-step planning over arbitrary diagonal-offset sets.

The classic BSGS result (paper Section 3.2, Fig. 2b): writing each
offset d = g*n1 + b splits the n rotations of the diagonal method into
~sqrt(n) baby steps (shared, hoistable) and ~sqrt(n) giant steps.  Real
convolution matrices have *sparse* offset sets, so instead of fixing
n1 = sqrt(n) we search over n1 for the split minimizing the actual
rotation count of the offsets present.

The plan is the paper's "# Rots" accounting and the input to the
analytic hoisting prices (``CostModel.matvec_cost``).  Execution does
not consult it: the fused matvec rotates the input by each whole offset
off one shared decomposition (docs/hoisting.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

import numpy as np

from repro.utils.intmath import is_power_of_two


@dataclass(frozen=True)
class BsgsPlan:
    """A chosen baby/giant split for a set of rotation offsets.

    Attributes:
        n1: baby-step modulus; offset d decomposes as
            (d - d % n1) + (d % n1) = giant + baby.
        babies: sorted distinct baby offsets (d % n1).
        giants: sorted distinct giant offsets (d - d % n1).
    """

    n1: int
    babies: Tuple[int, ...]
    giants: Tuple[int, ...]

    @property
    def num_rotations(self) -> int:
        """Ciphertext rotations performed (rotation by 0 is free)."""
        return sum(1 for b in self.babies if b) + sum(1 for g in self.giants if g)


def plan_bsgs(offsets: Union[Iterable[int], np.ndarray], slots: int) -> BsgsPlan:
    """Choose the rotation-minimizing power-of-two baby modulus.

    Every candidate ``n1`` is only *counted* — one ``(candidates,
    offsets)`` array of babies and one of giants, distinct nonzero
    values per row — and the plan's tuples are built for the winner
    alone.  The first ``n1`` reaching the minimum wins.

    Args:
        offsets: diagonal offsets in [0, slots) — any iterable of ints,
            or an integer ndarray (used as is, no list round-trip).
        slots: the ciphertext slot count n.
    """
    if not isinstance(offsets, np.ndarray):
        offsets = np.asarray(list(offsets), dtype=np.int64)
    offset_arr = np.unique(offsets % slots)
    if offset_arr.size == 0:
        return BsgsPlan(n1=1, babies=(), giants=())
    candidates = 1 << np.arange(int(slots).bit_length())  # powers of two <= slots
    babies = offset_arr % candidates[:, None]
    giants = offset_arr - babies  # rows stay sorted: offset_arr is
    babies.sort(axis=1)
    counts = _distinct_nonzero_sorted(babies) + _distinct_nonzero_sorted(giants)
    best = int(np.argmin(counts))  # first occurrence of the minimum
    return BsgsPlan(
        n1=int(candidates[best]),
        babies=tuple(np.unique(babies[best]).tolist()),
        giants=tuple(np.unique(giants[best]).tolist()),
    )


def _distinct_nonzero_sorted(rows: np.ndarray) -> np.ndarray:
    """Per row of non-negative, non-decreasing ints: how many distinct
    nonzero values it holds (value changes + 1, less one for a zero)."""
    changes = np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)
    return changes + 1 - (rows[:, 0] == 0)


def plan_bsgs_square_matrix(n: int) -> Tuple[int, int]:
    """Rotation counts for a dense n x n matrix (paper Figure 2).

    Returns:
        (plain_rotations, bsgs_rotations): n-1 for the plain diagonal
        method vs n1-1 + n2-1 with the balanced split n1*n2 = n.
    """
    if not is_power_of_two(n):
        raise ValueError("analysis assumes power-of-two n")
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    return n - 1, (n1 - 1) + (n2 - 1)
