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
from typing import Iterable, Tuple

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

    def split(self, offset: int) -> Tuple[int, int]:
        baby = offset % self.n1
        return offset - baby, baby


def plan_bsgs(offsets: Iterable[int], slots: int) -> BsgsPlan:
    """Choose the rotation-minimizing power-of-two baby modulus.

    Args:
        offsets: diagonal offsets in [0, slots).
        slots: the ciphertext slot count n.
    """
    offset_arr = np.unique(np.asarray(list(offsets), dtype=np.int64) % slots)
    if offset_arr.size == 0:
        return BsgsPlan(n1=1, babies=(), giants=())
    best: BsgsPlan | None = None
    n1 = 1
    while n1 <= slots:
        babies = np.unique(offset_arr % n1)
        giants = np.unique(offset_arr - (offset_arr % n1))
        count = int(np.count_nonzero(babies)) + int(np.count_nonzero(giants))
        plan = BsgsPlan(n1=n1, babies=tuple(babies.tolist()), giants=tuple(giants.tolist()))
        if best is None or count < best.num_rotations:
            best = plan
        n1 *= 2
    return best


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
