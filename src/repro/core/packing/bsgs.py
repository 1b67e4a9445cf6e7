"""Baby-step giant-step planning over arbitrary diagonal-offset sets.

The classic BSGS result (paper Section 3.2, Fig. 2b): writing each
offset d = g*n1 + b splits the n rotations of the diagonal method into
~sqrt(n) baby steps (shared, hoistable) and ~sqrt(n) giant steps.  Real
convolution matrices have *sparse* offset sets, so instead of fixing
n1 = sqrt(n) we search over n1 for the split minimizing the actual
rotation count of the offsets present.

The plan is the paper's "# Rots" accounting and the input to the
analytic hoisting prices (``CostModel.matvec_cost``): the
rotation-minimal split.  Execution does not consult it.  The fused
matvec runs the split the cost model prices cheapest at the layer's
level (``PackingStats.split``, fixed by the compiler as
``PackedMatVec.split``), usually none or few giants, since a giant pays
a decomposition and a mod-down of its own where a baby pays one inner
product (docs/hoisting.md).  Both choices read one table of counts per
key set, :func:`split_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Tuple, Union

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

    Every candidate ``n1`` is only *counted* (:func:`split_counts`) and
    the plan's tuples are built for the winner alone.  The first ``n1``
    reaching the minimum wins.

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
    zeros = np.zeros_like(offset_arr)
    n1 = rotation_minimal_modulus(split_counts(zeros, zeros, offset_arr, slots))
    babies = np.unique(offset_arr % n1)
    return BsgsPlan(
        n1=n1,
        babies=tuple(babies.tolist()),
        giants=tuple(np.unique(offset_arr - offset_arr % n1).tolist()),
    )


class SplitCounts(NamedTuple):
    """Counts of a key set's baby/giant splits, one entry per baby
    modulus ``n1 = 2**k <= slots`` (at a power-of-two slot count the
    last is the unsplit walk: every baby the whole offset, no giant)."""

    #: distinct nonzero (input block, offset % n1)
    babies: np.ndarray
    #: input blocks with a nonzero baby
    baby_inputs: np.ndarray
    #: distinct nonzero (output block, offset - offset % n1)
    giants: np.ndarray
    #: those giants whose offsets include a nonzero baby
    giant_moddowns: np.ndarray


def split_counts(bo: np.ndarray, bi: np.ndarray, off: np.ndarray, slots: int) -> SplitCounts:
    """:class:`SplitCounts` of the ``(bo, bi, off)`` diagonals (int64
    columns, offsets in [0, slots)), every candidate counted at once
    from two sorts, with no sort per candidate.

    Giants: ordered by (output block, offset), each ``(bo, off >> k)``
    is a run, and a run's offsets ascend, so its last baby is its
    largest.  Babies: ordered by (input block, bit-reversed offset),
    each ``(bi, off % 2**k)`` is a run (the low k bits lead the
    reversed value), and a block's last entry has the largest low bits
    of every width.
    """
    shifts = np.arange(int(slots).bit_length())[:, None]
    masks = (1 << shifts) - 1
    if off.size == 0:
        none = np.zeros(shifts.size, dtype=np.int64)
        return SplitCounts(none, none, none, none)

    order = np.lexsort((off, bo))
    g_off = off[order]
    high = g_off >> shifts
    first = _run_starts(high, bo[order])
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    giants = np.count_nonzero(first & (high != 0), axis=1)
    giant_moddowns = np.count_nonzero(last & (high != 0) & (g_off & masks != 0), axis=1)

    bits = int(slots - 1).bit_length()
    reversed_off = np.zeros_like(off)
    for bit in range(bits):
        reversed_off |= ((off >> bit) & 1) << (bits - 1 - bit)
    order = np.lexsort((reversed_off, bi))
    b_bi = bi[order]
    low = off[order] & masks
    babies = np.count_nonzero(_run_starts(low, b_bi) & (low != 0), axis=1)
    block_ends = np.flatnonzero(np.append(b_bi[1:] != b_bi[:-1], True))
    baby_inputs = np.count_nonzero(low[:, block_ends], axis=1)
    return SplitCounts(babies, baby_inputs, giants, giant_moddowns)


def _run_starts(values: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per row of ``values``, where a run of equal (block, value) starts."""
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = (values[:, 1:] != values[:, :-1]) | (blocks[1:] != blocks[:-1])
    return starts


def rotation_minimal_modulus(counts: SplitCounts) -> int:
    """The first ``n1`` with the fewest babies + giants: the paper's
    "# Rots" split."""
    return 1 << int(np.argmin(counts.babies + counts.giants))


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
