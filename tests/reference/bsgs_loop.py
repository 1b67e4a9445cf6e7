"""``plan_bsgs`` as it was before PR 22: a full :class:`BsgsPlan` (two
tuples and a Python-level rotation count) built for every candidate
``n1``.  The oracle ``repro.core.packing.bsgs.plan_bsgs`` is pinned to:
same ``n1`` (first candidate reaching the minimum wins), same babies,
same giants."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.packing.bsgs import BsgsPlan


def plan_bsgs_loop(offsets: Iterable[int], slots: int) -> BsgsPlan:
    offset_arr = np.unique(np.asarray(list(offsets), dtype=np.int64) % slots)
    if offset_arr.size == 0:
        return BsgsPlan(n1=1, babies=(), giants=())
    best = None
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
