"""The relocating batched view: scratch moved into the client's block
under a new diagonal offset.

``PackedMatVec.batched`` once built its slot-batched views this way.
Gazelle hybrid row replication writes some partial products at wrapped
positions near the ring top (rows ``j = c - offset < 0 mod n``), in
block ``q >= 1`` of a single client's ciphertext.  This form moves each
such piece to ``j - q*S`` (still congruent to its row modulo ``m2``,
since ``S`` is a multiple of ``m2``) and grows its diagonal offset to
``off + q*S``, which keeps the read on the client's own slots.  The
product is right, but ``off + q*S`` is a rotation no single-client
inference performs, so every such offset costs a key and an inner
product of its own.

The gathering view in ``src/`` keeps ``off``, accumulates the block-
``q`` pieces as their own partial sum and rotates that sum by ``q*S``
after the rescale.  Before the fold the two forms compute the same
vector (``tests/test_fold_form.py::TestGatheredViews``); only the
summation order differs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.packing.bsgs import plan_bsgs
from repro.core.packing.layouts import BlockReplicatedLayout
from repro.core.packing.matvec import PackedMatVec


def relocated_view(packed: PackedMatVec, batch: int) -> PackedMatVec:
    """``packed`` over ``batch`` block-replicated clients, out-of-block
    scratch relocated under a compensating whole-block offset."""
    n = packed.slots
    block = n // batch

    def replicate(vec: np.ndarray) -> np.ndarray:
        """sum_j roll(vec, j*S) == tile of the block-folded vector."""
        return np.tile(vec.reshape(batch, block).sum(axis=0), batch)

    # new_offset -> {(out_block, in_block) -> out-position-indexed vector}
    acc: Dict[int, Dict[Tuple[int, int], np.ndarray]] = {}
    for (bo, bi), dmap in packed.diags.items():
        for offset, vec in dmap.items():
            pieces = vec.reshape(batch, block)
            for q in range(batch):
                piece = pieces[q]
                if not piece.any():
                    continue
                if q and not packed.fold_shifts:
                    raise ValueError("scratch escapes its block with no fold")
                new_offset = (offset + q * block) % n
                relocated = np.zeros(n)
                relocated[:block] = piece
                by_block = acc.setdefault(new_offset, {})
                if (bo, bi) in by_block:
                    by_block[(bo, bi)] = by_block[(bo, bi)] + relocated
                else:
                    by_block[(bo, bi)] = relocated

    diags: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
    for new_offset, by_block in acc.items():
        for (bo, bi), vec in by_block.items():
            diags.setdefault((bo, bi), {})[new_offset] = replicate(vec)
    fold_groups, start = [], 0
    for size in packed.fold_groups:
        kept = sum(s < block for s in packed.fold_shifts[start:start + size])
        start += size
        if kept:
            fold_groups.append(kept)
    return PackedMatVec(
        slots=n,
        num_in=packed.num_in,
        num_out=packed.num_out,
        diags=diags,
        plan=plan_bsgs(sorted(acc), n),
        out_layout=BlockReplicatedLayout(packed.out_layout, batch, n),
        fold_shifts=tuple(s for s in packed.fold_shifts if s < block),
        fold_groups=tuple(fold_groups),
        bias_vecs=None
        if packed.bias_vecs is None
        else [replicate(vec) for vec in packed.bias_vecs],
        name=f"{packed.name}@x{batch}",
    )
