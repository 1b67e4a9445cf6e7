"""Tap-enumerating conv packing analysis — the pre-PR-22 bodies of
``analyze_conv_packing`` / ``conv_offset_profile`` /
``merged_packing_stats``, kept as the oracle for
``repro.core.packing.analysis``.

Every ``(c_out, c_in, kh, kw)`` tap is materialized through a 4-D
meshgrid and five full-size ``slot()`` temporaries, keys are
de-duplicated with ``np.unique`` / Python sets, and counts come from
set comprehensions: O(FLOPs / positions) work to find a few thousand
diagonals, which is why it left ``src/``.  It shares nothing with the
``src/`` analysis but the result dataclasses, the layouts and the
materialize path's hybrid rule.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.packing.analysis import (
    OffsetProfile,
    PackingStats,
    conv_hybrid_modulus,
)
from repro.core.packing.layouts import MultiplexedLayout, StackedLayout
from repro.utils.intmath import int_log2, next_power_of_two

from reference.bsgs_loop import plan_bsgs_loop as plan_bsgs


def conv_tap_slots(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
):
    """Representative (out_slot, in_slot) pairs of every conv tap.

    Each tap's diagonal offset is position-independent (Section 4.1),
    so evaluating every tap at *some* output position where it is valid
    enumerates the full offset structure.
    """
    c_out, c_in_g, kh, kw = weight_shape
    sh, sw = stride
    out_h = (in_layout.height + 2 * padding[0] - dilation[0] * (kh - 1) - 1) // sh + 1
    out_w = (in_layout.width + 2 * padding[1] - dilation[1] * (kw - 1) - 1) // sw + 1
    out_layout = MultiplexedLayout(
        channels=c_out,
        height=out_h,
        width=out_w,
        gap=in_layout.gap * sh,
        slots=in_layout.slots,
    )
    co_per_group = c_out // groups
    ci_per_group = in_layout.channels // groups if groups > 1 else c_in_g

    # Per-tap representative output positions.  (Tiny spatial maps may
    # have no position where all taps are valid simultaneously; taps
    # invalid everywhere contribute nothing.)
    def _tap_positions(kernel, dil, pad, stride_1d, in_size, out_size):
        reps = np.full(kernel, -1, dtype=np.int64)
        for tap in range(kernel):
            # smallest o with 0 <= o*s + tap*dil - pad < in_size
            low = -(-(pad - tap * dil) // stride_1d)
            o = max(0, low)
            if o < out_size and 0 <= o * stride_1d + tap * dil - pad < in_size:
                reps[tap] = o
        return reps

    oy_rep = _tap_positions(kh, dilation[0], padding[0], sh, in_layout.height, out_h)
    ox_rep = _tap_positions(kw, dilation[1], padding[1], sw, in_layout.width, out_w)

    co = np.arange(c_out)
    ci_rel = np.arange(c_in_g)
    dy = np.arange(kh)
    dx = np.arange(kw)
    co_g, ci_g, dy_g, dx_g = np.meshgrid(co, ci_rel, dy, dx, indexing="ij")
    group_of_co = co_g // co_per_group
    ci_global = group_of_co * ci_per_group + ci_g

    oy0 = oy_rep[dy_g]
    ox0 = ox_rep[dx_g]
    valid = (oy0 >= 0) & (ox0 >= 0)
    oy0 = np.where(valid, oy0, 0)
    ox0 = np.where(valid, ox0, 0)
    iy = oy0 * sh + dy_g * dilation[0] - padding[0]
    ix = ox0 * sw + dx_g * dilation[1] - padding[1]
    iy = np.clip(iy, 0, in_layout.height - 1)
    ix = np.clip(ix, 0, in_layout.width - 1)

    out_slot = out_layout.slot(co_g, oy0, ox0)
    in_slot = in_layout.slot(ci_global, iy, ix)
    return out_slot[valid], in_slot[valid], out_layout


def analyze_conv_packing(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
) -> PackingStats:
    """Count diagonals/rotations of a conv without building plaintexts."""
    n = in_layout.slots
    out_slot, in_slot, out_layout = conv_tap_slots(
        weight_shape, in_layout, stride, padding, dilation, groups
    )

    bo = out_slot // n
    bi = in_slot // n
    diag = (in_slot - out_slot) % n
    num_in_blocks = int(bi.max()) + 1
    key = (bo * num_in_blocks + bi) * n + diag
    unique_keys = np.unique(key)
    pmults = int(unique_keys.size)
    offsets = np.unique(unique_keys % n)
    # Distinct (input block, offset) pairs with a nonzero offset: the
    # key-switch inner products of the fused execution path.  Because
    # key = (bo*B + bi)*n + diag, reducing mod B*n isolates bi*n + diag.
    bi_diag = np.unique(unique_keys % (num_in_blocks * n))
    nonzero_offsets = int(np.count_nonzero(bi_diag % n))

    plan = plan_bsgs(offsets.tolist(), n)
    # Babies hoist per input ciphertext; giants per output ciphertext.
    rest = unique_keys // n
    bi_of_key = rest % (int(bi.max()) + 1)
    bo_of_key = rest // (int(bi.max()) + 1)
    babies = 0
    for block in np.unique(bi_of_key):
        offs = unique_keys[bi_of_key == block] % n
        babies += int(np.count_nonzero(np.unique(offs % plan.n1)))
    giants = 0
    for block in np.unique(bo_of_key):
        offs = unique_keys[bo_of_key == block] % n
        giants += int(np.count_nonzero(np.unique(offs - offs % plan.n1)))

    stats = PackingStats(
        rotations=babies + giants,
        pmults=pmults,
        num_in_cts=in_layout.num_ciphertexts,
        num_out_cts=out_layout.num_ciphertexts,
        num_unique_offsets=int(offsets.size),
        out_layout=out_layout,
        _giants=giants,
        num_folds=0,
        _offsets=nonzero_offsets,
        splits=splits_by_sets(
            zip(bo_of_key.tolist(), bi_of_key.tolist(), (unique_keys % n).tolist()), n
        ),
    )

    # Mirror build_conv_packing's Gazelle-hybrid choice for small outputs.
    m2 = conv_hybrid_modulus(in_layout, out_layout)
    if m2 is not None:
        hybrid_offsets = np.unique((in_slot - out_slot) % m2)
        plan_h = plan_bsgs(hybrid_offsets.tolist(), n)
        folds = int_log2(n // m2)
        hybrid_rots = plan_h.num_rotations + folds
        if hybrid_rots < stats.rotations:
            stats = PackingStats(
                rotations=hybrid_rots,
                pmults=int(hybrid_offsets.size),
                num_in_cts=1,
                num_out_cts=1,
                num_unique_offsets=int(hybrid_offsets.size),
                out_layout=out_layout,
                _giants=sum(1 for g in plan_h.giants if g) + folds,
                num_folds=folds,
                _offsets=int(np.count_nonzero(hybrid_offsets)),
                splits=splits_by_sets(((0, 0, int(off)) for off in hybrid_offsets), n),
            )
    return stats


def stats_from_keys(
    keys, num_in: int, num_out: int, fold_shifts, out_layout, slots: int
) -> PackingStats:
    """PackingStats from an explicit (bo, bi, offset) key set, by sets."""
    offsets = sorted({off for (_, _, off) in keys})
    plan = plan_bsgs(offsets, slots)
    by_bi: dict = {}
    by_bo: dict = {}
    for bo, bi, off in keys:
        by_bi.setdefault(bi, set()).add(off)
        by_bo.setdefault(bo, set()).add(off)
    babies = sum(
        len({off % plan.n1 for off in offs} - {0}) for offs in by_bi.values()
    )
    giants = sum(
        len({off - off % plan.n1 for off in offs} - {0}) for offs in by_bo.values()
    )
    folds = len(fold_shifts)
    nonzero = len({(bi, off) for (_, bi, off) in keys if off})
    return PackingStats(
        rotations=babies + giants + folds * num_out,
        pmults=len(keys),
        num_in_cts=num_in,
        num_out_cts=num_out,
        num_unique_offsets=len(offsets),
        out_layout=out_layout,
        _giants=giants + folds * num_out,
        num_folds=folds,
        _offsets=nonzero,
        splits=splits_by_sets(keys, slots),
    )


def splits_by_sets(keys, slots: int):
    """``PackingStats.splits`` by sets: for every ``n1 = 2**k`` up to
    the largest offset, the split's change from the unsplit walk in
    inner products, decompositions and mod-downs, kept when it saves an
    inner product or a decomposition and no other split matches or
    beats it on all three (the first of equals stays), largest ``n1``
    first."""
    keys = list(keys)
    if not keys:
        return ()
    products = len({(bi, off) for _, bi, off in keys if off})
    inputs = len({bi for _, bi, off in keys if off})
    candidates = []
    n1 = 1
    while n1 <= max(off for _, _, off in keys):
        babies = {(bi, off % n1) for _, bi, off in keys if off % n1}
        giants = {(bo, off - off % n1) for bo, _, off in keys if off - off % n1}
        moddowns = {(bo, off - off % n1) for bo, _, off in keys
                    if off - off % n1 and off % n1}
        change = (
            n1,
            len(babies) + len(giants) - products,
            len({bi for bi, _ in babies}) + len(giants) - inputs,
            len(moddowns),
        )
        if change[1] < 0 or change[2] < 0:
            candidates.append(change)
        n1 *= 2
    candidates.reverse()
    kept = []
    for i, c in enumerate(candidates):
        beaten = any(
            all(a <= b for a, b in zip(o[1:], c[1:])) and (j < i or o[1:] != c[1:])
            for j, o in enumerate(candidates) if j != i
        )
        if not beaten:
            kept.append(c)
    return tuple(kept)


def conv_offset_profile(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
) -> OffsetProfile:
    """Offset structure of a conv, mirroring the builder's plain-vs-
    hybrid choice."""
    n = in_layout.slots
    out_slot, in_slot, out_layout = conv_tap_slots(
        weight_shape, in_layout, stride, padding, dilation, groups
    )
    stats = analyze_conv_packing(
        weight_shape, in_layout, stride, padding, dilation, groups
    )
    if stats.num_folds:
        m2 = next_power_of_two(out_layout.total_slots)
        offsets = np.unique((in_slot - out_slot) % m2)
        keys = tuple((0, 0, int(off)) for off in offsets)
        fold_shifts = tuple(n >> (i + 1) for i in range(int_log2(n // m2)))
        return OffsetProfile(
            slots=n, num_in=1, num_out=1, keys=keys,
            fold_shifts=fold_shifts, out_layout=out_layout,
        )
    bo = out_slot // n
    bi = in_slot // n
    diag = (in_slot - out_slot) % n
    keys = tuple(
        sorted({(int(o), int(i), int(d)) for o, i, d in zip(bo, bi, diag)})
    )
    return OffsetProfile(
        slots=n,
        num_in=in_layout.num_ciphertexts,
        num_out=out_layout.num_ciphertexts,
        keys=keys,
        fold_shifts=(),
        out_layout=out_layout,
    )


def merged_packing_stats(profiles) -> PackingStats:
    """Counts of the concat-fused layer formed from sibling profiles."""
    first = profiles[0]
    keys = []
    bo_base = 0
    for p in profiles:
        keys.extend((bo_base + bo, bi, off) for (bo, bi, off) in p.keys)
        bo_base += p.num_out
    out_layout = StackedLayout(
        parts=tuple(p.out_layout for p in profiles), slots=first.slots
    )
    return stats_from_keys(
        keys, first.num_in, bo_base, first.fold_shifts, out_layout, first.slots
    )
