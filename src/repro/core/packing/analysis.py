"""Closed-form packing analysis for layers too large to materialize.

For same-style multiplexed convolutions the diagonal offset of a weight
entry is *independent of spatial position* (paper Section 4.1: this is
the property that makes the Toeplitz form efficient).  So rotation and
PMult counts can be computed from the filter geometry and channel
structure alone by evaluating offsets at one interior output position —
no O(FLOPs) materialization.  This powers the Table 2 rows for Tiny
ImageNet / ImageNet / YOLO scale networks.

How a conv's offset table is formed (:func:`conv_diagonal_keys`):

- **Separable slots.**  ``MultiplexedLayout.slot(c, y, x)`` is a sum
  ``A(c) + S(y, x)`` of a channel term and a spatial term.  A tap
  ``(dy, dx)`` evaluated at one representative output position
  therefore touches output slots ``A_out(co) + So(tap)`` and input
  slots ``A_in(ci) + Si(tap)``: two channel vectors computed once per
  geometry, two scalars per tap.  Taps valid at no output position
  (tiny maps) contribute nothing.
- **Per-tap outer difference.**  A diagonal is a triple ``(bo, bi,
  diag)`` — output ciphertext, input ciphertext, offset ``(in_slot -
  out_slot) mod n`` — encoded as the integer ``(bo * B + bi) * n +
  diag`` with ``B`` the input ciphertext count.  Per tap these are one
  ``(c_out, c_in/groups)`` outer difference of the channel vectors; no
  array ever has a kernel axis.
- **Bitmap de-dup over a bounded key space.**  Keys live in ``[0,
  num_out * B * n)``, so the distinct set is a scatter into a boolean
  bitmap of that size followed by ``flatnonzero`` (which also sorts).
  When the bitmap would outweigh the keys themselves (``space > 8 *
  count``: many ciphertexts, few channels — a network's first layers)
  the handful of keys is sorted with ``np.unique`` instead, so the
  working set never exceeds the smaller of the two.

Everything else — BSGS plan, baby/giant counts, the Gazelle-hybrid
choice, the ``OffsetProfile`` the graph optimizer gates on — is derived
from that one sorted key array (:class:`ConvAnalysis`).  A compile owns
one :class:`ConvAnalysisTable`, so the optimizer's fusion gate, the
fused lowering and the emitter read one entry per distinct geometry;
the table dies with the compile.  The tap-enumerating form survives as
the test oracle ``tests/reference/conv_analysis_bruteforce.py``.

The analysis ignores image-border effects, which only *remove* matrix
entries (never add diagonals), and assumes channel regions do not
straddle ciphertext boundaries mid-position (true for all power-of-two
benchmark shapes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.core.packing.bsgs import plan_bsgs
from repro.core.packing.layouts import (
    MultiplexedLayout,
    StackedLayout,
    VectorLayout,
)
from repro.core.packing.matvec import _conv_hybrid_modulus
from repro.utils.intmath import int_log2, next_power_of_two


@dataclass(frozen=True)
class PackingStats:
    """Operation counts of a packed linear layer (no plaintexts built)."""

    rotations: int
    pmults: int
    num_in_cts: int
    num_out_cts: int
    num_unique_offsets: int
    out_layout: MultiplexedLayout

    def cost(self, level: int, cost_model, hoisting: str = "fused") -> float:
        """Modeled latency; defaults to the fused price like
        :meth:`repro.core.packing.matvec.PackedMatVec.cost` so analyze
        and materialize modes agree on placement decisions."""
        diag = self.pmults
        # Split rotations between babies and giants the way the plan did.
        baby = self.rotations - self._giants
        return cost_model.matvec_cost(
            level, diag, baby, self._giants, hoisting,
            num_in=self.num_in_cts, num_out=self.num_out_cts,
            num_folds=self.num_folds,
            num_offsets=None if self._offsets < 0 else self._offsets,
        )

    _giants: int = 0
    num_folds: int = 0
    # Distinct nonzero (input block, offset) pairs; -1 = unknown (the
    # fused price then conservatively treats every diagonal as rotated).
    _offsets: int = -1


def _tap_positions(kernel, dil, pad, stride, in_size, out_size) -> np.ndarray:
    """Per kernel tap, the smallest output index where it reads inside
    the input (-1: valid nowhere, as on maps smaller than the kernel)."""
    reps = np.full(kernel, -1, dtype=np.int64)
    for tap in range(kernel):
        # smallest o with 0 <= o*s + tap*dil - pad < in_size
        o = max(0, -(-(pad - tap * dil) // stride))
        if o < out_size and 0 <= o * stride + tap * dil - pad < in_size:
            reps[tap] = o
    return reps


def _distinct(key_arrays, count: int, space: int) -> np.ndarray:
    """Sorted distinct values of ``count`` integers in ``[0, space)``,
    handed over as an iterable of arrays.

    A boolean bitmap over the key space when that is no larger than the
    keys would be as int64 (each array is scattered and dropped, nothing
    is sorted); otherwise ``np.unique`` over the few keys.
    """
    if space > 8 * count:
        return np.unique(np.concatenate([keys.ravel() for keys in key_arrays]))
    seen = np.zeros(space, dtype=bool)
    for keys in key_arrays:
        seen[keys] = True
    return np.flatnonzero(seen)


def conv_diagonal_keys(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride,
    padding,
    dilation,
    groups: int,
) -> Tuple[np.ndarray, MultiplexedLayout]:
    """The conv's distinct diagonals and its output layout.

    Diagonals come back as the sorted int64 keys ``(bo * B + bi) * n +
    diag`` with ``B = in_layout.num_ciphertexts`` (module docstring).
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
    n = in_layout.slots
    num_in = in_layout.num_ciphertexts

    # One representative (output, input) position per tap valid anywhere.
    oy = _tap_positions(kh, dilation[0], padding[0], sh, in_layout.height, out_h)
    ox = _tap_positions(kw, dilation[1], padding[1], sw, in_layout.width, out_w)
    dy, dx = np.nonzero((oy >= 0)[:, None] & (ox >= 0)[None, :])
    oy, ox = oy[dy], ox[dx]
    tap_out = out_layout.slot(0, oy, ox)
    tap_in = in_layout.slot(
        0, oy * sh + dy * dilation[0] - padding[0], ox * sw + dx * dilation[1] - padding[1]
    )

    # Channel terms: output channel co reads input channels ci[co, :].
    co = np.arange(c_out)
    ci_per_group = in_layout.channels // groups if groups > 1 else c_in_g
    ci = (co // (c_out // groups))[:, None] * ci_per_group + np.arange(c_in_g)
    chan_out = out_layout.slot(co, 0, 0)[:, None]
    chan_in = in_layout.slot(ci, 0, 0)

    def tap_keys():
        for s_out, s_in in zip(tap_out.tolist(), tap_in.tolist()):
            out_slot = chan_out + s_out
            in_slot = chan_in + s_in
            yield (
                (out_slot // n * num_in + in_slot // n) * n
                + (in_slot - out_slot) % n
            )

    keys = _distinct(
        tap_keys(),
        count=tap_out.size * ci.size,
        space=out_layout.num_ciphertexts * num_in * n,
    )
    return keys, out_layout


def _count_stats(
    bo, bi, off, num_in: int, num_out: int, fold_shifts, out_layout, slots: int
) -> PackingStats:
    """PackingStats of distinct (bo, bi, offset) diagonals, as columns.

    Uses the same :func:`plan_bsgs` over the same offset union and the
    same per-block baby/giant counting as
    :meth:`repro.core.packing.matvec.PackedMatVec.rotation_count`
    (babies hoist per input ciphertext, giants per output ciphertext),
    so analyzed, merged and materialized layers report equal counts.
    """
    offsets = np.unique(off)
    plan = plan_bsgs(offsets, slots)
    baby = off % plan.n1
    giant = off - baby

    def distinct_nonzero(block, steps) -> int:
        return int(np.unique((block * slots + steps)[steps != 0]).size)

    giants = distinct_nonzero(bo, giant) + len(fold_shifts) * num_out
    return PackingStats(
        rotations=distinct_nonzero(bi, baby) + giants,
        pmults=int(off.size),
        num_in_cts=num_in,
        num_out_cts=num_out,
        num_unique_offsets=int(offsets.size),
        out_layout=out_layout,
        _giants=giants,
        num_folds=len(fold_shifts),
        # Distinct nonzero (input block, offset) pairs: the key-switch
        # inner products of the fused execution path.
        _offsets=distinct_nonzero(bi, off),
    )


def _key_columns(keys) -> np.ndarray:
    """(bo, bi, offset) triples -> three int64 columns."""
    return np.array(keys, dtype=np.int64).reshape(-1, 3).T


def analyze_linear_packing(
    out_features: int, in_layout, chunk_rows: int = 64
) -> PackingStats:
    """Exact rotation/PMult counts for a dense FC layer, no plaintexts.

    Mirrors :func:`repro.core.packing.matvec.build_linear_packing`: the
    same hybrid-vs-plain choice and the same BSGS planning, computed
    from the slot geometry alone (a dense matrix's offset set does not
    depend on the weight values).
    """
    n = in_layout.slots
    length = in_layout.logical_length
    in_slots = np.asarray(in_layout.slot_of_logical(np.arange(length)))
    single_block = in_layout.num_ciphertexts == 1 and out_features <= n // 2
    use_hybrid = single_block and out_features <= n // 4

    offsets = set()
    fold_count = 0
    if use_hybrid:
        m2 = next_power_of_two(out_features)
        for start in range(0, out_features, chunk_rows):
            rows = np.arange(start, min(start + chunk_rows, out_features))
            offsets.update(
                np.unique((in_slots[None, :] - rows[:, None]) % m2).tolist()
            )
        fold_count = int_log2(n // m2)
    else:
        for start in range(0, out_features, chunk_rows):
            rows = np.arange(start, min(start + chunk_rows, out_features))
            offsets.update(
                np.unique((in_slots[None, :] - rows[:, None]) % n).tolist()
            )
    plan = plan_bsgs(offsets, n)
    rotations = plan.num_rotations * in_layout.num_ciphertexts + fold_count
    pmults = len(offsets) * in_layout.num_ciphertexts
    out_layout = VectorLayout(out_features, n)
    return PackingStats(
        rotations=rotations,
        pmults=pmults,
        num_in_cts=in_layout.num_ciphertexts,
        num_out_cts=1,
        num_unique_offsets=len(offsets),
        out_layout=out_layout,
        _giants=sum(1 for g in plan.giants if g) + fold_count,
        num_folds=fold_count,
        _offsets=sum(1 for o in offsets if o) * in_layout.num_ciphertexts,
    )


# ---------------------------------------------------------------------------
# Offset profiles: the geometry the graph optimizer's fusion gate needs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OffsetProfile:
    """The (out_block, in_block, offset) structure of one linear layer.

    Value-free: computed from shapes and layouts alone, so the
    concat-linear fusion gate makes the *identical* decision in analyze
    and materialize compile modes.  ``keys`` holds the distinct
    (bo, bi, offset) triples of the layer's diagonal table.
    """

    slots: int
    num_in: int
    num_out: int
    keys: Tuple[Tuple[int, int, int], ...]
    fold_shifts: Tuple[int, ...]
    out_layout: object

    def stats(self) -> PackingStats:
        return _count_stats(
            *_key_columns(self.keys), self.num_in, self.num_out,
            self.fold_shifts, self.out_layout, self.slots,
        )


class ConvAnalysis:
    """What the compiler asks about one conv geometry, from one key table.

    Mirrors ``build_conv_packing``'s plain-vs-Gazelle-hybrid choice
    (a hybrid pick is visible as ``stats.num_folds > 0``): for a small
    single-ciphertext output the offsets collapse modulo the padded
    output length and a rotate-and-sum fold ladder finishes the product,
    taken when that costs fewer rotations.
    """

    def __init__(self, weight_shape, in_layout, stride, padding, dilation, groups):
        n = in_layout.slots
        keys, out_layout = conv_diagonal_keys(
            weight_shape, in_layout, stride, padding, dilation, groups
        )
        blocks, off = np.divmod(keys, n)
        bo, bi = np.divmod(blocks, in_layout.num_ciphertexts)
        chosen = (
            bo, bi, off, in_layout.num_ciphertexts, out_layout.num_ciphertexts,
            (), out_layout, n,
        )
        stats = _count_stats(*chosen)
        m2 = _conv_hybrid_modulus(in_layout, out_layout)
        if m2 is not None:
            hybrid_off = np.unique(off % m2)
            zeros = np.zeros_like(hybrid_off)
            fold_shifts = tuple(n >> (i + 1) for i in range(int_log2(n // m2)))
            hybrid = (zeros, zeros, hybrid_off, 1, 1, fold_shifts, out_layout, n)
            hybrid_stats = _count_stats(*hybrid)
            if hybrid_stats.rotations < stats.rotations:
                chosen, stats = hybrid, hybrid_stats
        self.stats: PackingStats = stats
        self._chosen = chosen

    @cached_property
    def profile(self) -> OffsetProfile:
        """The chosen form's diagonals as an :class:`OffsetProfile`
        (built on first use: only fusion candidates need the triples)."""
        bo, bi, off, num_in, num_out, fold_shifts, out_layout, n = self._chosen
        return OffsetProfile(
            slots=n, num_in=num_in, num_out=num_out,
            keys=tuple(zip(bo.tolist(), bi.tolist(), off.tolist())),
            fold_shifts=fold_shifts, out_layout=out_layout,
        )


class ConvAnalysisTable:
    """The conv analyses of one compile, one per distinct geometry.

    ``OrionCompiler._compile`` creates one and hands it to the graph
    optimizer's context and to the program builder, so the fusion gate
    (and its re-scans), the fused lowering and the per-layer emitter
    share entries — a ResNet stage repeats one geometry 5-11 times.
    Deliberately not a module-level cache: nothing outlives the compile.
    """

    def __init__(self):
        self._by_geometry: dict = {}

    def __len__(self) -> int:
        return len(self._by_geometry)

    def lookup(self, weight_shape, in_layout, stride=(1, 1), padding=(0, 0),
               dilation=(1, 1), groups: int = 1) -> ConvAnalysis:
        geometry = (
            tuple(weight_shape), in_layout, tuple(stride), tuple(padding),
            tuple(dilation), groups,
        )
        entry = self._by_geometry.get(geometry)
        if entry is None:
            entry = self._by_geometry[geometry] = ConvAnalysis(*geometry)
        return entry


def analyze_conv_packing(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
) -> PackingStats:
    """Count diagonals/rotations of a conv without building plaintexts."""
    return ConvAnalysis(
        weight_shape, in_layout, stride, padding, dilation, groups
    ).stats


def conv_offset_profile(
    weight_shape: Tuple[int, int, int, int],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
) -> OffsetProfile:
    """Offset structure of a conv (the form ``analyze_conv_packing``
    counted: plain, or hybrid when ``num_folds > 0``)."""
    return ConvAnalysis(
        weight_shape, in_layout, stride, padding, dilation, groups
    ).profile


def linear_offset_profile(out_features: int, in_layout) -> OffsetProfile:
    """Offset structure of a dense FC layer (mirrors
    ``analyze_linear_packing``'s hybrid rule and dense-offset model)."""
    n = in_layout.slots
    length = in_layout.logical_length
    in_slots = np.asarray(in_layout.slot_of_logical(np.arange(length)))
    single_block = in_layout.num_ciphertexts == 1 and out_features <= n // 2
    use_hybrid = single_block and out_features <= n // 4
    rows = np.arange(out_features)
    if use_hybrid:
        m2 = next_power_of_two(out_features)
        offsets = np.unique((in_slots[None, :] - rows[:, None]) % m2)
        fold_shifts = tuple(n >> (i + 1) for i in range(int_log2(n // m2)))
    else:
        offsets = np.unique((in_slots[None, :] - rows[:, None]) % n)
        fold_shifts = ()
    keys = tuple(
        (0, bi, int(off))
        for bi in range(in_layout.num_ciphertexts)
        for off in offsets
    )
    return OffsetProfile(
        slots=n,
        num_in=in_layout.num_ciphertexts,
        num_out=1,
        keys=keys,
        fold_shifts=fold_shifts,
        out_layout=VectorLayout(out_features, n),
    )


def merged_packing_stats(profiles) -> PackingStats:
    """Counts of the concat-fused layer formed from sibling profiles.

    Globalizes each profile's output blocks onto the stacked ciphertext
    axis and recounts over the union offset set — the exact computation
    :meth:`PackedMatVec.rotation_count` performs on the merged layer
    built by ``merge_packed_matvecs``, so analyze and materialize modes
    report identical fused counts.
    """
    first = profiles[0]
    for p in profiles[1:]:
        if p.slots != first.slots or p.num_in != first.num_in:
            raise ValueError("profiles must share slots and input blocks")
        if p.fold_shifts != first.fold_shifts:
            raise ValueError("profiles must share fold shifts")
    columns = []
    bo_base = 0
    for p in profiles:
        bo, bi, off = _key_columns(p.keys)
        columns.append((bo + bo_base, bi, off))
        bo_base += p.num_out
    out_layout = StackedLayout(
        parts=tuple(p.out_layout for p in profiles), slots=first.slots
    )
    return _count_stats(
        *(np.concatenate(column) for column in zip(*columns)),
        first.num_in, bo_base, first.fold_shifts, out_layout, first.slots,
    )


def analyze_toeplitz_strided_diagonals(
    in_layout: MultiplexedLayout, kernel: Tuple[int, int], stride: int, c_out: int
) -> int:
    """Non-zero diagonal count of the *naive* strided Toeplitz matrix
    (paper Figure 5a): without row permutation, consecutive output rows
    shift the kernel by ``stride`` positions, so each (tap, channel
    pair) contributes one diagonal per output position and the count
    approaches c_i * h_i * w_i."""
    kh, kw = kernel
    out_h = (in_layout.height - kh) // stride + 1
    out_w = (in_layout.width - kw) // stride + 1
    n = in_layout.slots
    co = np.arange(c_out)
    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    # Raster (gap-1) output layout: row index = co*oh*ow + oy*ow + ox.
    out_index = (
        co[:, None, None] * (out_h * out_w) + oy[None] * out_w + ox[None]
    )
    diags = set()
    for dy in range(kh):
        for dx in range(kw):
            for ci in range(in_layout.channels):
                in_slot = in_layout.slot(
                    np.full_like(oy, ci), oy * stride + dy, ox * stride + dx
                )
                d = (in_slot[None] - out_index) % n
                diags.update(np.unique(d).tolist())
    return len(diags)
