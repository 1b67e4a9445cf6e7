"""A packed linear layer's diagonal key set, and every count derived from it.

A packed layer is a set of distinct diagonals ``(bo, bi, offset)`` —
output ciphertext, input ciphertext, slot offset ``(in_slot -
out_slot) mod n`` — plus a Gazelle rotate-and-sum fold ladder and a BSGS
baby modulus ``n1``.  :func:`_count_stats` is the one function that
turns that key set into a :class:`PackingStats` (rotations, PMults, the
fused path's key-switch inner products, the modeled price).  Every
source of a key set goes through it: a materialized
:class:`~repro.core.packing.matvec.PackedMatVec` (its ``stats``), the
closed-form conv and FC structures below (analyze-mode compiles, paper
Tables 2-5 at scale), and the graph optimizer's fused-sibling gate.

**Plain or hybrid, decided on key sets.**  The Gazelle hybrid (paper
Section 8.2) replicates matrix rows modulo the padded output length
``m2`` so offsets collapse into ``[0, m2)`` and ``log2(n / m2)`` folds
finish the product.  It applies only when input and output are each one
ciphertext, so every plain key is ``(0, 0, off)`` and the hybrid keys
are exactly ``unique(off % m2)``.  :class:`DiagonalStructure` makes the
choice from those two key sets; ``build_conv_packing`` and
``build_linear_packing`` then pack once, with values, in the chosen form.

How a conv's offset table is formed (:func:`conv_diagonal_keys`):

- **Separable slots.**  ``MultiplexedLayout.slot(c, y, x)`` is a sum
  ``A(c) + S(y, x)`` of a channel term and a spatial term.  A tap
  ``(dy, dx)`` evaluated at one representative output position
  therefore touches output slots ``A_out(co) + So(tap)`` and input
  slots ``A_in(ci) + Si(tap)``: two channel vectors computed once per
  geometry, two scalars per tap.  Taps valid at no output position
  (tiny maps) contribute nothing.
- **Per-tap outer difference.**  A diagonal ``(bo, bi, diag)`` is
  encoded as the integer ``(bo * B + bi) * n + diag`` with ``B`` the
  input ciphertext count.  Per tap these are one ``(c_out, c_in/groups)``
  outer difference of the channel vectors; no array ever has a kernel
  axis.
- **Bitmap de-dup over a bounded key space.**  Keys live in ``[0,
  num_out * B * n)``, so the distinct set is a scatter into a boolean
  bitmap of that size followed by ``flatnonzero`` (which also sorts).
  When the bitmap would outweigh the keys themselves (``space > 8 *
  count``: many ciphertexts, few channels — a network's first layers)
  the handful of keys is sorted with ``np.unique`` instead, so the
  working set never exceeds the smaller of the two.

A compile owns one :class:`ConvAnalysisTable`, so the optimizer's fusion
gate, the fused lowering and the emitter read one entry per distinct
geometry; the table dies with the compile.  The tap-enumerating form
survives as the test oracle ``tests/reference/conv_analysis_bruteforce.py``.

**Where the conv analysis is not exact.**  Evaluating each tap at one
position is exact only when a tap's offset is the same at every output
position.  Image borders are harmless (they only *remove* entries,
never diagonals), but two layouts break it, and there the analysis
undercounts what ``build_conv_packing`` packs:

- a channel that straddles a ciphertext boundary (its slots fall in two
  ciphertexts, so ``bo``/``bi`` change with position): all 13 distinct
  conv geometries of the paper's 224x224 ResNet-34, and LeNet-5's first
  conv and pool at N = 4096;
- an output grid row narrower than the input's (an unpadded conv,
  ``out_w * g_out != in_w * g_in``), so the offset drifts with the
  output row: LeNet-5's second conv at N = 4096 (82 rotations / 1070
  PMults counted, 94 / 2024 packed).

ResNet-20's 9 geometries and the e2e workloads' convs hit neither;
``tests/test_packing.py::TestConvAnalysisGaps`` pins the gap.  The FC
structure (:func:`linear_structure`) is exact per block pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.core.packing.bsgs import plan_bsgs
from repro.core.packing.layouts import (
    MultiplexedLayout,
    StackedLayout,
    VectorLayout,
)
from repro.utils.intmath import int_log2, next_power_of_two


@dataclass(frozen=True)
class PackingStats:
    """Operation counts of a packed linear layer (from its key set)."""

    rotations: int
    pmults: int
    num_in_cts: int
    num_out_cts: int
    num_unique_offsets: int
    out_layout: object
    # Giant rotations, the fold ladder's included.
    _giants: int
    num_folds: int
    # Distinct nonzero (input block, offset) pairs: the key-switch inner
    # products of the fused execution path.
    _offsets: int
    # A batched view's extra partial sums: each one's gather rotations
    # (one key switch apiece, counted in ``rotations`` and the giants).
    gathers: Tuple[int, ...] = ()

    def cost(self, level: int, cost_model, hoisting: str = "fused") -> float:
        """Modeled latency at the given level (drives placement).

        Defaults to the ``"fused"`` price — what
        :meth:`repro.core.packing.matvec.PackedMatVec.execute` runs.  The
        other ``hoisting`` values are analytic prices only (the paper's
        hoisting ablation, docs/hoisting.md); they count the Gazelle
        folds inside the giant count, the fused price counts them
        separately (``CostModel.fold_cost``).  A batched view's extra
        partial sum adds a mod-down, a rescale, its gather rotations and
        an add.
        """
        price = cost_model.matvec_cost(
            level, self.pmults, self.rotations - self._giants, self._giants,
            hoisting, num_in=self.num_in_cts, num_out=self.num_out_cts,
            num_folds=self.num_folds, num_offsets=self._offsets,
        )
        for steps in self.gathers:
            price += (
                cost_model.ks_moddown(level) + cost_model.rescale(level)
                + steps * cost_model.hrot(level) + cost_model.hadd(level)
            )
        return price


def _count_stats(
    bo, bi, off, num_in: int, num_out: int, fold_shifts, out_layout, slots: int,
    n1: Optional[int] = None, gathers: Tuple[int, ...] = (),
) -> PackingStats:
    """PackingStats of distinct (bo, bi, offset) diagonals, as columns.

    Babies hoist per input ciphertext and giants per output ciphertext
    (the paper's "# Rots"), split by the BSGS modulus ``n1`` — a packed
    layer's own plan, or by default :func:`plan_bsgs` over the distinct
    offsets, which is how every plan is made.  Each of the
    ``len(fold_shifts)`` folds rotates every output ciphertext once.
    A batched view's ``bo`` is its partial sum; ``gathers`` lists each
    extra partial's gather rotations (``PackedMatVec.gathers``).
    """
    offsets = np.unique(off)
    if n1 is None:
        n1 = plan_bsgs(offsets, slots).n1
    baby = off % n1
    giant = off - baby

    def distinct_nonzero(block, steps) -> int:
        return int(np.unique((block * slots + steps)[steps != 0]).size)

    giants = distinct_nonzero(bo, giant) + len(fold_shifts) * num_out + sum(gathers)
    return PackingStats(
        rotations=distinct_nonzero(bi, baby) + giants,
        pmults=int(off.size),
        num_in_cts=num_in,
        num_out_cts=num_out,
        num_unique_offsets=int(offsets.size),
        out_layout=out_layout,
        _giants=giants,
        num_folds=len(fold_shifts),
        _offsets=distinct_nonzero(bi, off),
        gathers=tuple(gathers),
    )


def _key_columns(keys) -> np.ndarray:
    """(bo, bi, offset) triples -> three int64 columns."""
    return np.array(keys, dtype=np.int64).reshape(-1, 3).T


def _split_keys(keys: np.ndarray, num_in: int, slots: int):
    """Encoded keys ``(bo * num_in + bi) * slots + off`` -> (bo, bi, off)."""
    blocks, off = np.divmod(keys, slots)
    bo, bi = np.divmod(blocks, num_in)
    return bo, bi, off


def _diagonal_keys(out_slot, in_slot, num_in: int, slots: int):
    """Matrix entries at global ``(out_slot, in_slot)`` -> their
    diagonals' keys ``(bo * num_in + bi) * slots + (in - out) mod slots``."""
    return (
        (out_slot // slots * num_in + in_slot // slots) * slots
        + (in_slot - out_slot) % slots
    )


def diagonal_columns(out_slot, in_slot, num_in: int, slots: int):
    """Distinct diagonals touched by matrix entries ``(out_slot[k],
    in_slot[k])``, as sorted (bo, bi, off) columns."""
    keys = _diagonal_keys(
        np.asarray(out_slot, dtype=np.int64), np.asarray(in_slot, dtype=np.int64),
        num_in, slots,
    )
    return _split_keys(np.unique(keys), num_in, slots)


def fold_ladder(slots: int, m2: int) -> Tuple[int, ...]:
    """The Gazelle rotate-and-sum shifts n/2, n/4, ..., m2."""
    return tuple(slots >> (i + 1) for i in range(int_log2(slots // m2)))


def conv_hybrid_modulus(in_layout: MultiplexedLayout, out_layout) -> Optional[int]:
    """Padded output length m2 when the Gazelle hybrid applies to a conv:
    one input and one output ciphertext, output within half the slots."""
    if in_layout.num_ciphertexts != 1 or out_layout.num_ciphertexts != 1:
        return None
    if out_layout.total_slots > in_layout.slots // 2:
        return None
    return next_power_of_two(out_layout.total_slots)


def linear_hybrid_rule(out_features: int, in_layout, force_mode=None):
    """``(m2, hybrid)`` for a dense layer: ``m2`` (``m`` padded to a
    power of two) when the hybrid applies — one input ciphertext and
    ``m <= n/2`` — else None with ``hybrid`` False; ``hybrid`` is True
    for ``m <= n/4`` (taken outright), None between (raced on rotations).

    ``force_mode="hybrid"`` forces it (``ValueError`` when it does not
    apply); any other non-None ``force_mode`` forces the plain form.
    """
    n = in_layout.slots
    if in_layout.num_ciphertexts != 1 or out_features > n // 2:
        if force_mode == "hybrid":
            raise ValueError("hybrid method requires a single-ciphertext input")
        return None, False
    m2 = next_power_of_two(out_features)
    if force_mode is not None:
        return m2, force_mode == "hybrid"
    return m2, (True if out_features <= n // 4 else None)


class DiagonalStructure:
    """A linear layer's diagonal key set in the form it is packed in.

    Built from the *plain* form's distinct ``(bo, bi, off)`` columns.
    Given ``m2`` (the hybrid applies, so all keys are ``(0, 0, off)``),
    the Gazelle-hybrid keys are ``unique(off % m2)`` with
    :func:`fold_ladder` folds: ``hybrid`` True takes them, False keeps
    plain, None keeps whichever costs fewer rotations (plain on a tie).
    ``stats`` counts the chosen form (``num_folds > 0``: hybrid);
    ``profile`` lists its triples.
    """

    def __init__(self, bo, bi, off, num_in: int, num_out: int, out_layout,
                 slots: int, m2: Optional[int] = None,
                 hybrid: Optional[bool] = None):
        chosen = (bo, bi, off, num_in, num_out, (), out_layout, slots)
        stats = None if hybrid else _count_stats(*chosen)
        if m2 is not None and hybrid is not False:
            hybrid_off = np.unique(off % m2)
            zeros = np.zeros_like(hybrid_off)
            folded = (zeros, zeros, hybrid_off, 1, 1, fold_ladder(slots, m2),
                      out_layout, slots)
            folded_stats = _count_stats(*folded)
            if hybrid or folded_stats.rotations < stats.rotations:
                chosen, stats = folded, folded_stats
        self.stats: PackingStats = stats
        self._chosen = chosen

    @cached_property
    def profile(self) -> "OffsetProfile":
        """The chosen form's diagonals as an :class:`OffsetProfile`
        (built on first use: only fusion candidates need the triples)."""
        bo, bi, off, num_in, num_out, fold_shifts, out_layout, n = self._chosen
        return OffsetProfile(
            slots=n, num_in=num_in, num_out=num_out,
            keys=tuple(zip(bo.tolist(), bi.tolist(), off.tolist())),
            fold_shifts=fold_shifts, out_layout=out_layout,
        )


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
            yield _diagonal_keys(chan_out + s_out, chan_in + s_in, num_in, n)

    keys = _distinct(
        tap_keys(),
        count=tap_out.size * ci.size,
        space=out_layout.num_ciphertexts * num_in * n,
    )
    return keys, out_layout


def conv_structure(weight_shape, in_layout, stride=(1, 1), padding=(0, 0),
                   dilation=(1, 1), groups: int = 1) -> DiagonalStructure:
    """A conv's diagonal structure from its geometry alone (the plain
    form from :func:`conv_diagonal_keys`, hybrid where it is cheaper)."""
    n = in_layout.slots
    num_in = in_layout.num_ciphertexts
    keys, out_layout = conv_diagonal_keys(
        weight_shape, in_layout, stride, padding, dilation, groups
    )
    return DiagonalStructure(
        *_split_keys(keys, num_in, n), num_in, out_layout.num_ciphertexts,
        out_layout, n, conv_hybrid_modulus(in_layout, out_layout),
    )


def _dense_columns(out_features: int, in_layout, chunk_rows: int = 64):
    """Distinct (bo, bi, off) diagonals of a dense ``out_features x L``
    matrix over ``in_layout``: every entry's key, ``chunk_rows`` rows at
    a time, de-duplicated like a conv's (:func:`_distinct`)."""
    n = in_layout.slots
    num_in = in_layout.num_ciphertexts
    length = in_layout.logical_length
    in_slots = np.asarray(in_layout.slot_of_logical(np.arange(length)))

    def row_keys():
        for start in range(0, out_features, chunk_rows):
            rows = np.arange(start, min(start + chunk_rows, out_features))
            yield _diagonal_keys(rows[:, None], in_slots[None, :], num_in, n)

    keys = _distinct(
        row_keys(),
        count=out_features * length,
        space=VectorLayout(out_features, n).num_ciphertexts * num_in * n,
    )
    return _split_keys(keys, num_in, n)


def linear_structure(out_features: int, in_layout,
                     diagonal: bool = False) -> DiagonalStructure:
    """A dense layer's diagonal structure from its shape alone, exact per
    input block (a partial last block included), under the hybrid rule
    ``build_linear_packing`` applies (:func:`linear_hybrid_rule`).

    ``diagonal=True`` is a diagonal ``m x m`` matrix — a standalone
    BatchNorm1d on a vector layout — whose entries are ``(r, r)``.
    """
    n = in_layout.slots
    num_in = in_layout.num_ciphertexts
    out_layout = VectorLayout(out_features, n)
    if diagonal:
        rows = np.arange(out_features)
        columns = diagonal_columns(rows, in_layout.slot_of_logical(rows), num_in, n)
    else:
        columns = _dense_columns(out_features, in_layout)
    return DiagonalStructure(
        *columns, num_in, out_layout.num_ciphertexts, out_layout, n,
        *linear_hybrid_rule(out_features, in_layout),
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


class ConvAnalysisTable:
    """The conv structures of one compile, one per distinct geometry.

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
               dilation=(1, 1), groups: int = 1) -> DiagonalStructure:
        geometry = (
            tuple(weight_shape), in_layout, tuple(stride), tuple(padding),
            tuple(dilation), groups,
        )
        entry = self._by_geometry.get(geometry)
        if entry is None:
            entry = self._by_geometry[geometry] = conv_structure(*geometry)
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
    return conv_structure(
        weight_shape, in_layout, stride, padding, dilation, groups
    ).stats


def merged_packing_stats(profiles) -> PackingStats:
    """Counts of the concat-fused layer formed from sibling profiles.

    Globalizes each profile's output blocks onto the stacked ciphertext
    axis and recounts over the union offset set — the key set
    ``merge_packed_matvecs`` builds, so analyze and materialize modes
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
