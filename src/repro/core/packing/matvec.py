"""Packed matrix-vector products: construction and execution.

``build_conv_packing`` turns any convolution (stride/padding/dilation/
groups) into a :class:`PackedMatVec`: the single-shot multiplexed
formulation of paper Section 4.  The weight matrix rows are permuted so
the output lands in a dense multiplexed layout with gap g_out = g_in *
stride, and the whole mask-and-collect step of Lee et al. is fused into
the (pre-processable) weight plaintexts — one multiplicative level per
convolution, strided or not.

``build_linear_packing`` handles fully-connected layers.  Both functions
choose between the plain diagonal form and Gazelle's hybrid method
(replicated squat rows + rotate-and-sum fold) on key sets alone
(``analysis.DiagonalStructure``), then pack once, with values.  A
layer's counts and price are its ``stats``, derived from its own
diagonal keys by ``analysis._count_stats`` like every other count.

Execution is the fused double-hoisted path of paper Section 3.3
(Bossuat et al. [11]), the one way a diagonal matvec runs: every
diagonal offset rotates the *input* ciphertext directly, all rotations
of one input share a single key-switch digit decomposition, products
accumulate in the extended Q_l * P basis and one deferred mod-down per
output block replaces the per-rotation mod-downs
(``FheBackend.matvec_fused``).  ``diags`` therefore stores each diagonal
exactly as that path multiplies it — un-rotated — and the BSGS plan is
kept purely as the paper's "# Rots" accounting (baby + giant counts).

The log2(n/m2) Gazelle rotate-and-sum folds ride the same primitive, in
the consecutive groups the compiler fixed (``fold_groups``, from
``CostModel.fold_partition`` at the layer's level).  ``t -> t + rot(t,
s)`` over one group's shifts expands into rotations of the group's input
by every nonzero subset sum of those shifts, run as one
``FheBackend.rotate_sum_hoisted`` — one shared digit decomposition, one
deferred mod-down; the groups run one after the other.  A group of one
is the classic sequential fold step, one group of every shift the full
expansion; the cost model picks the balanced split in between
(docs/hoisting.md, "Fold partitions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.packing.analysis import (
    DiagonalStructure,
    PackingStats,
    _count_stats,
    _key_columns,
    conv_hybrid_modulus,
    diagonal_columns,
    fold_ladder,
    linear_hybrid_rule,
)
from repro.core.packing.bsgs import BsgsPlan, plan_bsgs
from repro.core.packing.layouts import (
    BlockReplicatedLayout,
    MultiplexedLayout,
    StackedLayout,
    VectorLayout,
)


@dataclass
class PackedMatVec:
    """A compiled homomorphic linear layer.

    Attributes:
        slots: ciphertext slot count n.
        num_in: input ciphertexts.
        num_out: output ciphertexts.
        diags: (out_block, in_block) -> {offset -> diagonal vector};
            ``diags[(bo, bi)][off][j]`` multiplies input slot
            ``(j + off) % slots`` into output slot ``j``.
        plan: the BSGS split shared by all blocks ("# Rots" accounting
            only — execution never splits an offset).
        fold_shifts: rotate-and-sum shifts applied after accumulation
            (Gazelle hybrid; empty for the standard path).
        fold_groups: the compiled fold partition: consecutive runs of
            ``fold_shifts``, each folded by one hoisted key switch
            (sizes sum to ``len(fold_shifts)``; empty, the default,
            means one group per shift).
        gathers: a batched view's partial sums, one rotation-step chain
            each (empty for every compiled layer): ``diags[(g, bi)]``
            feeds partial ``g``, which is rotated by each step of
            ``gathers[g]`` in turn after the rescale and added to
            partial 0 (whose chain is empty) before the fold.
        bias_vecs: optional per-output-block bias slot vectors.
        out_layout: layout of the produced tensor.
        name: label for ledger phases.
    """

    slots: int
    num_in: int
    num_out: int
    diags: Dict[Tuple[int, int], Dict[int, np.ndarray]]
    plan: BsgsPlan
    out_layout: object
    fold_shifts: Tuple[int, ...] = ()
    fold_groups: Tuple[int, ...] = ()
    gathers: Tuple[Tuple[int, ...], ...] = ()
    bias_vecs: Optional[List[np.ndarray]] = None
    name: str = "linear"
    # Weight/bias/zero plaintexts are static; encode once per (backend,
    # level, scale) and reuse across executions ("pre-processable").
    _pt_cache: WeakKeyDictionary = field(
        default_factory=WeakKeyDictionary, repr=False, compare=False
    )
    # Batched (block-replicated) views for serve-time slot batching,
    # keyed by batch size (built lazily, shared across executions).
    _batched: Dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.fold_groups:
            self.fold_groups = (1,) * len(self.fold_shifts)
        if sum(self.fold_groups) != len(self.fold_shifts) or 0 in self.fold_groups:
            raise ValueError(
                f"{self.name}: fold groups {self.fold_groups} do not partition "
                f"{len(self.fold_shifts)} fold shifts"
            )

    @cached_property
    def stats(self) -> PackingStats:
        """Rotation/PMult counts and modeled price of this layer (paper
        Tables 2-4), from its own diagonal keys, plan, gathers and folds;
        computed once per layer."""
        keys = [(bo, bi, off) for (bo, bi), dmap in self.diags.items() for off in dmap]
        return _count_stats(
            *_key_columns(keys), self.num_in, self.num_out, self.fold_shifts,
            self.out_layout, self.slots, n1=self.plan.n1,
            gathers=tuple(len(steps) for steps in self.gathers[1:]),
        )

    def required_rotation_steps(self) -> Tuple[int, ...]:
        """Exactly the rotation steps executing this layer asks the
        backend for — the layer's contribution to an artifact's key
        manifest (docs/serving.md): the diagonal offsets (each rotates
        the input directly), a batched view's gather steps and every
        fold group's subset sums.  Identity rotations are never
        required.
        """
        steps = {off % self.slots for dmap in self.diags.values() for off in dmap}
        steps.update(step for chain in self.gathers for step in chain)
        for group in fold_group_steps(self.fold_shifts, self.fold_groups, self.slots):
            steps.update(group)
        return tuple(sorted(steps - {0}))

    def batched(self, batch: int) -> "PackedMatVec":
        """A view of this layer acting on ``batch`` block-replicated
        clients packed into one ciphertext (serve-time slot batching).

        Block-replicating every diagonal and bias vector into all B
        blocks of S = slots/B slots makes the *same* rotation/multiply
        schedule compute all clients at once: a diagonal's read at slot
        s + off inside client j's block stays on client j's data because
        single-client reads always land inside the input layout's
        occupied slots (see ``BlockReplicatedLayout``).

        Two Gazelle-hybrid adjustments keep each client self-contained,
        and neither rotates by a step this layer's own execution lacks,
        so a view needs no key the single-client program does not hold
        (a view that would is refused here, ``ValueError`` naming the
        layer and the step):

        - **Scratch gathers.**  Hybrid row replication writes some
          partial products at wrapped positions near the ring top
          (rows j = c - offset < 0 mod n), in block q >= 1.  Replicated
          naively those would land in another client's block.  A piece
          in block q keeps its offset; its replicated diagonal (which a
          rotation by -q*S leaves unchanged) accumulates into partial
          sum q of the same fused walk, so every ``rot(x, off)`` is
          computed once and feeds every partial.  After the rescale,
          partial q is rotated by q*S and added to partial 0 — the
          single-client fold's shifts >= S did exactly that sum.  The
          rotation runs as this layer's own fold steps, one subset sum
          per fold group the shift spans (``gathers``).
          Only fold layers can have out-of-block scratch (plain layers
          write final outputs, which fit the block by the layout
          check).
        - **Fold truncation.**  Fold shifts spanning a whole block or
          more are dropped from their groups (a group left empty
          vanishes); the surviving suffix (S/2 ... m2) folds each
          client's row replicas inside its own block.

        The view re-plans its "# Rots" accounting over its offsets,
        shares nothing mutable with the original (fresh plaintext
        caches), and is cached per batch size.
        """
        if batch == 1:
            return self
        cached = self._batched.get(batch)
        if cached is not None:
            return cached
        if self.num_in != 1 or self.num_out != 1:
            raise ValueError("slot batching requires a single-ciphertext layer")
        if batch < 1 or self.slots % batch:
            raise ValueError(f"batch {batch} must divide {self.slots} slots")
        n = self.slots
        block = n // batch
        if self.out_layout.total_slots > block:
            raise ValueError(
                f"{self.name}: output occupies {self.out_layout.total_slots} "
                f"slots > block size {block} at batch {batch}"
            )
        # block q -> {offset -> replicated block-q piece}, in this
        # layer's offset order (the float summation order of a
        # single-client run).
        parts: Dict[int, Dict[int, np.ndarray]] = {}
        for offset, vec in self.diags.get((0, 0), {}).items():
            pieces = vec.reshape(batch, block)
            for q in np.flatnonzero(pieces.any(axis=1)):
                parts.setdefault(int(q), {})[offset] = np.tile(pieces[q], batch)
        blocks = [0] + sorted(set(parts) - {0})
        gathers = tuple(self._gather_steps(q * block, batch) for q in blocks)
        fold_groups, start = [], 0
        for size in self.fold_groups:
            kept = sum(s < block for s in self.fold_shifts[start:start + size])
            start += size
            if kept:
                fold_groups.append(kept)
        view = PackedMatVec(
            slots=n,
            num_in=1,
            num_out=1,
            diags={(g, 0): parts[q] for g, q in enumerate(blocks) if q in parts},
            plan=plan_bsgs(sorted({off for dmap in parts.values() for off in dmap}), n),
            out_layout=BlockReplicatedLayout(self.out_layout, batch, n),
            fold_shifts=tuple(s for s in self.fold_shifts if s < block),
            fold_groups=tuple(fold_groups),
            gathers=gathers if len(blocks) > 1 else (),
            bias_vecs=None
            if self.bias_vecs is None
            else [np.tile(vec.reshape(batch, block).sum(axis=0), batch)
                  for vec in self.bias_vecs],
            name=f"{self.name}@x{batch}",
        )
        extra = set(view.required_rotation_steps()) - set(self.required_rotation_steps())
        if extra:
            raise ValueError(
                f"{self.name}: the view at batch {batch} rotates by step "
                f"{min(extra)}, which the layer itself never does, so the "
                "key manifest would not cover it"
            )
        self._batched[batch] = view
        return view

    def _gather_steps(self, shift: int, batch: int) -> Tuple[int, ...]:
        """A block shift as this layer's fold steps: per fold group, the
        subset sum of its shifts among ``shift``'s binary digits (the
        ladder is n/2, n/4, ..., m2), zero sums skipped."""
        steps, start = [], 0
        for size in self.fold_groups:
            step = sum(s for s in self.fold_shifts[start:start + size] if shift & s)
            start += size
            if step:
                steps.append(step)
        if sum(steps) != shift:
            raise ValueError(
                f"{self.name}: scratch escapes its block at batch {batch} and "
                f"the fold ladder {self.fold_shifts} cannot gather it"
            )
        return tuple(steps)

    def terms(self) -> Dict:
        """``diags`` flattened to ``(out_block, in_block, offset) ->
        vector`` — the shape :meth:`FheBackend.matvec_fused` consumes.
        The vectors are the stored arrays themselves, never copies."""
        return {
            (bo, bi, offset): vec
            for (bo, bi), dmap in self.diags.items()
            for offset, vec in dmap.items()
        }

    # -- execution -------------------------------------------------------------
    def execute(self, backend, in_cts: List, pt_scale: Fraction):
        """Run the matvec homomorphically (fused, deferred mod-down).

        Args:
            backend: any :class:`FheBackend`.
            in_cts: input ciphertexts (all at the same level and scale).
            pt_scale: scale for the weight plaintexts; the compiler sets
                q_level * Delta / input_scale so the rescale after this
                layer lands exactly on Delta (errorless scale policy).

        Returns:
            list of output ciphertexts at level-1, scale input*pt/q.
        """
        level = backend.level_of(in_cts[0])
        per_backend = self._pt_cache.get(backend)
        if per_backend is None:
            per_backend = {}
            self._pt_cache[backend] = per_backend
        # All weight/zero/bias encodes are keyed by the backend's full
        # encode fingerprint (level, scale, ks config) — the serve-many
        # invariant that keeps a second request entering at a different
        # level from hitting a stale encode.
        cache_fp = backend.plaintext_cache_key(level, pt_scale)
        stats = self.stats
        totals = backend.matvec_fused(
            in_cts,
            self.terms(),
            len(self.gathers) or self.num_out,
            pt_scale,
            pt_cache=per_backend.setdefault(("fused",) + cache_fp, {}),
            # The BSGS plan's rotations; gathers and folds charge
            # themselves.
            charged_rotations=stats.rotations - sum(stats.gathers)
            - len(self.fold_shifts) * self.num_out,
        )
        rescaled = []
        for total in totals:
            if total is None:
                zero_pt = per_backend.get(("zero",) + cache_fp)
                if zero_pt is None:
                    zero_pt = backend.encode(np.zeros(self.slots), level, pt_scale)
                    per_backend[("zero",) + cache_fp] = zero_pt
                total = backend.mul_plain(in_cts[0], zero_pt)
            rescaled.append(backend.rescale(total))
        if self.gathers:
            total = rescaled[0]
            for part, steps in zip(rescaled[1:], self.gathers[1:]):
                for step in steps:
                    part = backend.rotate(part, step)
                total = backend.add(total, part)
            rescaled = [total]
        outputs = []
        for bo, total in enumerate(rescaled):
            total = apply_fold_groups(
                backend, total, self.fold_shifts, self.fold_groups
            )
            if self.bias_vecs is not None:
                out_level = backend.level_of(total)
                out_scale = backend.scale_of(total)
                bias_key = ("bias", bo) + backend.plaintext_cache_key(
                    out_level, out_scale
                )
                bias_pt = per_backend.get(bias_key)
                if bias_pt is None:
                    bias_pt = backend.encode(self.bias_vecs[bo], out_level, out_scale)
                    per_backend[bias_key] = bias_pt
                total = backend.add_plain(total, bias_pt)
            outputs.append(total)
        return outputs

    # -- artifact serialization (docs/serving.md) ----------------------------
    def to_payload(self, store) -> Dict:
        """JSON-safe structure describing this layer; numpy arrays go
        through ``store(array) -> ref`` (the artifact's array registry)
        so the payload itself stays pure JSON."""
        diag_groups = []
        for (bo, bi), dmap in sorted(self.diags.items()):
            # Keep the builder's offset order: cleartext execution
            # accumulates in dict order, and bit-exact round-trips
            # require the same float summation order.
            offsets = list(dmap)
            stacked = np.stack([dmap[off] for off in offsets])
            diag_groups.append(
                {"bo": bo, "bi": bi, "offsets": offsets, "vecs": store(stacked)}
            )
        return {
            "slots": self.slots,
            "num_in": self.num_in,
            "num_out": self.num_out,
            "name": self.name,
            "plan": {
                "n1": self.plan.n1,
                "babies": list(self.plan.babies),
                "giants": list(self.plan.giants),
            },
            "fold_shifts": list(self.fold_shifts),
            "fold_groups": list(self.fold_groups),
            "out_layout": layout_payload(self.out_layout),
            "bias": None
            if self.bias_vecs is None
            else store(np.stack(self.bias_vecs)),
            "diags": diag_groups,
        }

    @classmethod
    def from_payload(cls, payload: Dict, fetch) -> "PackedMatVec":
        """Inverse of :meth:`to_payload`; ``fetch(ref)`` returns the
        stored array bit-exactly."""
        diags: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
        for group in payload["diags"]:
            stacked = fetch(group["vecs"])
            diags[(group["bo"], group["bi"])] = {
                int(off): stacked[i] for i, off in enumerate(group["offsets"])
            }
        bias_vecs = None
        if payload["bias"] is not None:
            bias_vecs = list(fetch(payload["bias"]))
        plan = BsgsPlan(
            n1=payload["plan"]["n1"],
            babies=tuple(payload["plan"]["babies"]),
            giants=tuple(payload["plan"]["giants"]),
        )
        return cls(
            slots=payload["slots"],
            num_in=payload["num_in"],
            num_out=payload["num_out"],
            diags=diags,
            plan=plan,
            out_layout=layout_from_payload(payload["out_layout"]),
            fold_shifts=tuple(payload["fold_shifts"]),
            fold_groups=tuple(payload["fold_groups"]),
            bias_vecs=bias_vecs,
            name=payload["name"],
        )

    def execute_cleartext(self, in_vecs: List[np.ndarray]) -> List[np.ndarray]:
        """Reference execution with plain numpy (validates packing)."""
        partials = []
        for bo in range(len(self.gathers) or self.num_out):
            acc = np.zeros(self.slots)
            for bi in range(self.num_in):
                dmap = self.diags.get((bo, bi))
                if not dmap:
                    continue
                for offset, vec in dmap.items():
                    acc += vec * np.roll(in_vecs[bi], -offset)
            partials.append(acc)
        if self.gathers:
            acc = partials[0]
            for part, steps in zip(partials[1:], self.gathers[1:]):
                acc = acc + np.roll(part, -sum(steps))
            partials = [acc]
        outputs = []
        for bo, acc in enumerate(partials):
            for shift in self.fold_shifts:
                acc = acc + np.roll(acc, -shift)
            if self.bias_vecs is not None:
                acc = acc + self.bias_vecs[bo]
            outputs.append(acc)
        return outputs


def fold_group_steps(
    shifts: Tuple[int, ...], groups: Tuple[int, ...], slots: int
) -> List[List[int]]:
    """Each fold group's rotation steps: ``t -> t + rot(t, s)`` over the
    group's consecutive ``shifts`` equals ``sum_S rot(t, sum(S))`` over
    every subset S of them, so the group is one hoisted key switch over
    the sorted nonzero subset sums (mod ``slots``), distinct for the
    power-of-two shift ladders the builders emit."""
    steps, start = [], 0
    for size in groups:
        sums = [0]
        for shift in shifts[start:start + size]:
            sums = sums + [(s + shift) % slots for s in sums]
        start += size
        steps.append(sorted(set(sums) - {0}))
    return steps


def apply_fold_groups(backend, ct, shifts: Tuple[int, ...], groups: Tuple[int, ...]):
    """Run the fold ladder ``t -> t + rot(t, s)`` over ``shifts`` as the
    consecutive hoisted ``groups`` (:func:`fold_group_steps`).  Each
    group charges its fold count as rotations, so "# Rots" is the
    ladder depth whatever the partition."""
    steps = fold_group_steps(shifts, groups, backend.slot_count)
    for group_steps, size in zip(steps, groups):
        ct = backend.rotate_sum_hoisted(ct, group_steps, charged_rotations=size)
    return ct


def layout_payload(layout) -> Dict:
    """JSON description of a packing layout (artifact serialization)."""
    if isinstance(layout, MultiplexedLayout):
        return {
            "kind": "multiplexed",
            "channels": layout.channels,
            "height": layout.height,
            "width": layout.width,
            "gap": layout.gap,
            "slots": layout.slots,
        }
    if isinstance(layout, VectorLayout):
        return {"kind": "vector", "length": layout.length, "slots": layout.slots}
    if isinstance(layout, StackedLayout):
        return {
            "kind": "stacked",
            "parts": [layout_payload(part) for part in layout.parts],
            "slots": layout.slots,
        }
    raise TypeError(f"cannot serialize layout {type(layout).__name__}")


def layout_from_payload(payload: Dict):
    kind = payload["kind"]
    if kind == "multiplexed":
        return MultiplexedLayout(
            channels=payload["channels"],
            height=payload["height"],
            width=payload["width"],
            gap=payload["gap"],
            slots=payload["slots"],
        )
    if kind == "vector":
        return VectorLayout(length=payload["length"], slots=payload["slots"])
    if kind == "stacked":
        return StackedLayout(
            parts=tuple(layout_from_payload(p) for p in payload["parts"]),
            slots=payload["slots"],
        )
    raise ValueError(f"unknown layout kind {kind!r}")


def merge_packed_matvecs(packeds: List[PackedMatVec], name: str = "fused") -> PackedMatVec:
    """Concatenate sibling layers reading the same input into one layer.

    The graph optimizer's concat-linear fusion: all siblings' diagonal
    tables join into one layer (re-planned over the union of their
    offsets for the "# Rots" accounting), so the fused execution shares
    a single digit decomposition per input block and de-duplicates (input block, offset) inner products the
    siblings had in common — (k-1) * num_in decompositions and every
    shared rotation disappear outright.  Output block b of sibling k
    lands at global block ``offset(k) + b`` (a :class:`StackedLayout`);
    a cheap ciphertext-list slice recovers each branch afterwards.

    Bit-exactness: a diagonal contributes ``vec[j] * in[j + offset]`` to
    its output block whatever the plan, so every per-block sum is made
    of the identical float products in the identical
    (insertion-preserved) order.

    Requires identical slot counts, input block counts, fold shifts and
    fold partitions (``fold_shifts`` run per output block, so equal shift
    ladders fold each stacked block exactly as the separate layers did).
    """
    if len(packeds) < 2:
        raise ValueError("need at least two layers to merge")
    first = packeds[0]
    for p in packeds[1:]:
        if p.slots != first.slots:
            raise ValueError("merged layers must share the slot count")
        if p.num_in != first.num_in:
            raise ValueError("merged layers must read the same input blocks")
        if p.fold_shifts != first.fold_shifts:
            raise ValueError("merged layers must share fold shifts")
        if p.fold_groups != first.fold_groups:
            raise ValueError("merged layers must share the fold partition")
    union_offsets = sorted(
        {off for p in packeds for dmap in p.diags.values() for off in dmap}
    )
    diags: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
    bias_vecs: Optional[List[np.ndarray]] = None
    if any(p.bias_vecs is not None for p in packeds):
        bias_vecs = []
    bo_base = 0
    for p in packeds:
        for (bo, bi), dmap in p.diags.items():
            diags[(bo_base + bo, bi)] = dict(dmap)
        if bias_vecs is not None:
            if p.bias_vecs is not None:
                bias_vecs.extend(p.bias_vecs)
            else:
                bias_vecs.extend(np.zeros(first.slots) for _ in range(p.num_out))
        bo_base += p.num_out
    return PackedMatVec(
        slots=first.slots,
        num_in=first.num_in,
        num_out=bo_base,
        diags=diags,
        plan=plan_bsgs(union_offsets, first.slots),
        out_layout=StackedLayout(
            parts=tuple(p.out_layout for p in packeds), slots=first.slots
        ),
        fold_shifts=first.fold_shifts,
        fold_groups=first.fold_groups,
        bias_vecs=bias_vecs,
        name=name,
    )


# ---------------------------------------------------------------------------
# Construction from raw (out_slot, in_slot, value) entry streams
# ---------------------------------------------------------------------------
class _DiagAccumulator:
    """Accumulates matrix entries into per-block diagonal vectors."""

    def __init__(self, slots: int):
        self.slots = slots
        self.vecs: Dict[Tuple[int, int, int], np.ndarray] = {}

    def add_entries(self, out_slot: np.ndarray, in_slot: np.ndarray, value: np.ndarray):
        n = self.slots
        out_slot = out_slot.ravel()
        in_slot = in_slot.ravel()
        value = value.ravel()
        if out_slot.size == 0:
            return
        bo = out_slot // n
        bi = in_slot // n
        out_local = out_slot % n
        diag = (in_slot - out_slot) % n
        # Lexsort entries by (bo, bi, diag) so each diagonal is one
        # contiguous run, then scatter-add every run in a single grouped
        # np.add.at into a (runs, n) buffer (no per-key Python masking).
        order = np.lexsort((diag, bi, bo))
        bo = bo[order]
        bi = bi[order]
        diag = diag[order]
        out_local = out_local[order]
        value = value[order]
        new_run = np.empty(order.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (
            (bo[1:] != bo[:-1]) | (bi[1:] != bi[:-1]) | (diag[1:] != diag[:-1])
        )
        run_id = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        buf = np.zeros((starts.size, n))
        np.add.at(buf, (run_id, out_local), value)
        for row, s in enumerate(starts):
            key = (int(bo[s]), int(bi[s]), int(diag[s]))
            vec = self.vecs.get(key)
            if vec is None:
                # Own the row: the vector outlives this call as the
                # layer's stored diagonal, and a view would pin the
                # whole (runs, n) buffer with it.
                self.vecs[key] = buf[row].copy()
            else:
                vec += buf[row]

    def finalize(self, num_in: int, num_out: int, out_layout, bias_vecs,
                 fold_shifts=(), name="linear") -> PackedMatVec:
        offsets = sorted({diag for (_, _, diag) in self.vecs})
        diags: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
        for (bo, bi, diag), vec in self.vecs.items():
            diags.setdefault((bo, bi), {})[diag] = vec
        return PackedMatVec(
            slots=self.slots,
            num_in=num_in,
            num_out=num_out,
            diags=diags,
            plan=plan_bsgs(offsets, self.slots),
            out_layout=out_layout,
            fold_shifts=tuple(fold_shifts),
            bias_vecs=bias_vecs,
            name=name,
        )


def _conv_geometry(in_layout: MultiplexedLayout, kernel, stride, padding, dilation):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    out_h = (in_layout.height + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    out_w = (in_layout.width + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    return out_h, out_w


def build_conv_packing(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    in_layout: MultiplexedLayout,
    stride=(1, 1),
    padding=(0, 0),
    dilation=(1, 1),
    groups: int = 1,
    name: str = "conv",
    force_hybrid: Optional[bool] = None,
) -> PackedMatVec:
    """Compile a convolution into a single-shot multiplexed matvec.

    The output layout's gap is g_in * stride (paper Figure 5b): strided
    convolutions densify into the channel dimension instead of leaving
    slot gaps, and the row permutation that achieves this is folded into
    the weight matrix — consuming one level total.  For a small
    single-ciphertext output the Gazelle hybrid (replicated rows +
    rotate-and-sum fold; paper Section 8.2) may apply: ``force_hybrid``
    True/False picks the form, None the one whose key set costs fewer
    rotations (``DiagonalStructure``; one pass over the taps without
    values finds the plain offsets).  Either way the layer is packed once.
    """
    c_out, c_in_g, kh, kw = weight.shape
    sh, sw = stride
    if sh != sw:
        raise ValueError("anisotropic strides are not supported")
    out_h, out_w = _conv_geometry(in_layout, (kh, kw), stride, padding, dilation)
    out_layout = MultiplexedLayout(
        channels=c_out,
        height=out_h,
        width=out_w,
        gap=in_layout.gap * sh,
        slots=in_layout.slots,
    )
    n = in_layout.slots
    co_per_group = c_out // groups
    ci_per_group = in_layout.channels // groups if groups > 1 else c_in_g
    co_idx = np.arange(c_out)
    group_of_co = co_idx // co_per_group

    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    out_slot_all = out_layout.slot(
        co_idx[:, None, None], oy[None], ox[None]
    )  # (c_out, out_h, out_w)

    def taps():
        """(out slots, in slots, weight index) per tap and input channel."""
        for dy in range(kh):
            for dx in range(kw):
                iy = oy * sh + dy * dilation[0] - padding[0]
                ix = ox * sw + dx * dilation[1] - padding[1]
                valid = (
                    (iy >= 0)
                    & (iy < in_layout.height)
                    & (ix >= 0)
                    & (ix < in_layout.width)
                )
                if not valid.any():
                    continue
                iy_v = iy[valid]
                ix_v = ix[valid]
                out_slot_v = out_slot_all[:, valid]  # (c_out, n_valid)
                for ci_rel in range(c_in_g):
                    ci_global = group_of_co * ci_per_group + ci_rel  # (c_out,)
                    in_slot_v = in_layout.slot(
                        ci_global[:, None], iy_v[None, :], ix_v[None, :]
                    )
                    yield out_slot_v, in_slot_v, (slice(None), ci_rel, dy, dx)

    # Gazelle hybrid (paper Section 8.2): when the output is much
    # smaller than the slot count, replicate the matrix rows modulo the
    # padded output length; diagonal offsets then collapse into [0, m2)
    # and a log2(n/m2) rotate-and-sum fold finishes the product.
    m2 = conv_hybrid_modulus(in_layout, out_layout)
    if force_hybrid and m2 is None:
        raise ValueError("hybrid conv packing requires a small single-ct output")
    if force_hybrid is None and m2 is not None:
        seen = np.zeros(n, dtype=bool)  # one ciphertext: keys are offsets
        for out_slot_v, in_slot_v, _ in taps():
            seen[(in_slot_v - out_slot_v) % n] = True
        off = np.flatnonzero(seen)
        zeros = np.zeros_like(off)
        force_hybrid = bool(
            DiagonalStructure(zeros, zeros, off, 1, 1, out_layout, n, m2).stats.num_folds
        )
    hybrid_m2 = m2 if force_hybrid else None

    acc = _DiagAccumulator(n)
    for out_slot_v, in_slot_v, index in taps():
        values = np.broadcast_to(weight[index][:, None], in_slot_v.shape)
        if hybrid_m2 is not None:
            offs = (in_slot_v - out_slot_v) % hybrid_m2
            j = (in_slot_v - offs) % n
            acc.add_entries(j, (j + offs) % n, values)
        else:
            acc.add_entries(out_slot_v, in_slot_v, values)

    bias_vecs = None
    if bias is not None:
        bias_tensor = np.broadcast_to(
            bias[:, None, None], (c_out, out_h, out_w)
        )
        bias_vecs = out_layout.pack(np.array(bias_tensor))
    return acc.finalize(
        num_in=in_layout.num_ciphertexts,
        num_out=out_layout.num_ciphertexts,
        out_layout=out_layout,
        bias_vecs=bias_vecs,
        fold_shifts=fold_ladder(n, hybrid_m2) if hybrid_m2 is not None else (),
        name=name,
    )


def build_linear_packing(
    matrix: np.ndarray,
    bias: Optional[np.ndarray],
    in_layout,
    name: str = "fc",
    force_mode: Optional[str] = None,
) -> PackedMatVec:
    """Compile a dense (m x L) matrix over a packed input layout.

    Chooses between the plain diagonal form and the Gazelle hybrid
    (paper Section 8.2: "for small networks ... we rely on Gazelle's
    hybrid method"): replicate the squat matrix's rows modulo m2 (m
    padded to a power of two), BSGS over the m2 diagonal offsets, then
    rotate-and-sum fold log2(n/m2) times.  ``linear_hybrid_rule`` says
    when; where it races the two forms, the race runs on the nonzero
    entries' key sets (``DiagonalStructure``) and the layer is packed
    once.
    """
    m, logical_len = matrix.shape
    if logical_len != in_layout.logical_length:
        raise ValueError(
            f"matrix width {logical_len} does not match layout length "
            f"{in_layout.logical_length}"
        )
    n = in_layout.slots
    num_in = in_layout.num_ciphertexts
    out_layout = VectorLayout(m, n)
    rows, cols = np.nonzero(matrix)
    values = matrix[rows, cols]
    in_slots = in_layout.slot_of_logical(cols)

    m2, hybrid = linear_hybrid_rule(m, in_layout, force_mode)
    if hybrid is None:
        hybrid = bool(DiagonalStructure(
            *diagonal_columns(rows, in_slots, num_in, n), num_in,
            out_layout.num_ciphertexts, out_layout, n, m2,
        ).stats.num_folds)

    acc = _DiagAccumulator(n)
    if hybrid:
        offsets = (in_slots - rows) % m2
        j = (in_slots - offsets) % n
        # Entries land at row j with diagonal offset k in [0, m2); the
        # input slot (j + k) mod n stays inside the single ciphertext.
        acc.add_entries(j, (j + offsets) % n, values)
    else:
        acc.add_entries(rows, in_slots, values)

    return acc.finalize(
        num_in=num_in,
        num_out=out_layout.num_ciphertexts,
        out_layout=out_layout,
        bias_vecs=out_layout.pack(bias) if bias is not None else None,
        fold_shifts=fold_ladder(n, m2) if hybrid else (),
        name=name,
    )
