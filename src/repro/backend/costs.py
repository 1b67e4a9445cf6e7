"""Analytical latency model for CKKS operations (paper Figure 1).

The paper estimates "the latencies of both the linear layers and
bootstrap operations with an analytical model" (Section 5.2) and shows
in Figure 1 that PMult and HRot latencies grow with the ciphertext
level l (more RNS limbs = more work) while bootstrap latency grows
superlinearly with L_eff because the key-switching decomposition number
(dnum) rises to maintain 128-bit security.

This module reproduces those shapes.  Constants are calibrated so that
paper-scale parameters (N = 2^16, L_eff = 10) land in the regime Table 2
reports (PMult ~ 10 ms, HRot ~ 100 ms, bootstrap ~ 10 s, ResNet-20
end-to-end in the hundreds of seconds).  Absolute values are a model;
every benchmark reports shapes and ratios, not wall-clock claims.

The constants are class attributes of :class:`CostModel`, not settings:
``CostModel(params)`` is the only constructor, and a test that prices
with other constants patches the class attributes for its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Tuple

from repro.ckks.params import CkksParameters


@dataclass(frozen=True)
class CostModel:
    """Level-dependent operation latencies in (modeled) seconds.

    ``params`` (the CKKS parameter set being priced) is the only field.
    The per-unit constants below are class attributes shared by every
    instance; ``alpha`` is the limbs per key-switch digit, dnum =
    ceil(limbs / alpha).  Rising dnum with level is what makes bootstrap
    superlinear (paper Section 2.4, citing Han-Ki [33]).
    """

    params: CkksParameters
    alpha: ClassVar[int] = 4
    # Per-unit constants (seconds at the N = 2^16 normalization point).
    #
    # c_decompose / c_inner were calibrated against medians measured on
    # the exact backend (N=2048, L=8) against a per-rotation BSGS
    # pipeline that no longer exists (these constants are its record):
    # one keyswitch = 28.4 ms splits into a dominant digit-decomposition
    # (inverse NTT + batched forward NTTs) and a cheap lazy int64 inner
    # product (~5% of the keyswitch from the hoisted-x8 median), and
    # the fused BSGS matvec beats the per-rotation double-hoisted
    # pipeline 2.9x (ks_alpha=1) / 3.9x (ks_alpha=2).  The constants
    # are fit under the constraint that the *total* keyswitch price is
    # unchanged — placement economics (layer cost vs bootstrap cost)
    # stay put, re-validated by the pinned Table 5 boot counts in
    # tests/test_placement.py — which prices fused 1.3-2.4x cheaper at
    # every level instead of the previous break-even-at-shallow-levels
    # artifact of an oversized c_inner.
    #
    # The inner-product constant is split per pipeline: the *hoisted*
    # pipeline reduces every digit product immediately (one `%` pass
    # per rotation over the full (2, ks_limbs, N) accumulator), while
    # the *fused* pipeline sums products lazily in int64 and amortizes
    # the reduction across `chunk` offsets — measured then
    # as a fused advantage that *grows* with
    # grouped digits (alpha=2 fused/bsgs 2.3-2.6x vs alpha=1's 1.4-1.6x
    # on the bootstrap transforms), which a shared constant cannot
    # express.  c_inner_fused is fit so the modeled alpha=2 fused gain
    # tracks those medians; the hoisted keyswitch total (c_decompose +
    # c_inner + c_moddown path) is untouched, so bootstrap and
    # per-rotation prices — and with them the Table 5 placement
    # economics — stay exactly where PR 4 calibrated them.
    c_add: ClassVar[float] = 2.0e-4
    c_pmult: ClassVar[float] = 1.5e-3
    c_decompose: ClassVar[float] = 3.8e-3
    c_inner: ClassVar[float] = 1.5e-4
    c_inner_fused: ClassVar[float] = 0.9e-4
    c_moddown: ClassVar[float] = 1.5e-3
    c_boot_base: ClassVar[float] = 0.5
    c_boot_quad: ClassVar[float] = 2.5e-3
    c_encode: ClassVar[float] = 2.0e-3
    # _fold_plan per (level, fold count), filled on first use.
    _fold_plans: Dict[Tuple[int, int], Tuple[Tuple[int, ...], float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- helpers ---------------------------------------------------------
    @property
    def _unit(self) -> float:
        """Work unit ~ N log N, normalized to 1.0 at N = 2^16."""
        n = self.params.ring_degree
        return (n / 65536.0) * (math.log2(n) / 16.0)

    def _limbs(self, level: int) -> int:
        return level + 1

    @property
    def _effective_alpha(self) -> int:
        """Limbs per digit used for pricing.

        When the parameter set itself groups digits (``ks_alpha > 1``,
        realized exactly by the toy backend) the model prices that
        grouping; otherwise it falls back to the model's own ``alpha``
        (the paper-scale assumption for production parameter sets).
        """
        ks_alpha = getattr(self.params, "ks_alpha", 1)
        return ks_alpha if ks_alpha > 1 else self.alpha

    def dnum(self, level: int) -> int:
        """Key-switch decomposition number at the given level."""
        return max(1, math.ceil(self._limbs(level) / self._effective_alpha))

    # -- primitive ops (paper Figure 1) -----------------------------------
    def hadd(self, level: int) -> float:
        return self.c_add * self._limbs(level) * self._unit

    def pmult(self, level: int) -> float:
        """Plaintext-ciphertext multiply: linear in limb count (Fig. 1a)."""
        return self.c_pmult * self._limbs(level) * self._unit

    def rescale(self, level: int) -> float:
        return self.c_moddown * self._limbs(level) * self._unit

    def encode(self, level: int) -> float:
        """Encoding a cleartext (iFFT + NTT); charged by Fhelipe-style
        backends that encode diagonals on the fly (paper Table 4)."""
        return self.c_encode * self._limbs(level) * self._unit

    def pmult_fused(self, level: int) -> float:
        """Plaintext multiply against a raw Q_l * P accumulator: wider
        than :meth:`pmult` by the special limbs (fused matvec path)."""
        limbs = self._limbs(level) + self.params.num_special_primes
        return self.c_pmult * limbs * self._unit

    # -- key switching, decomposed for hoisting ---------------------------
    def ks_decompose(self, level: int) -> float:
        """Digit decomposition + NTTs; shareable across rotations of the
        same ciphertext (single hoisting, Section 3.3)."""
        limbs = self._limbs(level)
        return self.c_decompose * limbs * self.dnum(level) * self._unit

    def ks_inner(self, level: int) -> float:
        """Per-rotation inner products against the switching key
        (hoisted pipeline: every product reduced immediately)."""
        limbs = self._limbs(level)
        special = self.params.num_special_primes
        return self.c_inner * self.dnum(level) * (limbs + special + 1) * self._unit

    def ks_inner_fused(self, level: int) -> float:
        """Per-offset inner product on the *fused* pipeline.

        The fused path multiplies the shared digit tensor against the
        switching key and adds the product into a lazy int64
        accumulator — the modular reduction is amortized across many
        offsets instead of paid per rotation, so the per-offset price
        carries its own (smaller) constant.  Same dnum/limb shape as
        :meth:`ks_inner`.
        """
        limbs = self._limbs(level)
        special = self.params.num_special_primes
        return (
            self.c_inner_fused * self.dnum(level) * (limbs + special + 1) * self._unit
        )

    def ks_moddown(self, level: int) -> float:
        """Division by the special modulus; double hoisting defers this
        to once per giant-step group (Bossuat et al. [11])."""
        return self.c_moddown * self._limbs(level) * self._unit

    def keyswitch(self, level: int) -> float:
        return self.ks_decompose(level) + self.ks_inner(level) + self.ks_moddown(level)

    def hrot(self, level: int) -> float:
        """Un-hoisted ciphertext rotation (Fig. 1b)."""
        return self.keyswitch(level) + 0.5 * self.c_add * self._limbs(level) * self._unit

    def hmult(self, level: int) -> float:
        """Ciphertext-ciphertext multiply incl. relinearization."""
        return 4.0 * self.pmult(level) + self.keyswitch(level)

    def bootstrap(self, effective_level: int | None = None) -> float:
        """Bootstrap cost, superlinear in L_eff (Fig. 1c).

        A bootstrap runs at the top of the modulus chain: its linear
        transforms and EvalMod execute with L_eff + L_boot + 1 limbs and
        a correspondingly larger dnum.
        """
        l_eff = (
            self.params.effective_level if effective_level is None else effective_level
        )
        top_limbs = l_eff + self.params.boot_levels + 1
        top_dnum = max(1, math.ceil(top_limbs / self._effective_alpha))
        return (
            self.c_boot_base + self.c_boot_quad * top_limbs * top_limbs * top_dnum
        ) * self._unit

    # -- aggregated helpers for the packing planner -----------------------
    def _fold_plan(self, level: int, num_folds: int) -> Tuple[Tuple[int, ...], float]:
        """``(partition, price)`` of a ``num_folds``-deep fold ladder.

        A group of ``g`` folds is one hoisted key switch: the composition
        ``t -> t + rot(t, s)`` over its shifts expands into the
        ``2^g - 1`` nonzero subset-sum rotations of the group's input,
        sharing one digit decomposition and one deferred mod-down.
        """
        key = (level, num_folds)
        plan = self._fold_plans.get(key)
        if plan is None:
            per_group = self.ks_decompose(level) + self.ks_moddown(level)
            per_sum = self.ks_inner_fused(level) + self.hadd(level)
            plan = ((), 0.0)
            for groups in range(1, num_folds + 1):
                # The group price is convex in its size, so the cheapest
                # split into `groups` groups is the balanced one.
                small, extra = divmod(num_folds, groups)
                sizes = (small + 1,) * extra + (small,) * (groups - extra)
                price = sum(per_group + ((1 << g) - 1) * per_sum for g in sizes)
                if not plan[0] or price < plan[1]:
                    plan = (sizes, price)
            self._fold_plans[key] = plan
        return plan

    def fold_partition(self, level: int, num_folds: int) -> Tuple[int, ...]:
        """Group sizes, in ladder order, of the cheapest way to run a
        ``num_folds``-deep rotate-and-sum fold at ``level``: consecutive
        groups, each one hoisted key switch over its subset sums
        (docs/hoisting.md, "Fold partitions").  ``(1,) * num_folds`` is
        the classic sequential fold, ``(num_folds,)`` the full
        expansion.  The compiler stores it per linear layer
        (``PackedMatVec.fold_groups``); the attention trees read it
        too.  Memoized per ``(level, num_folds)``."""
        return self._fold_plan(level, num_folds)[0]

    def fold_cost(self, level: int, num_folds: int, num_out: int = 1) -> float:
        """Price of the post-matvec Gazelle rotate-and-sum folds, in the
        partition :meth:`fold_partition` picks.

        Priced at the matvec's *input* level (like every other term of
        :meth:`matvec_cost`), where the compiler fixes the partition,
        even though the fold itself runs one level lower.
        """
        if num_folds <= 0:
            return 0.0
        return num_out * self._fold_plan(level, num_folds)[1]

    def matvec_fused_rotations(
        self, level: int, num_offsets: int, num_in: int = 1, num_out: int = 1
    ) -> float:
        """Rotation cost of the fully-fused matvec path.

        One digit decomposition per input ciphertext (every diagonal
        offset rotates the same input, so all share its c1), one inner
        product per
        distinct nonzero diagonal offset — priced at the fused
        pipeline's lazy-accumulation rate (:meth:`ks_inner_fused`) —
        and one deferred mod-down per output ciphertext.  dnum-aware
        through :meth:`ks_decompose` / :meth:`ks_inner_fused`.
        """
        return (
            num_in * self.ks_decompose(level)
            + num_offsets * self.ks_inner_fused(level)
            + num_out * self.ks_moddown(level)
        )

    def sibling_fusion_gain(
        self,
        level: int,
        num_in: int,
        total_offsets: int,
        merged_offsets: int,
        num_siblings: int,
    ) -> float:
        """Modeled win of concat-fusing sibling matvecs (docs/graphopt.md).

        Separately, each of the ``num_siblings`` layers pays its own
        digit decomposition per input block and its own inner products
        (``total_offsets`` across all siblings); merged, one
        decomposition per input block covers everyone and shared
        (input block, offset) pairs collapse to ``merged_offsets``
        inner products.  PMults, adds, mod-downs, and folds are
        unchanged by the merge; the merged layer does save all but one
        rescale, which this conservatively ignores.
        """
        saved_decompose = (num_siblings - 1) * num_in * self.ks_decompose(level)
        saved_inner = (total_offsets - merged_offsets) * self.ks_inner_fused(level)
        return saved_decompose + saved_inner

    def matvec_cost(
        self,
        level: int,
        num_diagonals: int,
        num_baby: int,
        num_giant: int,
        hoisting: str = "fused",
        num_in: int = 1,
        num_out: int = 1,
        num_folds: int = 0,
        num_offsets: int | None = None,
    ) -> float:
        """Modeled cost of one BSGS matrix-vector product.

        Args:
            level: ciphertext level the product executes at.
            num_diagonals: plaintext diagonals multiplied (PMult count).
            num_baby: distinct baby-step rotations.
            num_giant: distinct giant-step rotations (non-fused modes
                include the Gazelle fold rotations here, as
                ``PackingStats.cost`` passes them — ``analysis._count_stats``
                counts folds into ``_giants``).
            hoisting: 'fused' (the default — the one pipeline that
                executes) or the analytic prices 'none' | 'single' |
                'double' of the Section 3.3 ablation, which execute
                nothing (docs/hoisting.md).  'fused' is the
                fully-hoisted deferred-mod-down path (one decomposition,
                one inner product per diagonal offset, one mod-down;
                plaintext multiplies run over the extended Q_l * P
                basis).
            num_in: input ciphertext blocks ('fused' only: one
                decomposition each).
            num_out: output ciphertext blocks ('fused' only: one
                deferred mod-down each).
            num_folds: Gazelle rotate-and-sum folds per output block
                ('fused' only — other modes already count the folds in
                ``num_giant``); priced by :meth:`fold_cost`.
            num_offsets: distinct nonzero (input block, diagonal offset)
                pairs — the key-switch inner products the fused path
                really performs.  Required by 'fused', unused by the
                other modes.  Zero means no rotation at all (e.g. a
                depthwise 1x1 conv): the fused execution then skips
                decompose and mod-down entirely and so does the price.
        """
        if hoisting == "fused":
            if num_offsets is None:
                raise TypeError("the 'fused' price needs num_offsets")
            pm = num_diagonals * self.pmult_fused(level)
            adds = max(0, num_diagonals - 1) * self.hadd(level)
            if num_offsets == 0:
                rots = 0.0
            else:
                rots = self.matvec_fused_rotations(
                    level, num_offsets, num_in=num_in, num_out=num_out
                )
            folds = self.fold_cost(level, num_folds, num_out=num_out)
            return pm + adds + rots + folds + self.rescale(level)
        pm = num_diagonals * self.pmult(level)
        adds = max(0, num_diagonals - 1) * self.hadd(level)
        if hoisting == "none":
            rots = (num_baby + num_giant) * self.hrot(level)
        elif hoisting == "single":
            rots = (
                self.ks_decompose(level)
                + num_baby * (self.ks_inner(level) + self.ks_moddown(level))
                + num_giant * self.hrot(level)
            )
        elif hoisting == "double":
            rots = (
                self.ks_decompose(level)
                + num_baby * self.ks_inner(level)
                + max(1, num_giant) * self.ks_moddown(level)
                + num_giant * (self.ks_decompose(level) + self.ks_inner(level))
            )
        else:
            raise ValueError(f"unknown hoisting mode {hoisting!r}")
        return pm + adds + rots + self.rescale(level)
