"""The backend contract compiled Orion programs execute against.

Handles (ciphertexts/plaintexts) are backend-specific opaque objects;
the program executor only moves them between the operations below.
Every operation charges the backend's :class:`OpLedger` using the shared
:class:`CostModel`, so rotation/bootstrap counts and modeled latency are
comparable across backends.  Every key-switching charge — a rotation,
conjugation or relinearisation, and the hoisted groups below — also
records its :class:`KeySwitch` shape on the ledger; export reads those
shapes off one plain simulator run to pick an artifact's digit grouping
(:func:`repro.serve.grouping.artifact_parameters`).
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend.costs import CostModel
from repro.backend.ledger import KeySwitch, OpLedger
from repro.ckks.params import CkksParameters

ScaleLike = Union[int, Fraction]


class FheBackend(abc.ABC):
    """Abstract CKKS backend (paper Section 2 operations).

    Concrete implementations: :class:`repro.backend.toy.ToyBackend`
    (exact) and :class:`repro.backend.sim.SimBackend` (fast functional
    simulation).
    """

    def __init__(self, params: CkksParameters, cost_model: Optional[CostModel] = None):
        self.params = params
        self.costs = cost_model or CostModel(params)
        self.ledger = OpLedger()
        #: optional :class:`repro.obs.NoiseMonitor`; when set, backends
        #: record level/scale drift at rescale / mod-down / bootstrap
        #: boundaries (observe-only — reads metadata, never ciphertexts).
        self.noise_monitor = None

    def _note_noise(self, op: str, before, after) -> None:
        """Record one modulus-chain boundary crossing on the attached
        noise monitor (no-op when none is attached)."""
        monitor = self.noise_monitor
        if monitor is not None:
            monitor.record(
                op,
                self.level_of(before),
                self.level_of(after),
                self.scale_of(before),
                self.scale_of(after),
            )

    # -- capacity ---------------------------------------------------------
    @property
    def slot_count(self) -> int:
        return self.params.slot_count

    # -- data movement -----------------------------------------------------
    @abc.abstractmethod
    def encode(self, values: Sequence[float], level: int, scale: ScaleLike):
        """Cleartext -> plaintext at an explicit level and scale."""

    @abc.abstractmethod
    def encrypt(self, plaintext):
        """Plaintext -> ciphertext."""

    @abc.abstractmethod
    def decrypt(self, ciphertext) -> np.ndarray:
        """Ciphertext -> cleartext slot vector (real parts)."""

    def encode_encrypt(self, values, level: Optional[int] = None):
        level = self.params.max_level if level is None else level
        return self.encrypt(self.encode(values, level, self.params.scale))

    def plaintext_cache_key(self, level: int, scale: ScaleLike) -> tuple:
        """Canonical fingerprint for cached encodes of static data.

        An encoded plaintext is only reusable at the exact (level,
        scale) it was produced for, over the exact prime chain and
        key-switch digit grouping of this parameter set.  Every
        plaintext cache in the serve-many path — ``PackedMatVec`` weight
        tables, bootstrap transform tables, and the entries inside any
        ``pt_cache`` handed to :meth:`matvec_fused` — must key entries
        by this tuple so a second request entering at a different level
        or scale (or an artifact preloaded for a different ks_alpha)
        can never hit a stale encode.
        """
        params = self.params
        return (
            level,
            Fraction(scale),
            getattr(params, "ks_alpha", 1),
            params.num_special_primes,
            params.primes,
        )

    # -- metadata ------------------------------------------------------------
    @abc.abstractmethod
    def level_of(self, ciphertext) -> int: ...

    @abc.abstractmethod
    def scale_of(self, ciphertext) -> Fraction: ...

    # -- arithmetic ------------------------------------------------------------
    @abc.abstractmethod
    def add(self, a, b): ...

    @abc.abstractmethod
    def sub(self, a, b): ...

    @abc.abstractmethod
    def add_plain(self, a, plaintext): ...

    @abc.abstractmethod
    def negate(self, a): ...

    @abc.abstractmethod
    def mul_plain(self, a, plaintext): ...

    @abc.abstractmethod
    def mul(self, a, b): ...

    @abc.abstractmethod
    def rescale(self, a): ...

    @abc.abstractmethod
    def level_down(self, a, target_level: int): ...

    def rotate(self, a, steps: int):
        """Rotate the slots left by ``steps``: one Galois key switch,
        free when ``steps`` is a multiple of the slot count."""
        steps %= self.slot_count
        if steps == 0:
            return a
        level = self.level_of(a)
        self.ledger.charge("hrot", self.costs.hrot(level))
        self.ledger.key_switches[KeySwitch(level, gathers=1)] += 1
        return self._rotate_no_charge(a, steps)

    def conjugate(self, a):
        """Slot-wise complex conjugation (a Galois automorphism).

        Needed by the real bootstrapping pipeline's CoeffToSlot stage;
        backends that only process real slot vectors may leave this
        unimplemented.
        """
        raise NotImplementedError(f"{type(self).__name__} has no conjugation")

    @abc.abstractmethod
    def bootstrap(self, a): ...

    # -- hoisted rotations (Section 3.3) ---------------------------------------
    def rotate_hoisted(self, a, steps: Sequence[int]) -> Dict[int, object]:
        """Rotate one ciphertext by many amounts with a shared (hoisted)
        key-switch digit decomposition.

        Returns ``{step: rotated ciphertext}`` over the distinct steps
        reduced mod the slot count; rotation by 0 is free (maps to the
        input).  Charges what runs: one decomposition for the group,
        then one inner product and one mod-down per nonzero step —
        deferring the mod-down across steps is what
        :meth:`matvec_fused` / :meth:`rotate_sum_hoisted` are for.
        """
        unique_steps = sorted({s % self.slot_count for s in steps})
        nonzero = [s for s in unique_steps if s]
        outputs: Dict[int, object] = {0: a} if 0 in unique_steps else {}
        if nonzero:
            level, count = self.level_of(a), len(nonzero)
            per_step = self.costs.ks_inner(level) + self.costs.ks_moddown(level)
            self.ledger.charge(
                "hrot_hoisted", self.costs.ks_decompose(level) + per_step * count, count
            )
            self.ledger.key_switches[
                KeySwitch(level, products=count, gathers=count, moddowns=count)
            ] += 1
            outputs.update(self._rotate_hoisted_no_charge(a, nonzero))
        return outputs

    def _rotate_hoisted_no_charge(self, a, steps: Sequence[int]) -> Dict[int, object]:
        """Multi-rotation primitive without ledger charges.

        ``steps`` are unique, nonzero, already reduced mod slot count.
        Default: one independent rotation per step; exact backends
        override this so the decomposition really is computed once (not
        just priced once).
        """
        return {step: self._rotate_no_charge(a, step) for step in steps}

    # -- fused matvec (deferred mod-down, Section 3.3) --------------------------
    def matvec_fused(
        self,
        in_cts: Sequence,
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        pt_cache: Optional[Dict] = None,
        charged_rotations: Optional[int] = None,
    ) -> List:
        """Fully-hoisted diagonal accumulation with deferred mod-down —
        the one executor of a diagonal matvec.

        ``terms`` maps ``(out_block, in_block, offset)`` to the slot
        vector of that diagonal: entry ``j`` multiplies input slot
        ``j + offset``, so every offset rotates the input ciphertext
        directly and all rotations of one input share a single
        key-switch digit decomposition.  An offset is a plain rotation
        step (``int``) or a conjugation-composed Galois element
        ``("conj", k)`` — conjugate the input, then rotate by ``k``, as
        ONE Galois element riding the same decomposition (one extra
        inner product; the bootstrap CoeffToSlot uses it so the
        conjugation never pays a standalone key switch).  Exact
        backends keep the per-offset products in the extended Q_l * P
        basis and mod down once per output block (Bossuat et al. [11]
        double hoisting).

        Returns one pre-rescale ciphertext per output block at scale
        ``input_scale * pt_scale`` (``None`` for blocks with no terms).

        ``pt_cache`` persists the encoded weights across executions —
        on the exact backend one static table per (out, in) block
        group.  Backends key its entries by group *plus*
        :meth:`plaintext_cache_key`, so one dict may be shared across
        levels, scales, and key-switch configurations (the serve-many
        artifact preload does exactly that) without ever serving a
        stale encode.  ``charged_rotations`` overrides
        the rotation *count* written to the ledger (the matvec layer
        passes its BSGS baby+giant count so "# Rots" accounting stays
        comparable with compile-time predictions and the paper tables);
        the *seconds* charged are always the fused price.
        """
        outs = self._matvec_fused_no_charge(in_cts, terms, num_out, pt_scale, pt_cache)
        level = self.level_of(in_cts[0])
        # Only blocks with nonzero offsets pay decompose / mod-down
        # (offset-0 terms are plain pt * ct products, no key switch).
        rotated = [(bo, bi, off) for (bo, bi, off) in terms if off]
        num_offsets = len({(bi, off) for (_, bi, off) in rotated})
        num_in_used = len({bi for (_, bi, _) in rotated})
        num_out_used = len({bo for (bo, _, _) in rotated})
        rot_count = num_offsets if charged_rotations is None else charged_rotations
        self.ledger.charge(
            "hrot_hoisted",
            self.costs.matvec_fused_rotations(
                level, num_offsets, num_in_used, num_out_used
            ),
            rot_count,
        )
        if rotated:
            self.ledger.key_switches[
                KeySwitch(
                    level,
                    decompositions=num_in_used,
                    products=num_offsets,
                    gathers=num_offsets,
                    table_rows=len(rotated),
                    moddowns=num_out_used,
                )
            ] += 1
        self.ledger.charge(
            "pmult", self.costs.pmult_fused(level) * len(terms), len(terms)
        )
        num_out_blocks = len({bo for (bo, _, _) in terms})
        adds = max(0, len(terms) - num_out_blocks)
        if adds:
            self.ledger.charge("hadd", self.costs.hadd(level) * adds, adds)
        return outs

    @abc.abstractmethod
    def _matvec_fused_no_charge(
        self,
        in_cts: Sequence,
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        pt_cache: Optional[Dict] = None,
    ) -> List:
        """Fused-matvec primitive without ledger charges."""

    # -- fused rotate-and-sum fold (Gazelle hybrid, Section 8.2) ---------------
    def rotate_sum_hoisted(
        self, a, steps: Sequence[int], charged_rotations: Optional[int] = None
    ):
        """Return ``a + sum_s rot(a, s)`` with one hoisted key switch.

        (Named to avoid confusion with
        :func:`repro.core.attention.rotate_sum`, the slot-folding tree —
        which routes through this primitive, one call per fold group.)

        The Gazelle rotate-and-sum fold ``t -> t + rot(t, shift)``
        cannot be hoisted directly (each fold rotates a *different*
        accumulated ciphertext), but its composition expands into
        rotations of the original ciphertext by every subset sum of the
        shifts — and those *do* share a single digit decomposition plus
        one deferred mod-down (the same double-hoisting trick as
        :meth:`matvec_fused`).  Callers pass the expanded nonzero steps
        of one fold group (``repro.core.packing.matvec.apply_fold_groups``).

        ``charged_rotations`` overrides the rotation *count* written to
        the ledger (a fold group passes its fold count so "# Rots"
        stays comparable with the sequential fold and the compile-time
        plan); the *seconds* charged are the fused price.
        """
        nonzero = sorted({s % self.slot_count for s in steps} - {0})
        if not nonzero:
            return a
        out = self._rotate_sum_no_charge(a, nonzero)
        level, count = self.level_of(a), len(nonzero)
        rot_count = count if charged_rotations is None else charged_rotations
        self.ledger.charge(
            "hrot_hoisted", self.costs.matvec_fused_rotations(level, count), rot_count
        )
        self.ledger.key_switches[
            KeySwitch(level, products=count, gathers=count, table_rows=count)
        ] += 1
        self.ledger.charge("hadd", self.costs.hadd(level) * count, count)
        return out

    @abc.abstractmethod
    def _rotate_sum_no_charge(self, a, steps: Sequence[int]):
        """Fused rotate-and-sum primitive without ledger charges.

        ``steps`` are unique, nonzero, already reduced mod slot count.
        """

    @abc.abstractmethod
    def _rotate_no_charge(self, a, steps: int):
        """Rotation primitive without ledger charges."""
