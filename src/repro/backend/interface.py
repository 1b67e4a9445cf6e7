"""The backend contract compiled Orion programs execute against.

Handles (ciphertexts/plaintexts) are backend-specific opaque objects;
the program executor only moves them between the operations below.

:class:`FheBackend` books every operation and owns every piece of
per-backend state.  Its public ops are the only code that checks
operand levels and scales, charges the backend's :class:`OpLedger`
using the shared :class:`CostModel` (so rotation/bootstrap counts and
modeled latency are comparable across backends), records each key
switch's :class:`KeySwitch` shape — a rotation, conjugation or
relinearisation, and the hoisted groups below; export reads those shapes
off one plain simulator run to pick an artifact's digit grouping
(:func:`repro.serve.grouping.artifact_parameters`) — and reports
modulus-chain crossings to the noise monitor.  It also caches the
static plaintexts a program encodes at run time
(:meth:`FheBackend.constant`).  A subclass implements only unbooked
primitives (``_add``, ``_mul``, ``_rotate``, ``_matvec_fused``, ...):
each computes its result and nothing else.  The exact evaluator is one
such subclass, :class:`repro.backend.toy.ToyBackend`, whose primitives
are the RNS-CKKS arithmetic itself; its client
(:class:`repro.ckks.context.CkksContext`) holds keys and encryption and
evaluates nothing.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend.costs import CostModel
from repro.backend.ledger import KeySwitch, OpLedger
from repro.ckks.galois import split_offset
from repro.ckks.params import CkksParameters

ScaleLike = Union[int, Fraction]


class FheBackend(abc.ABC):
    """Abstract CKKS backend (paper Section 2 operations).

    Concrete implementations: :class:`repro.backend.toy.ToyBackend`
    (exact) and :class:`repro.backend.sim.SimBackend` (fast functional
    simulation).
    """

    #: a real bootstrapping pipeline
    #: (:class:`repro.ckks.bootstrap.CkksBootstrapper`), whose component
    #: ops book themselves; ``None``: :meth:`bootstrap` is one refresh
    #: priced by the cost model.
    _bootstrapper = None

    def __init__(self, params: CkksParameters):
        self.params = params
        self.costs = CostModel(params)
        self.ledger = OpLedger()
        #: optional :class:`repro.obs.NoiseMonitor`; when set, backends
        #: record level/scale drift at rescale / mod-down / bootstrap
        #: boundaries (observe-only — reads metadata, never ciphertexts).
        self.noise_monitor = None
        self._constants: Dict[tuple, object] = {}

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
        key-switch digit grouping of this parameter set.  Every cache of
        static encodes keys its entries by this tuple — a packed layer's
        weight tables (``(bo, bi, fingerprint)``) and biases (``(bo,
        fingerprint)``, :class:`repro.core.packing.matvec.PackedMatVec`)
        and this backend's constants (:meth:`constant`) — so a second request
        entering at a different level or scale (or an artifact preloaded
        for a different ks_alpha) can never hit a stale encode.
        """
        params = self.params
        return (
            level,
            Fraction(scale),
            getattr(params, "ks_alpha", 1),
            params.num_special_primes,
            params.primes,
        )

    def constant(self, value, level: int, scale: ScaleLike):
        """The plaintext of a static slot vector at an exact (level,
        scale), encoded once per backend.

        ``value`` is a scalar, which fills every slot (a Chebyshev
        coefficient, the ones of a scale match, a matvec's zero block),
        or a slot vector (an attention mask).  A scalar is held at its
        information size (:meth:`_encode_scalar`): on the exact backend
        one residue per prime, where a slot vector takes ``N``.  Entries
        are keyed by the value plus :meth:`plaintext_cache_key`, so
        equal constants read by several instructions are held once and
        none is ever served at another level or scale.
        """
        values = np.asarray(value, dtype=np.float64)
        key = (
            values.tobytes() if values.ndim else float(values),
            self.plaintext_cache_key(level, scale),
        )
        plaintext = self._constants.get(key)
        if plaintext is None:
            if values.ndim:
                plaintext = self.encode(values, level, scale)
            else:
                plaintext = self._encode_scalar(float(values), level, scale)
            self._constants[key] = plaintext
        return plaintext

    def drop_constants(self) -> None:
        """Forget every cached constant: a serving lane reopened on this
        backend runs another program."""
        self._constants.clear()

    def encode_table(self, vectors: Sequence[np.ndarray], level: int, scale: ScaleLike):
        """One fused-matvec group's diagonals (rows in
        :func:`repro.ckks.galois.fused_term_groups` order) encoded as a
        single static operand at (level, scale), or ``None`` — this
        default — for a functional backend, which multiplies the
        diagonals themselves."""
        return None

    # -- metadata ------------------------------------------------------------
    @abc.abstractmethod
    def level_of(self, ciphertext) -> int: ...

    @abc.abstractmethod
    def scale_of(self, ciphertext) -> Fraction: ...

    # -- arithmetic (booked) ------------------------------------------------------
    @staticmethod
    def _check(op: str, a, b, check_scale: bool = True) -> None:
        """Refuse operands at different levels (or, for an addition,
        different scales): one message for every backend."""
        if a.level != b.level:
            raise ValueError(f"{op}: level mismatch {a.level} vs {b.level}")
        if check_scale and a.scale != b.scale:
            raise ValueError(f"{op}: scale mismatch {a.scale} vs {b.scale}")

    def add(self, a, b):
        self._check("HAdd", a, b)
        self.ledger.charge("hadd", self.costs.hadd(self.level_of(a)))
        return self._add(a, b)

    def sub(self, a, b):
        self._check("HSub", a, b)
        self.ledger.charge("hadd", self.costs.hadd(self.level_of(a)))
        return self._sub(a, b)

    def add_plain(self, a, plaintext):
        self._check("PAdd", a, plaintext)
        self.ledger.charge("padd", self.costs.hadd(self.level_of(a)))
        return self._add_plain(a, plaintext)

    def negate(self, a):
        """Slot-wise negation: free, so nothing is booked."""
        return self._negate(a)

    def mul_plain(self, a, plaintext):
        """PMult: values multiply; scales multiply (paper Section 2.5.2)."""
        self._check("PMult", a, plaintext, check_scale=False)
        self.ledger.charge("pmult", self.costs.pmult(self.level_of(a)))
        return self._mul_plain(a, plaintext)

    def mul(self, a, b):
        """HMult with relinearisation: one key switch."""
        self._check("HMult", a, b, check_scale=False)
        level = self.level_of(a)
        self.ledger.charge("hmult", self.costs.hmult(level))
        self.ledger.key_switches[KeySwitch(level)] += 1
        return self._mul(a, b)

    def rescale(self, a):
        """Drop one level; divide the scale by that level's prime exactly."""
        level = self.level_of(a)
        if level == 0:
            raise ValueError("cannot rescale at level 0: bootstrap required")
        self.ledger.charge("rescale", self.costs.rescale(level))
        out = self._rescale(a)
        self._note_noise("rescale", a, out)
        return out

    def level_down(self, a, target_level: int):
        """Drop limbs without dividing (free level adjustment)."""
        level = self.level_of(a)
        if target_level > level:
            raise ValueError("cannot raise level without bootstrapping")
        if target_level < 0:
            raise ValueError("negative level")
        out = self._level_down(a, target_level)
        if target_level != level:
            self._note_noise("mod_down", a, out)
        return out

    def rotate(self, a, steps: int):
        """Rotate the slots left by ``steps``: one Galois key switch,
        free when ``steps`` is a multiple of the slot count."""
        steps %= self.slot_count
        if steps == 0:
            return a
        level = self.level_of(a)
        self.ledger.charge("hrot", self.costs.hrot(level))
        self.ledger.key_switches[KeySwitch(level, gathers=1)] += 1
        return self._rotate(a, steps)

    def conjugate(self, a):
        """Slot-wise complex conjugation: a Galois key switch, priced
        like a rotation (the real bootstrapping pipeline's CoeffToSlot
        folds it into its fused matvec instead)."""
        level = self.level_of(a)
        self.ledger.charge("hrot", self.costs.hrot(level))
        self.ledger.key_switches[KeySwitch(level, gathers=1)] += 1
        return self._conjugate(a)

    def bootstrap(self, a):
        """Refresh to L_eff (paper Section 2.5.4)."""
        if self._bootstrapper is not None:
            out = self._bootstrapper.bootstrap(a)
        else:
            out = self._bootstrap(a)
            self.ledger.charge("bootstrap", self.costs.bootstrap())
        self._note_noise("bootstrap", a, out)
        return out

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
            outputs.update(self._rotate_hoisted(a, nonzero))
        return outputs

    # -- fused matvec (deferred mod-down, Section 3.3) --------------------------
    def matvec_fused(
        self,
        in_cts: Sequence,
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        tables: Dict,
        n1: Optional[int],
        charged_rotations: Optional[int] = None,
    ) -> List:
        """Fully-hoisted diagonal accumulation with deferred mod-down —
        the one executor of a diagonal matvec.

        ``terms`` maps ``(out_block, in_block, offset)`` to the slot
        vector of that diagonal: entry ``j`` multiplies input slot
        ``j + offset``.  ``n1`` is the walk's baby modulus (``None``:
        unsplit).  Each offset splits into a baby ``offset % n1``, a
        rotation of the input ciphertext — all babies of one input share
        a single key-switch digit decomposition — and a giant ``offset -
        offset % n1``: per output block, each nonzero giant's partial sum
        is modded down once and rotated by the giant with its own
        decomposition and inner product (the table holds its diagonals
        pre-rotated by the negated giant:
        :func:`repro.core.packing.matvec.table_vector`).
        Unsplit, or with ``n1`` above every offset, every offset rotates
        the input directly.  An offset is a plain rotation step
        (``int``) or a conjugation-composed Galois element ``("conj",
        k)`` — conjugate the input, then rotate by ``k``, as ONE Galois
        element riding the same decomposition (one extra inner product;
        the bootstrap CoeffToSlot uses it, unsplit, so the conjugation
        never pays a standalone key switch).  Exact backends keep the
        per-offset products in the extended Q_l * P basis and mod down
        once per output block (Bossuat et al. [11] double hoisting).

        Returns one pre-rescale ciphertext per output block at scale
        ``input_scale * pt_scale`` (``None`` for blocks with no terms).

        All input ciphertexts must share one level and scale.
        ``tables`` maps each ``(out_block, in_block)`` group to its
        offsets in table-row order and its static weight table
        (:meth:`encode_table`, at this call's level and ``pt_scale``):
        what :func:`repro.core.packing.matvec.held_tables` returns from
        the store a packed layer or a bootstrap transform keeps.
        ``charged_rotations`` overrides
        the rotation *count* written to the ledger (the matvec layer
        passes its BSGS baby+giant count so "# Rots" accounting stays
        comparable with compile-time predictions and the paper tables);
        the *seconds* charged are always the fused price of the split
        that runs, and its :class:`KeySwitch` shape counts each giant's
        decomposition, inner product, gather and partial mod-down.
        """
        for ct in in_cts[1:]:
            self._check("matvec", ct, in_cts[0])
        level = self.level_of(in_cts[0])
        outs = self._matvec_fused(in_cts, terms, num_out, pt_scale, tables, n1)
        # Only blocks with nonzero offsets pay decompose / mod-down
        # (offset-0 terms are plain pt * ct products, no key switch).
        babies, giants, giant_moddowns, outputs, rows = set(), set(), set(), set(), 0
        for bo, bi, off in terms:
            if not off:
                continue
            giant, baby = split_offset(off, n1)
            outputs.add(bo)
            if baby:
                babies.add((bi, baby))
                rows += 1
            if giant:
                giants.add((bo, giant))
                if baby:
                    giant_moddowns.add((bo, giant))
        decompositions = len({bi for bi, _ in babies}) + len(giants)
        products = len(babies) + len(giants)
        moddowns = len(outputs) + len(giant_moddowns)
        rot_count = products if charged_rotations is None else charged_rotations
        self.ledger.charge(
            "hrot_hoisted",
            self.costs.matvec_fused_rotations(level, products, decompositions, moddowns),
            rot_count,
        )
        if outputs:
            self.ledger.key_switches[
                KeySwitch(
                    level,
                    decompositions=decompositions,
                    products=products,
                    gathers=products,
                    table_rows=rows,
                    moddowns=moddowns,
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
        out = self._rotate_sum(a, nonzero)
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

    # -- unbooked primitives: what a backend implements ---------------------------
    # Each computes its result and nothing else; the public op above has
    # already checked its operands and booked it.
    @abc.abstractmethod
    def _encode_scalar(self, value: float, level: int, scale: ScaleLike):
        """:meth:`constant`'s scalar case: ``value`` in every slot at
        (level, scale), held at its information size, and bit for bit
        what :meth:`encode` makes of the filled slot vector wherever an
        op reads it."""

    @abc.abstractmethod
    def _add(self, a, b): ...

    @abc.abstractmethod
    def _sub(self, a, b): ...

    @abc.abstractmethod
    def _add_plain(self, a, plaintext): ...

    @abc.abstractmethod
    def _negate(self, a): ...

    @abc.abstractmethod
    def _mul_plain(self, a, plaintext): ...

    @abc.abstractmethod
    def _mul(self, a, b): ...

    @abc.abstractmethod
    def _rescale(self, a): ...

    @abc.abstractmethod
    def _level_down(self, a, target_level: int): ...

    @abc.abstractmethod
    def _rotate(self, a, steps: int):
        """``steps`` is nonzero and already reduced mod the slot count."""

    @abc.abstractmethod
    def _conjugate(self, a): ...

    @abc.abstractmethod
    def _bootstrap(self, a):
        """The refresh :meth:`bootstrap` prices as one op."""

    def _rotate_hoisted(self, a, steps: Sequence[int]) -> Dict[int, object]:
        """``steps`` are unique, nonzero, already reduced mod slot count.
        Default: one independent rotation per step; the exact backend
        overrides this so the decomposition really is computed once (not
        just priced once)."""
        return {step: self._rotate(a, step) for step in steps}

    @abc.abstractmethod
    def _matvec_fused(
        self,
        in_cts: Sequence,
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        tables: Dict,
        n1: Optional[int],
    ) -> List: ...

    @abc.abstractmethod
    def _rotate_sum(self, a, steps: Sequence[int]):
        """``steps`` are unique, nonzero, already reduced mod slot count."""
