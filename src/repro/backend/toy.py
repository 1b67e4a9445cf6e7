"""The exact evaluator: real RNS-CKKS on small rings behind the common
interface.

:class:`ToyBackend` implements the unbooked primitives
:class:`FheBackend` books — so counts and modeled latencies are the
simulator's — directly on ciphertexts: real NTT arithmetic, real hybrid
key switching with a special prime, real rescaling.  A ciphertext is one
``(2, l+1, N)`` evaluation-form residue tensor
(:mod:`repro.ckks.ciphertext`); every primitive reads it and writes a
fresh one through :class:`repro.rns.RnsBasis` (moduli columns, chain
transforms, divide-and-round), never a view of an operand, and HMult's
degree-2 product stays a raw tensor between :meth:`ToyBackend._tensor`
and :meth:`ToyBackend._relinearize`.  Operand levels and scales are
checked by the public ops, never here.  The client half of
the scheme (keys, encoding, encryption, decryption and the oracle
refresh) is :class:`repro.ckks.context.CkksContext`, held as
``self.context``; the evaluator reaches it for nothing else.

Evaluation runs on the limb-batched hot-path engine: representation
changes go through :class:`repro.ntt.NttChainEngine`, rotations apply
Galois maps as evaluation-form permutations, and hybrid key switching
is factored into decompose / inner-product / mod-down stages so one
digit decomposition serves many rotation keys (paper Section 3.3
hoisting).  Digit decomposition supports grouping
(``CkksParameters.ks_alpha`` limbs per digit, dnum = ceil((l+1)/alpha),
with a matching multi-prime special basis), which shrinks both the
decompose NTT batch and the inner product width.
:meth:`ToyBackend.rotate_hoisted_slabs`, the one hoisted walk,
additionally defers the mod-down: it yields raw accumulators in the
extended Q_l * P basis a fixed-width slab of offsets at a time, so fused
consumers (the BSGS matvec, the fold) sum many plaintext-weighted
rotations into running sums and divide by P once per output — true
double hoisting (Bossuat et al. [11]) — without ever holding every
offset's accumulator at once.  No evaluator operation allocates
object-dtype (bigint) arrays.  Its wall-clock and resident memory are
what ``benchmarks/e2e`` measures (N up to 4096), so both matter here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.backend.interface import FheBackend, ScaleLike
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.encoding import get_encoder
from repro.ckks.galois import galois_offset_key, split_offset
from repro.ckks.keys import SwitchingKey
from repro.ckks.params import CkksParameters
from repro.ntt import galois_eval_permutation
from repro.obs.tracing import get_tracer

#: Distinct offsets per slab of a hoisted key switch
#: (:meth:`ToyBackend.rotate_hoisted_slabs`): wide enough that the
#: per-slab dispatches vanish against the key stream, narrow enough that
#: a slab's accumulators stay a few MB at N = 4096 however many offsets
#: a layer hoists.  Chosen by a sweep (docs/hoisting.md, "Static
#: operands"): 4 to 16 run a 128-offset matvec equally fast, 1 or 2 lose
#: to per-call overhead, and each doubling from 4 adds a few MB of peak.
HOISTED_SLAB = 8


class ToyBackend(FheBackend):
    """Exact CKKS execution for validation-scale programs."""

    def __init__(
        self,
        params: CkksParameters,
        *,
        seed: int = 0,
        real_bootstrap: bool = False,
    ):
        super().__init__(params)
        self.context = CkksContext(params, seed=seed)
        # Public structure of the parameter set, shared with the client
        # rather than rebuilt (the basis holds every prime's NTT tables).
        self.basis = self.context.basis
        self.encoder = get_encoder(params.ring_degree)
        if real_bootstrap:
            from repro.ckks.bootstrap import CkksBootstrapper

            self._bootstrapper = CkksBootstrapper(self)

    # -- data movement ---------------------------------------------------
    def encode(self, values: Sequence[float], level: int, scale: ScaleLike) -> Plaintext:
        return self.context.encode(values, level=level, scale=Fraction(scale))

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        return self.context.encrypt(plaintext)

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        return self.context.decrypt_decode(ciphertext)

    def level_of(self, ciphertext: Ciphertext) -> int:
        return ciphertext.level

    def scale_of(self, ciphertext: Ciphertext) -> Fraction:
        return ciphertext.scale

    def encode_table(self, vectors, level: int, scale: ScaleLike) -> np.ndarray:
        return self.context.encode_table(vectors, level, scale)

    def _encode_scalar(self, value: float, level: int, scale: ScaleLike) -> Plaintext:
        """``value`` in every slot as a read-only ``(level + 1, 1)``
        evaluation-form column, which ``_add_plain`` / ``_mul_plain``
        broadcast over the ring.

        The encoder maps a constant slot vector to exactly ``(value, 0,
        ..., 0)``, rounded as ``rint(value * float(scale))``
        (:func:`repro.ckks.context.encode_rows`), and a constant
        polynomial holds that constant at every evaluation point: row
        ``i`` is its residue mod the ``i``-th prime, no transform.  The
        rounded value reduces as a Python integer, so past 2^62 it is
        the encoder's bigint path.
        """
        rounded = int(np.rint(value * float(scale)))
        primes = self.basis.data_primes(level + 1)
        column = np.array([[rounded % q] for q in primes], dtype=np.int64)
        return Plaintext(column, level, Fraction(scale), self.slot_count)

    # -- unbooked primitives: arithmetic (paper Section 2.5) ---------------
    def _moduli(self, level: int) -> np.ndarray:
        """The ``(level + 1, 1)`` data-prime column a level-``level``
        tensor reduces against."""
        return self.basis.moduli_column(self.basis.data_primes(level + 1))

    def _add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        data = (a.data + b.data) % self._moduli(a.level)
        return Ciphertext(data, a.level, a.scale, a.slot_count)

    def _sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        data = (a.data - b.data) % self._moduli(a.level)
        return Ciphertext(data, a.level, a.scale, a.slot_count)

    def _add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        data = a.data.copy()
        data[0] = (a.data[0] + p.data) % self._moduli(a.level)
        return Ciphertext(data, a.level, a.scale, a.slot_count)

    def _negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext((-a.data) % self._moduli(a.level), a.level, a.scale, a.slot_count)

    def _mul_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        data = a.data * p.data % self._moduli(a.level)
        return Ciphertext(data, a.level, a.scale * p.scale, a.slot_count)

    def _mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """HMult: the tensor product, then relinearization."""
        data = self._relinearize(self._tensor(a, b))
        return Ciphertext(data, a.level, a.scale * b.scale, a.slot_count)

    def _tensor(self, a: Ciphertext, b: Ciphertext) -> np.ndarray:
        """The degree-2 product ``(d0, d1, d2)`` as a raw
        ``(3, level + 1, N)`` tensor, before relinearization — never a
        :class:`Ciphertext`."""
        mod = self._moduli(a.level)
        (a0, a1), (b0, b1) = a.data, b.data
        out = np.empty((3,) + a0.shape, dtype=np.int64)
        out[0] = a0 * b0 % mod
        out[1] = (a0 * b1 % mod + a1 * b0 % mod) % mod
        out[2] = a1 * b1 % mod
        return out

    def _relinearize(self, product: np.ndarray) -> np.ndarray:
        """Key-switch ``d2`` of a :meth:`_tensor` product with the relin
        key into the ``(2, level + 1, N)`` degree-1 tensor."""
        level = product.shape[1] - 1
        out = self._keyswitch(product[2], self.context.keys.relin, level)
        out += product[:2]
        out %= self._moduli(level)
        return out

    def _rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last prime; level drops by one (Section 2.5.2).

        Both components go through one batched divide-and-round pass
        (they share the dropped limb's inverse NTT and the lift's
        forward NTT).
        """
        primes = self.basis.data_primes(ct.level + 1)
        data = self.basis.divide_round_last(ct.data, primes, is_ntt=True)
        return Ciphertext(data, ct.level - 1, ct.scale / primes[-1], ct.slot_count)

    def _level_down(self, ct: Ciphertext, target_level: int) -> Ciphertext:
        if target_level == ct.level:
            return ct
        data = np.ascontiguousarray(ct.data[:, : target_level + 1])
        return Ciphertext(data, target_level, ct.scale, ct.slot_count)

    def _bootstrap(self, a: Ciphertext) -> Ciphertext:
        return self.context.bootstrap(a)

    # -- unbooked primitives: Galois maps (Section 2.5.3) --------------------
    def _rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        return self._apply_galois(ct, self.encoder.rotation_exponent(steps))

    def _conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self._apply_galois(ct, self.encoder.conjugation_exponent)

    def _apply_galois(self, ct: Ciphertext, exponent: int) -> Ciphertext:
        key = self.context.galois_key(exponent, max_level=ct.level)
        data = self._keyswitch(ct.data[1], key, ct.level)
        perm = galois_eval_permutation(self.params.ring_degree, exponent)
        data[0] = (np.take(ct.data[0], perm, axis=-1) + data[0]) % self._moduli(ct.level)
        return Ciphertext(data, ct.level, ct.scale, ct.slot_count)

    # -- hybrid key switching --------------------------------------------------
    def _ks_decompose(self, d: np.ndarray, level: int) -> np.ndarray:
        """Digit-decompose the evaluation-form ``(level + 1, N)``
        residues ``d`` for hybrid key switching (the hoistable part: one
        inverse NTT of ``d`` plus one batched forward NTT of every digit
        raised to the Q_l * P chain).

        With ks_alpha = 1 each digit is one centered limb; with grouped
        decomposition (ks_alpha > 1, dnum = ceil((level+1)/alpha)) each
        digit is the exact int64 CRT lift of its alpha limbs, all digits
        in one :meth:`RnsBasis.decompose_digits` pass, shrinking both the
        digit count and the forward-NTT batch.

        Returns an int64 array of shape ``(dnum, len(ks_chain), N)``
        in evaluation form.  The decomposition commutes with Galois
        automorphisms, so hoisted rotations reuse it across many keys.
        """
        ks_chain = self.basis.key_switch_primes(level + 1)
        data_primes = self.basis.data_primes(level + 1)
        alpha = self.params.ks_alpha
        d_coeff = self.basis.inverse_chain(d, data_primes)
        if alpha == 1:
            src_col = self.basis.moduli_column(data_primes)
            centered = np.where(d_coeff > src_col // 2, d_coeff - src_col, d_coeff)
            # Stride-0 broadcast across the ks chain: the engine's twist
            # multiply materializes and reduces, so no explicit % pass here.
            shape = (level + 1, len(ks_chain), centered.shape[-1])
            lifted = np.broadcast_to(centered[:, None, :], shape)
        else:
            lifted = self.basis.decompose_digits(d_coeff, data_primes, ks_chain, alpha)
        return self.basis.forward_chain(lifted, ks_chain)

    def _ks_inner(
        self,
        digits: np.ndarray,
        keys: Sequence[SwitchingKey],
        level: int,
    ) -> np.ndarray:
        """Inner products sum_i digit_i * key_i over the Q_l * P chain,
        one per switching key, against one shared digit tensor.

        Returns a ``(2, ks_limbs, len(keys), N)`` evaluation-form tensor
        (limb rows in ``(data..., special)`` chain order) through the
        ``ks_inner_stacked`` kernel, which reads each key's prefix
        :meth:`SwitchingKey.chain_view` in place — no key material is
        copied, stacked or cached per level or offset group.

        Galois keys are stored slot-axis *inverse-permuted*: with
        ``key_inv[..., perm_t] == key`` the product-sum runs directly
        against the UN-rotated digit tensor —

            acc[c, k, n] = sum_d digits[d, k, perm_t[n]] * key[c, d, k, n]
                         = (sum_d digits * key_inv)[c, k, perm_t[n]]

        so column ``o`` is the accumulator of ``sigma_t(d)`` *before*
        its Galois gather, which the caller applies to the small
        accumulator instead of the D-times-larger digit stack (the relin
        key's permutation is the identity).

        Products are summed lazily in int64:
        :func:`repro.kernels.lazy_reduction_chunk` digits fit before a
        reduction is needed, so the hot path performs a single ``%`` on
        the accumulator.  A compressed key used above its bound is a
        caller bug and fails loudly rather than silently dropping digits.
        """
        for key in keys:
            if not key.covers(level):
                raise ValueError(
                    f"switching key is compressed to level {key.max_level} "
                    f"but the key switch runs at level {level}; regenerate "
                    "the key (or raise its bound in the key manifest)"
                )
        ks_chain = self.basis.key_switch_primes(level + 1)
        num_digits = self.params.ks_digits(level)
        return kernels.ks_inner_stacked(
            digits,
            [key.chain_view(num_digits, level) for key in keys],
            self.params.num_special_primes,
            self.basis.moduli_column(ks_chain),
            kernels.lazy_reduction_chunk(max(ks_chain)),
        )

    def _ks_moddown(self, acc: np.ndarray, level: int) -> np.ndarray:
        """Divide both accumulators by the special modulus P.

        ``acc`` is a (Galois-gathered) ``(2, ks_limbs, N)`` column of
        :meth:`_ks_inner`; both rows share one divide-and-round pass,
        whatever the number of special primes: inverse-transform the
        special rows, lift their centered value to Q_l, one forward NTT,
        subtract, multiply by P^{-1} (docs/hoisting.md).  Returns the
        fresh ``(2, level + 1, N)`` evaluation-form tensor.
        """
        chain = self.basis.key_switch_primes(level + 1)
        return self.basis.divide_round_last(
            acc, chain, is_ntt=True, count=self.params.num_special_primes
        )

    def _keyswitch(self, d: np.ndarray, key: SwitchingKey, level: int) -> np.ndarray:
        """Hybrid key switch of ``sigma_t(d)`` at the given level, ``t``
        being the key's Galois element (``d`` itself for the relin key),
        ``d`` the ``(level + 1, N)`` evaluation-form residues of one
        component.

        Decomposes the UN-rotated d into digits, multiplies by the
        switching key over Q_l * P, Galois-gathers the accumulator, and
        divides by the special modulus P into a fresh ``(2, level + 1,
        N)`` tensor.  All stages are limb-batched; see
        :meth:`rotate_hoisted_slabs` for the walk that shares the
        decomposition across many keys.
        """
        digits = self._ks_decompose(d, level)
        acc = self._ks_inner(digits, [key], level)[:, :, 0]
        if key.exponent != 1:
            perm = galois_eval_permutation(self.params.ring_degree, key.exponent)
            acc = np.take(acc, perm, axis=-1)
        return self._ks_moddown(acc, level)

    def galois_offset_exponent(self, offset) -> int:
        """Galois exponent of a hoisted offset (int or ``("conj", k)``).

        A conjugation-composed offset applies sigma_conj first, then the
        rotation: automorphisms compose by multiplying their exponents
        mod 2N, so the pair is ONE Galois element — one switching key,
        one inner product — rather than two chained key switches.
        """
        if isinstance(offset, tuple):
            conj = self.encoder.conjugation_exponent
            return (conj * self.encoder.rotation_exponent(offset[1])) % (
                2 * self.params.ring_degree
            )
        return self.encoder.rotation_exponent(offset)

    # -- the hoisted walk (Section 3.3) ------------------------------------------
    def rotate_hoisted_slabs(
        self,
        ct: Ciphertext,
        steps_list: Iterable,
    ):
        """The hoisted key switch: Galois maps of ``ct`` left in the
        extended Q_l * P basis, yielded :data:`HOISTED_SLAB` offsets at a
        time — the one walk every hoisted consumer is built from.
        Unbooked: the public ops that consume it book themselves.

        ``ct.data[1]`` (c1) is digit-decomposed ONCE (the digit tensor
        commutes with Galois permutations); the mod-down is deferred.  The
        distinct nonzero offsets are walked in :func:`galois_offset_key`
        order, and each slab yields ``(offsets, rot0, acc)``: ``rot0``
        the ``(level + 1, S, N)`` transformed c0s over Q_l and ``acc``
        the raw ``(2, ks_limbs, S, N)`` evaluation-form key-switch
        accumulators still over Q_l * P, the offset axis second to last
        in both.  The walk keeps no reference to a slab once it has
        yielded it: a consumer that reduces each slab where it lies
        (the fused matvec contracts it against its table rows, the fold
        sums it) never holds more than one slab, whatever the number of
        offsets.

        Per slab, the shared digit tensor meets every offset's
        inverse-permuted switching key in ONE dispatch of
        :meth:`_ks_inner` (each key read in place as a prefix view of
        its resident tensor), and only the small accumulator is
        Galois-permuted — one flat gather over the fused offset-slot
        axis (see :meth:`_ks_inner` for why that equals the
        rotate-the-digits formulation, element by element).  Every
        offset's inner product is computed exactly once, and modular
        sums are invariant under regrouping, so consumers are
        bit-identical to a per-offset loop.

        Offsets are plain rotation steps (``int``) or conjugation-
        composed elements ``("conj", k)`` — conjugate, then rotate by
        ``k``.  The composition is a single Galois automorphism, so the
        bootstrap CoeffToSlot conjugation rides the *same* digit
        decomposition as the transform rotations instead of paying its
        own standalone key switch.  Step 0 is skipped (it needs no key
        switch; callers handle it as the identity) — but
        ``("conj", 0)`` is a real Galois map and is walked like any
        other element.
        """
        unique = {
            ("conj", s[1] % self.slot_count)
            if isinstance(s, tuple)
            else s % self.slot_count
            for s in steps_list
        }
        nonzero = sorted(unique - {0}, key=galois_offset_key)
        if not nonzero:
            return
        n = self.params.ring_degree
        level = ct.level
        # Observe-only span (one per hoisted key switch, not per slab; it
        # stays open across the yields, so it also brackets what the
        # consumer does with each slab); the null-tracer context manager
        # costs two trivial calls, far below the NTT work it brackets
        # (gated by tracing_overhead).
        with get_tracer().span(
            "keyswitch.hoisted",
            category="keyswitch",
            level=level,
            num_offsets=len(nonzero),
        ):
            digits = self._ks_decompose(ct.data[1], level)
            c0 = ct.data[0]
            for start in range(0, len(nonzero), HOISTED_SLAB):
                offsets = nonzero[start : start + HOISTED_SLAB]
                num = len(offsets)
                exponents = [self.galois_offset_exponent(o) for o in offsets]
                keys = [self.context.galois_key(e, max_level=level) for e in exponents]
                perms = np.stack([galois_eval_permutation(n, e) for e in exponents])
                # The (C, K, S, N) layout fuses the offset and slot axes,
                # so the slab's permutations are ONE flat gather each for
                # the accumulator and c0.  Both are yielded as unnamed
                # temporaries: the walk holds no slab across a yield.
                flat_idx = (np.arange(num)[:, None] * n + perms).reshape(-1)
                yield (
                    offsets,
                    np.take(c0, perms.reshape(-1), axis=-1).reshape(-1, num, n),
                    np.take(
                        self._ks_inner(digits, keys, level).reshape(
                            2, -1, num * n
                        ),
                        flat_idx,
                        axis=-1,
                    ).reshape(2, -1, num, n),
                )

    def rotate_hoisted_raw(
        self,
        ct: Ciphertext,
        steps_list: Iterable,
    ) -> Dict:
        """Every slab of :meth:`rotate_hoisted_slabs`, kept, as
        ``{offset: (rot0, acc)}``: ``rot0`` the transformed c0's
        ``(level + 1, N)`` residues, ``acc`` its raw ``(2, ks_limbs, N)``
        accumulator — views of the slabs.  Applying :meth:`_ks_moddown` to
        each ``acc`` reproduces :meth:`rotate_hoisted` (or the standalone
        :meth:`conjugate` key switch) bit-for-bit.  Unbooked.
        """
        return {
            offset: (rot0[:, i], acc[:, :, i])
            for offsets, rot0, acc in self.rotate_hoisted_slabs(ct, steps_list)
            for i, offset in enumerate(offsets)
        }

    def _rotate_hoisted(self, ct: Ciphertext, steps: Sequence[int]) -> Dict[int, Ciphertext]:
        """Real hoisting: the expensive part of a rotation — inverse-
        transforming c1 and raising every digit to the Q_l * P basis —
        depends only on c1, not on the rotation amount, because digit
        decomposition commutes with Galois automorphisms.  It is
        computed once (in :meth:`rotate_hoisted_slabs`); each step then
        costs one inner product with its switching key, one
        evaluation-form permutation of the accumulator, and the
        mod-down."""
        outputs: Dict[int, Ciphertext] = {}
        mod_q = self._moduli(ct.level)
        for offsets, rot0, acc in self.rotate_hoisted_slabs(ct, steps):
            for i, step in enumerate(offsets):
                data = self._ks_moddown(acc[:, :, i], ct.level)
                data[0] = (rot0[:, i] + data[0]) % mod_q
                outputs[step] = Ciphertext(data, ct.level, ct.scale, ct.slot_count)
        return outputs

    # -- fused consumers of the walk ---------------------------------------------
    def _matvec_fused(
        self,
        in_cts: Sequence[Ciphertext],
        terms: Dict,
        num_out: int,
        pt_scale: ScaleLike,
        tables: Dict,
        n1: Optional[int],
    ) -> List[Optional[Ciphertext]]:
        """Exact fused diagonal accumulation (true double hoisting),
        split by the baby modulus ``n1`` (``None``: unsplit).

        Every baby of an input ciphertext — plain rotations *and*
        conjugation-composed ``("conj", k)`` elements — reuses one digit
        decomposition (:meth:`rotate_hoisted_slabs`) and a single
        :meth:`_ks_moddown` per output block replaces one mod-down per
        rotation.  Each nonzero giant of an output block sums its own
        partial the same way; the partial is modded down once, rotated
        by the giant with its own decomposition and inner product
        (:meth:`rotate_hoisted_slabs` over the one step), and its raw
        accumulator joins the output's deferred mod-down.  Unsplit there
        is no giant: every offset rotates the input directly.

        The weights of one ``(out block, in block)`` group are ONE
        static uint32 ``(T, ks_limbs, N)`` table
        (:meth:`CkksContext.encode_table`, one row per offset, in the
        order ``tables`` lists the group's offsets: giant by giant, a
        giant's rows pre-rotated by the negated giant), held by the
        caller (a packed layer's, which :meth:`ServingArtifact.preload`
        fills with mmapped views).  Each hoisted slab is contracted in
        place, as it arrives, into the running sums of every (output
        block, giant) partial that reads its babies — the matching table
        rows against the raw Q_l * P accumulators, their data-limb
        prefix against the transformed c0s — and then dropped, so the
        working set is one slab whatever the layer's offset count; a
        giant's baby-0 row meets the input itself.  Nothing is
        re-stacked, widened or copied per request.  Sums are lazy int64
        (``kernels.ks_inner``); modular sums are invariant under
        regrouping, so unsplit outputs are bit-identical to a per-term
        loop.
        """
        level = in_cts[0].level
        scale = in_cts[0].scale
        basis = self.basis
        n = basis.ring_degree
        ks_chain = basis.key_switch_primes(level + 1)
        data_primes = basis.data_primes(level + 1)
        mod_ks = basis.moduli_column(ks_chain)
        mod_q = basis.moduli_column(data_primes)
        pt_scale = Fraction(pt_scale)

        # Per (output block, giant) partial: `direct` over Q_l (the
        # c0-side products and the baby-0 terms), `acc_ext` over Q_l * P
        # (what its mod-down divides).  Both sum reduced (< 2^31)
        # partials lazily: int64 holds 2^32 of them, far more than slabs
        # times blocks.
        direct = {(bo, 0): np.zeros((2, level + 1, n), np.int64) for bo, _ in tables}
        acc_ext: Dict[tuple, np.ndarray] = {}
        chunk = kernels.lazy_reduction_chunk(max(ks_chain))
        # Per input block, the partials reading it: each one's rotated
        # babies, its table rows and a cursor — the slab walk meets the
        # babies in row order, so each slab is a run of every partial's
        # rows.
        readers: Dict[int, list] = {}
        for (bo, bi), (offsets, table) in tables.items():
            start = 0
            for giant, run in groupby(offsets, key=lambda off: split_offset(off, n1)[0]):
                babies = [split_offset(off, n1)[1] for off in run]
                rows = table[start : start + len(babies)]
                start += len(babies)
                if (bo, giant) not in direct:
                    direct[(bo, giant)] = np.zeros((2, level + 1, n), np.int64)
                if babies[-1] == 0:
                    plain = rows[-1, : level + 1]
                    direct[(bo, giant)] += plain * in_cts[bi].data % mod_q
                    babies, rows = babies[:-1], rows[:-1]
                if babies:
                    readers.setdefault(bi, []).append([(bo, giant), babies, rows, 0])

        for bi in sorted(readers):
            hoisted = {off for _, babies, _, _ in readers[bi] for off in babies}
            for slab, rot0, acc in self.rotate_hoisted_slabs(in_cts[bi], hoisted):
                where = {off: i for i, off in enumerate(slab)}
                for reader in readers[bi]:
                    key, babies, rows, lo = reader
                    hi = lo
                    while hi < len(babies) and babies[hi] in where:
                        hi += 1
                    if hi == lo:
                        continue
                    reader[3] = hi
                    r0, a = rot0, acc
                    if hi - lo != len(slab):
                        # This partial reads a subset of the slab (its
                        # babies are shared with other partials).
                        cols = [where[off] for off in babies[lo:hi]]
                        r0, a = rot0.take(cols, axis=1), acc.take(cols, axis=2)
                    acc_ext[key] = acc_ext.get(key, 0) + kernels.ks_inner(
                        rows[lo:hi], a.swapaxes(1, 2), mod_ks, chunk
                    )
                    direct[key][0] += kernels.ks_inner(
                        rows[lo:hi, : level + 1], r0.swapaxes(0, 1)[None], mod_q, chunk
                    )[0]
                # Drop the slab before the walk computes the next one.
                rot0 = acc = r0 = a = None
            for (bo, _), babies, _, done in readers[bi]:
                if done != len(babies):
                    raise ValueError(
                        f"offset {babies[done]!r} of block ({bo}, {bi}) is not "
                        "reduced mod the slot count"
                    )

        def modded_down(key) -> Ciphertext:
            """Partial ``key`` over Q_l: its Q_l * P sum divided by P
            into its Q_l sum."""
            out = direct.pop(key)
            if key in acc_ext:
                out += self._ks_moddown(acc_ext.pop(key) % mod_ks, level)
            out %= mod_q
            return Ciphertext(out, level, scale * pt_scale, in_cts[0].slot_count)

        # Each giant's partial, rotated into place, joins its output's
        # sums ahead of the output's one mod-down.
        for bo, giant in sorted(key for key in direct if key[1]):
            for _, rot0, acc in self.rotate_hoisted_slabs(modded_down((bo, giant)), [giant]):
                direct[(bo, 0)][0] += rot0[:, 0]
                acc_ext[(bo, 0)] = acc_ext.get((bo, 0), 0) + acc[:, :, 0]
        return [modded_down((bo, 0)) if (bo, 0) in direct else None for bo in range(num_out)]

    def _rotate_sum(self, a: Ciphertext, steps: Sequence[int]) -> Ciphertext:
        """Exact fused rotate-and-sum (the Gazelle fold, double-hoisted).

        All rotations share one digit decomposition of ``a``'s c1 via
        :meth:`rotate_hoisted_slabs`; each slab's raw Q_l * P
        accumulators and transformed c0s are summed lazily in int64 as
        it arrives, and a single :meth:`_ks_moddown` replaces the
        per-fold key switches of the sequential path.
        """
        level = a.level
        mod_ks = self.basis.moduli_column(self.basis.key_switch_primes(level + 1))
        # Entries stay < max prime (~2^31), so len(steps)+1 summands fit
        # int64 with > 2^31 headroom: no intermediate reductions needed.
        acc_sum = 0
        c0 = a.data[0]
        for _, rot0, acc in self.rotate_hoisted_slabs(a, steps):
            acc_sum = acc_sum + acc.sum(axis=2)
            c0 = c0 + rot0.sum(axis=1)
            del rot0, acc
        data = self._ks_moddown(acc_sum % mod_ks, level)
        data[0] += c0
        data[1] += a.data[1]
        data %= self._moduli(level)
        return Ciphertext(data, level, a.scale, a.slot_count)
