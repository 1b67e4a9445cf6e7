"""The toy CKKS client: keygen, encoding, encryption and decryption.

Everything here is *exact* RNS-CKKS on small rings: real NTT arithmetic,
real RLWE encryption, real hybrid switching keys with a special prime.
:class:`CkksContext` is the half of the scheme that holds the secret —
parameters, rng, basis and encoder, every key and all keygen, encode /
decode, encrypt / decrypt, and the oracle ``bootstrap``, the one
substituted primitive, which decrypts and so belongs with the secret
(docs/substitutions.md).  Homomorphic evaluation — arithmetic, Galois
maps, hybrid key switching and the hoisted walk — is the exact
evaluator :class:`repro.backend.toy.ToyBackend`, which reaches this
context only for switching keys, encode / encrypt / decrypt and the
oracle refresh.

Key material — the secret, the public pair and the polynomials a
switching key is drawn from — is :class:`repro.rns.RnsPolynomial`;
plaintexts and ciphertexts are the bare evaluation-form residue tensors
of :mod:`repro.ckks.ciphertext`, which encode, encrypt, decrypt and
``mod_raise`` read and write through the basis directly.
"""

from __future__ import annotations

import os
from collections import deque
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoding import get_encoder
from repro.ckks.keys import (
    KEY_PRG_SEED_BYTES,
    KeyChain,
    SwitchingKey,
    expand_a_half,
    key_chain_primes,
    key_slot_order,
)
from repro.ckks.params import CkksParameters, RingType
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial
from repro.utils.rng import SeededRng

__all__ = ["CkksContext"]

#: Limb rows per forward NTT while a switching key fills
#: (:meth:`CkksContext._fill_switching_key`): a key's digits run through
#: the transform, the ``b`` arithmetic and the slot-order gather in slabs
#: of ``KEYGEN_SLAB_ROWS // len(chain)`` digits (at least one), so a
#: key-switch chain's NTT runs (first prime, data rows, special rows)
#: cost their numpy calls per slab rather than per digit, while a
#: whole key at once would grow each fill thread's working set with its
#: digit count.  32 rows of int64 at N = 4096 is 1 MiB per operand
#: (docs/keys.md).
KEYGEN_SLAB_ROWS = 32

#: Output precision of the oracle bootstrap, in bits relative to the
#: input range: published bootstrap precision (Bossuat et al. [11]).
BOOT_PRECISION_BITS = 20.0

#: Largest bootstrap input magnitude accepted.  Real CKKS bootstrapping
#: tolerates modest overshoot beyond the nominal [-1, 1] range (the
#: EvalMod sine interval has margin); gross violations still fail loudly.
BOOT_RANGE_SLACK = 1.5


def _fill_workers() -> int:
    """How many switching keys may fill at once: the CPUs this process
    may run on (its affinity mask — ``taskset``, cpusets), 1 where the
    platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class _KeyPlan(NamedTuple):
    """A fresh switching key, sized and validated before any draw."""

    to_key: RnsPolynomial
    from_key: Optional[RnsPolynomial]  # None: sigma_exponent(to_key)
    exponent: int
    max_level: Optional[int]  # None: full chain
    chain: Tuple[int, ...]  # special primes first
    num_data: int
    num_digits: int


def encode_rows(basis: RnsBasis, encoder, vectors: Sequence, primes, scale) -> np.ndarray:
    """Slot vectors -> ``(T, len(primes), N)`` evaluation-form residues at
    ``scale``, one row per vector (zero-padded to the slot count).  Needs
    the ring's basis and slot encoder only, no keys.  Rows whose rounded
    coefficients fit int64 (all of them at toy scales) take one batched
    slots -> coeffs, one broadcast % and one batched transform; a wider
    row takes the bigint reduction."""
    slots = np.zeros((len(vectors), encoder.slot_count), dtype=np.complex128)
    for row, values in zip(slots, vectors):
        values = np.asarray(values)
        if values.size > encoder.slot_count:
            raise ValueError(
                f"{values.size} values do not fit in {encoder.slot_count} slots"
            )
        row[: values.size] = values
    rounded = np.rint(encoder.slots_to_coeffs(slots) * float(scale))
    fits = np.all(np.abs(rounded) < 2.0**62, axis=-1)
    residues = rounded[fits].astype(np.int64)[:, None, :] % basis.moduli_column(primes)
    encoded = basis.forward_chain(residues, primes)
    if fits.all():
        return encoded
    out = np.empty((len(vectors),) + encoded.shape[1:], dtype=np.int64)
    out[fits] = encoded
    for t in np.flatnonzero(~fits):
        out[t] = basis.forward_chain(
            basis.reduce_bigints(rounded[t].astype(object), primes), primes
        )
    return out


def encode_table(basis: RnsBasis, encoder, vectors: Sequence, level: int,
                 scale) -> np.ndarray:
    """Static slot vectors -> one read-only uint32 ``(T, ks_limbs, N)``
    residue table, the operand the fused matvec contracts in place.

    Row ``t`` is ``vectors[t]`` encoded **directly over the key-switch
    chain** of ``level`` — limb rows in chain order ``(data...,
    special)`` — so ``table[:, : level + 1]`` is a view holding exactly
    :meth:`CkksContext.encode`'s data-chain residues and the whole row
    their basis extension to Q_l * P (:meth:`RnsBasis.convert_residues`):
    one array where a plaintext and its Q_l * P extension used to be
    two.  Residues are < 2^31, so 32 bits lose nothing; multiply the
    table only against int64 operands (uint32 * uint32 wraps silently).
    """
    chain = basis.key_switch_primes(level + 1)
    table = encode_rows(basis, encoder, vectors, chain, scale).astype(np.uint32)
    table.setflags(write=False)
    return table


class CkksContext:
    """The client: parameters, keys, encoding and encryption.

    Args:
        params: a :class:`CkksParameters` whose primes fit the NTT bound
            (use :func:`repro.ckks.params.toy_parameters`).
        seed: RNG seed for keys and encryption noise.
    """

    def __init__(self, params: CkksParameters, seed: int = 0):
        if params.ring_type is not RingType.STANDARD:
            raise ValueError(
                "the exact toy backend supports the standard ring only; "
                "conjugate-invariant capacity is modeled by the simulator"
            )
        self.params = params
        self.rng = SeededRng(seed)
        self.basis = RnsBasis(
            params.primes, params.ring_degree, num_special=params.num_special_primes
        )
        self.encoder = get_encoder(params.ring_degree)
        self.keys = self._generate_keys()

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------
    def _uniform_poly(self, primes) -> RnsPolynomial:
        n = self.params.ring_degree
        rows = [self.rng.uniform_mod(q, n) for q in primes]
        return RnsPolynomial(self.basis, primes, np.stack(rows), is_ntt=True)

    def _noise_rows(self, primes) -> np.ndarray:
        """A fresh noise vector as ``(len(primes), N)`` evaluation-form
        residues.  The forward NTT takes the small signed coefficients as
        they are (its twist multiply reduces them into ``(-q, q)`` and
        its output is canonical), so no per-limb reduction runs first."""
        noise = self.rng.gaussian(self.params.sigma, self.params.ring_degree)
        rows = np.broadcast_to(noise, (len(primes), noise.size))
        return self.basis.forward_chain(rows, primes)

    def _generate_keys(self) -> KeyChain:
        n = self.params.ring_degree
        chain = self.basis.primes
        if self.params.secret_hamming_weight:
            secret_coeffs = self.rng.sparse_ternary(
                n, self.params.secret_hamming_weight
            )
        else:
            secret_coeffs = self.rng.ternary(n)
        secret = RnsPolynomial(
            self.basis,
            chain,
            secret_coeffs[None, :] % self.basis.moduli_column(chain),
            is_ntt=False,
        ).to_ntt()
        a = self._uniform_poly(chain)
        e = RnsPolynomial(self.basis, chain, self._noise_rows(chain), is_ntt=True)
        public = ((-(a * secret)) + e, a)

        relin = self._make_switching_key(secret * secret, secret)
        return KeyChain(secret=secret, public=public, relin=relin)

    def _make_switching_key(
        self,
        from_key: RnsPolynomial,
        to_key: RnsPolynomial,
        max_level: Optional[int] = None,
        exponent: int = 1,
    ) -> SwitchingKey:
        """One switching key from ``from_key`` to ``to_key``, drawn and
        filled on the calling thread (the relin key; rotation keys come
        from :meth:`_generate_galois_keys`, through the same halves)."""
        plan = self._plan_switching_key(to_key, max_level, exponent, from_key)
        return self._fill_switching_key(plan, *self._draw_switching_key(plan))

    def _plan_switching_key(
        self,
        to_key: RnsPolynomial,
        max_level: Optional[int],
        exponent: int,
        from_key: Optional[RnsPolynomial] = None,
    ) -> _KeyPlan:
        """Size a fresh key, refusing one that cannot be stored — before
        any randomness is drawn, so a refused key leaves the rng as it
        was.  ``max_level`` at or above the top level is the full chain."""
        if max_level is None or max_level >= self.params.max_level:
            max_level = None
            num_data = self.params.max_level + 1
        else:
            num_data = max_level + 1
        chain = key_chain_primes(self.basis, self.params.num_special_primes + num_data)
        if max(chain) >= 2**32:
            raise ValueError(
                f"prime {max(chain)} does not fit the 32-bit residues a "
                "switching key stores"
            )
        num_digits = self.params.ks_digits(num_data - 1)
        return _KeyPlan(to_key, from_key, exponent, max_level, chain, num_data, num_digits)

    def _draw_switching_key(self, plan: _KeyPlan):
        """The draw half: everything a key takes from the context rng —
        its 32-byte PRG seed, then one noise vector per digit, the order
        keygen has always drawn in (stacked ``(D, N)``) — and the tensor
        the fill writes.

        Runs on the calling thread, so the rng stream never depends on
        which thread fills.  The tensor is allocated here too: a key
        allocated on a fill thread lands in that thread's malloc arena,
        which stays resident after the thread is gone.
        """
        n = self.params.ring_degree
        seed = self.rng.bytes(KEY_PRG_SEED_BYTES)
        noise = np.stack(
            [self.rng.gaussian(self.params.sigma, n) for _ in range(plan.num_digits)]
        )
        tensor = np.empty((2, plan.num_digits, len(plan.chain), n), dtype=np.uint32)
        return seed, noise, tensor

    def _fill_switching_key(
        self, plan: _KeyPlan, seed: bytes, noise, tensor: np.ndarray
    ) -> SwitchingKey:
        """The fill half: the hybrid switching key encrypting
        P*g_i*from_key per digit i, written into ``tensor``.  Reads the
        context and the draws only, so fills of distinct keys may run on
        any threads at once.

        Digit i covers the ks_alpha data limbs [i*alpha, (i+1)*alpha).
        The gadget g_i = P * Q-hat_i * [Q-hat_i^{-1}]_{Q_i} (with
        Q_i = prod of digit i's primes, Q-hat_i = Q/Q_i) has residues
        (P mod q_j) on digit i's own limbs and 0 everywhere else —
        including the special limbs, since P | g_i — so no big-integer
        work is needed regardless of the grouping.

        A bounded ``plan.max_level`` makes a *compressed* key: rows live
        on the key-switch chain of that level only — ``dnum(max_level)``
        digits over ``max_level + 1`` data limbs plus the special basis —
        instead of the full chain.  A compressed key serves any key
        switch at ``level <= max_level`` (every level reads a prefix
        view either way) and shrinks storage by the dropped digits *and*
        the dropped limbs per digit.

        ``plan.exponent`` is the Galois element whose rotated secret
        ``from_key`` is (1 for the relin key; a plan without a
        ``from_key`` rotates ``to_key`` here).  Rows are computed over
        the key's own special-first chain, a slab of digits at a time
        (:data:`KEYGEN_SLAB_ROWS` limb rows per transform), and written
        through the inverse permutation straight into the one resident
        uint32 tensor (:class:`repro.ckks.keys.SwitchingKey`); the
        uniform ``a_i`` rows expand from the drawn 32-byte seed, so
        persistent storage needs only the ``b_i`` rows plus the seed.
        Every step is elementwise per digit, so a key is the same bytes
        whatever the slab width.
        """
        chain = plan.chain
        ns = self.params.num_special_primes
        alpha = self.params.ks_alpha
        to_key = self._restrict(plan.to_key, chain)
        if plan.from_key is None:
            from_key = to_key.automorphism(plan.exponent)
        else:
            from_key = self._restrict(plan.from_key, chain)
        s_from, s_to = from_key.data, to_key.data
        order = key_slot_order(self.basis, plan.exponent)
        mod_col = self.basis.moduli_column(chain)
        special = self.basis.special_modulus()
        gadget = np.array([[special % q] for q in chain], dtype=np.int64)
        width = max(1, KEYGEN_SLAB_ROWS // len(chain))
        for lo in range(0, plan.num_digits, width):
            hi = min(lo + width, plan.num_digits)
            a = np.stack([expand_a_half(seed, d, self.basis, chain).data for d in range(lo, hi)])
            # b = e - a*s + g*s' per digit; |.| < 2 q^2 < 2^63 for the
            # < 2^31 primes the exact backend admits, so ONE reduction.
            # The forward NTT takes the small signed noise as it is (its
            # twist multiply reduces it into (-q, q), its output is
            # canonical), so no per-limb reduction runs first.
            b = self.basis.forward_chain(
                np.broadcast_to(noise[lo:hi, None, :], a.shape), chain
            )
            b -= a * s_to
            for d in range(lo, hi):
                own = slice(ns + d * alpha, ns + min((d + 1) * alpha, plan.num_data))
                b[d - lo, own] += gadget[own] * s_from[own]
            b %= mod_col
            tensor[0, lo:hi] = np.take(b, order, axis=-1)
            tensor[1, lo:hi] = np.take(a, order, axis=-1)
        return SwitchingKey(tensor, self.basis, plan.exponent, plan.max_level, seed)

    def _plan_galois_keys(self, requests) -> List[Tuple[int, _KeyPlan]]:
        """What ``(exponent, bound)`` requests need, in request order.

        ``bound`` is the highest level the key must serve (``None`` or
        the top level: full chain).  Each request is judged against the
        keys held *after the requests before it*: a key whose bound is at
        least the request's covers it (a full-chain key covers every
        bound); anything else — no key, or a narrower compressed key a
        wider request outgrows — is generated fresh at the request's
        bound.  Returns ``(exponent, plan)`` per fresh key.
        """
        two_n = 2 * self.params.ring_degree
        top = self.params.max_level
        covered: Dict[int, int] = {}  # highest level each exponent's key serves
        actions = []
        for exponent, bound in requests:
            exponent %= two_n
            bound = top if bound is None else min(int(bound), top)
            if exponent not in covered:
                key = self.keys.galois.get(exponent)
                covered[exponent] = (
                    -1 if key is None else top if key.max_level is None else key.max_level
                )
            if bound <= covered[exponent]:
                continue
            plan = self._plan_switching_key(
                self.keys.secret, None if bound == top else bound, exponent
            )
            actions.append((exponent, plan))
            covered[exponent] = bound
        return actions

    def _generate_galois_keys(self, requests) -> None:
        """Make ``keys.galois`` cover every ``(exponent, bound)`` request
        (:meth:`_plan_galois_keys`) — the one place rotation keys are
        generated or replaced.

        Every request is planned first, so a key that cannot be stored
        refuses the call before any draw.  Fresh keys are then drawn on
        this thread in request order and filled on a thread pool sized
        to the CPUs the process may run on, at most ``2 x workers`` keys
        ahead of installation, and installed in request order: the rng
        stream, every key and the order of ``keys.galois`` are those of
        generating the keys one at a time.  The pool is created and
        joined inside the call — one surviving into ``fork()`` once
        deadlocked the process-mode serving pool (docs/kernels.md) —
        and with one CPU or one fresh key the fills run inline.  A fill
        that raises propagates once the keys before it are installed;
        its own key never is.
        """
        actions = self._plan_galois_keys(requests)
        workers = min(_fill_workers(), len(actions))
        pool, ahead = None, 0
        if workers > 1:
            # Imported here: a process that never fills keys on a pool
            # (an analyze-mode compile) does not carry the module.
            from concurrent.futures import ThreadPoolExecutor

            pool, ahead = ThreadPoolExecutor(workers), 2 * workers
        window = deque()
        try:
            for exponent, plan in actions:
                draw = self._draw_switching_key(plan)
                if pool is None:
                    job = self._fill_switching_key(plan, *draw)
                else:
                    job = pool.submit(self._fill_switching_key, plan, *draw)
                window.append((exponent, job))
                if len(window) > ahead:
                    self._install_galois_key(*window.popleft())
            for exponent, job in window:
                self._install_galois_key(exponent, job)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _install_galois_key(self, exponent: int, job) -> None:
        """Store one planned key: a filled key, or a pool fill's result."""
        if not isinstance(job, SwitchingKey):
            job = job.result()
        self.keys.galois[exponent] = job

    def galois_key(
        self, exponent: int, max_level: Optional[int] = None
    ) -> SwitchingKey:
        """Fetch (or lazily create) the switching key for sigma_t.

        ``max_level`` is the highest data level the caller needs the key
        to cover.  A cached key is returned whenever it covers that
        level (full-chain keys always do); otherwise a new key is
        generated — full-chain by default, so lazy creation through the
        evaluator never produces a key that later key switches outgrow.
        Use :meth:`generate_rotation_keys` with ``levels`` to generate
        the level-bounded compressed form.
        """
        exponent %= 2 * self.params.ring_degree
        need = self.params.max_level if max_level is None else max_level
        key = self.keys.galois.get(exponent)
        if key is None or not key.covers(need):
            self._generate_galois_keys([(exponent, None)])
            key = self.keys.galois[exponent]
        return key

    def generate_rotation_keys(
        self, steps: Iterable[int], levels: Optional[Dict[int, int]] = None
    ) -> None:
        """Pre-generate rotation keys (the compile-time step of Section 6).

        ``levels`` optionally maps a step to the highest level it is
        used at (:meth:`repro.core.program.FheProgram.required_rotation_step_levels`);
        steps present in the map get compressed keys bounded at that
        level, the rest get full-chain keys.  A held key whose bound is
        at least the requested one is kept (a full-chain key covers
        every bound); a narrower one is replaced by a fresh key.  The
        fresh keys are filled on every CPU the process may use and come
        out byte-identical to generating them one at a time
        (:meth:`_generate_galois_keys`).
        """
        self._generate_galois_keys(
            (
                self.encoder.rotation_exponent(step),
                None if levels is None else levels.get(step),
            )
            for step in steps
        )

    # ------------------------------------------------------------------
    # Encoding and encryption
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        return self.params.slot_count

    def encode(
        self,
        values: Sequence[float],
        level: Optional[int] = None,
        scale: Optional[Fraction] = None,
    ) -> Plaintext:
        """Cleartext vector -> plaintext polynomial (paper Section 2.2)."""
        level = self.params.max_level if level is None else level
        scale = Fraction(self.params.scale) if scale is None else Fraction(scale)
        primes = self.basis.data_primes(level + 1)
        data = encode_rows(self.basis, self.encoder, [values], primes, scale)[0]
        return Plaintext(data, level, scale, self.slot_count)

    def encode_table(self, vectors: Sequence, level: int, scale) -> np.ndarray:
        """This context's :func:`encode_table`."""
        return encode_table(self.basis, self.encoder, vectors, level, scale)

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Plaintext polynomial -> cleartext vector of real parts."""
        return self.decode_complex(plaintext).real

    def centered_coeffs(self, data: np.ndarray, level: int) -> np.ndarray:
        """Evaluation-form ``(level + 1, N)`` residues -> the centered
        big-integer coefficients they represent (exact CRT)."""
        primes = self.basis.data_primes(level + 1)
        return self.basis.crt_reconstruct(self.basis.inverse_chain(data, primes), primes)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key RLWE encryption (paper Section 2.3): draws u, then
        e0, then e1."""
        level = plaintext.level
        primes = self.basis.data_primes(level + 1)
        mod = self.basis.moduli_column(primes)
        public = np.stack([half.data[: level + 1] for half in self.keys.public])
        u = self.basis.forward_chain(self.rng.ternary(self.params.ring_degree) % mod, primes)
        data = public * u % mod
        data[0] += self._noise_rows(primes)
        data[1] += self._noise_rows(primes)
        data[0] += plaintext.data
        data %= mod
        return Ciphertext(data, level, plaintext.scale, plaintext.slot_count)

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        level = ciphertext.level
        mod = self.basis.moduli_column(self.basis.data_primes(level + 1))
        c0, c1 = ciphertext.data
        message = (c0 + c1 * self.keys.secret.data[: level + 1] % mod) % mod
        return Plaintext(message, level, ciphertext.scale, ciphertext.slot_count)

    def decode_complex(self, plaintext: Plaintext) -> np.ndarray:
        """Like :meth:`decode` but keeping the imaginary slot parts."""
        bigints = self.centered_coeffs(plaintext.data, plaintext.level)
        coeffs = bigints.astype(np.float64) / float(plaintext.scale)
        return self.encoder.coeffs_to_slots(coeffs)

    def decrypt_decode(self, ciphertext: Ciphertext) -> np.ndarray:
        return self.decode(self.decrypt(ciphertext))

    def mod_raise(self, ct: Ciphertext, declared_scale: Fraction) -> Ciphertext:
        """Reinterpret a level-0 ciphertext modulo the full data chain.

        Step one of real bootstrapping: the centered coefficient vectors
        of (c0, c1) are lifted from Z_{q0} to Z_{Q_L}.  Over the integers
        the decryption identity becomes c0 + c1*s = u + q0*I for a small
        overflow polynomial I with ||I||_inf <= ||s||_1 / 2 + 1, which
        EvalMod later removes.  ``declared_scale`` re-labels the payload
        so downstream slot values read u / declared_scale.
        """
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        top = self.params.max_level
        chain = self.basis.data_primes(top + 1)
        raised = np.stack(
            [self.basis.reduce_bigints(self.centered_coeffs(row, 0), chain) for row in ct.data]
        )
        data = self.basis.forward_chain(raised, chain)
        return Ciphertext(data, top, Fraction(declared_scale), ct.slot_count)

    def _restrict(self, poly: RnsPolynomial, primes) -> RnsPolynomial:
        """Restrict a full-chain polynomial to a sub-chain of its primes."""
        index = [poly.primes.index(q) for q in primes]
        return RnsPolynomial(self.basis, primes, poly.data[index], poly.is_ntt)

    # ------------------------------------------------------------------
    # Bootstrapping (oracle; documented substitution)
    # ------------------------------------------------------------------
    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a ciphertext to level L_eff (paper Section 2.5.4).

        Substitution: full CKKS bootstrapping (CoeffToSlot, EvalMod,
        SlotToCoeff) is replaced by an oracle refresh that decrypts with
        the context's own secret key, re-encrypts at L_eff, and injects
        noise matching published bootstrap precision
        (:data:`BOOT_PRECISION_BITS` bits relative to the input range).
        The externally visible contract — level reset to L_eff, L_boot
        levels reserved out of L, bounded added error, and a large
        latency charged by the cost model — is exactly the paper's.
        Inputs must be in [-1, 1] (the range-estimation contract).
        """
        values = self.decrypt_decode(ct)
        max_abs = float(np.max(np.abs(values))) if values.size else 0.0
        if max_abs > BOOT_RANGE_SLACK:
            raise ValueError(
                f"bootstrap input out of range: max |slot| = {max_abs:.4f} > 1; "
                "range estimation should have scaled this down"
            )
        noise_std = 2.0 ** (-BOOT_PRECISION_BITS)
        noisy = values + self.rng.normal(0.0, noise_std, values.shape)
        fresh = self.encode(noisy, level=self.params.effective_level)
        return self.encrypt(fresh)
