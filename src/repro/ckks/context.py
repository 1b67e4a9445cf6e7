"""The toy CKKS context: keygen, encoding, encryption, and evaluation.

Everything here is *exact* RNS-CKKS on small rings: real NTT arithmetic,
real RLWE encryption, real hybrid key switching with a special prime,
real rescaling.  The single substituted primitive is bootstrapping,
which is an oracle refresh with the paper's external contract (see
``bootstrap`` below and docs/substitutions.md).

Evaluation runs on the limb-batched hot-path engine: representation
changes go through :class:`repro.ntt.NttChainEngine`, rotations apply
Galois maps as evaluation-form permutations, and hybrid key switching
is factored into decompose / inner-product / mod-down stages so
:meth:`CkksContext.rotate_hoisted` can share one digit decomposition
across many rotation keys (paper Section 3.3 hoisting).  Digit
decomposition supports grouping (``CkksParameters.ks_alpha`` limbs per
digit, dnum = ceil((l+1)/alpha), with a matching multi-prime special
basis), which shrinks both the decompose NTT batch and the inner
product width.  :meth:`CkksContext.rotate_hoisted_slabs`, the one
hoisted walk, additionally defers the mod-down: it yields raw
accumulators in the extended Q_l * P basis a fixed-width slab of
offsets at a time, so fused consumers (the BSGS matvec, the fold) sum
many plaintext-weighted rotations into running sums and divide by P
once per output — true double hoisting (Bossuat et al. [11]) — without
ever holding every offset's accumulator at once.  No evaluator
operation allocates object-dtype (bigint) arrays.
"""

from __future__ import annotations

import os
from collections import deque
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoding import get_encoder
from repro.ckks.galois import galois_offset_key
from repro.ckks.keys import (
    KEY_PRG_SEED_BYTES,
    KeyChain,
    SwitchingKey,
    expand_a_half,
    key_chain_primes,
    key_slot_order,
)
from repro.ckks.params import CkksParameters, RingType
from repro.ntt import galois_eval_permutation
from repro.obs.tracing import get_tracer
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial
from repro.utils.rng import SeededRng

__all__ = ["CkksContext", "HOISTED_SLAB", "galois_offset_key"]

#: Distinct offsets per slab of a hoisted key switch
#: (:meth:`CkksContext.rotate_hoisted_slabs`): wide enough that the
#: per-slab dispatches vanish against the key stream, narrow enough that
#: a slab's accumulators stay a few MB at N = 4096 however many offsets
#: a layer hoists.  Chosen by a sweep (docs/hoisting.md, "Static
#: operands"): 4 to 16 run a 128-offset matvec equally fast, 1 or 2 lose
#: to per-call overhead, and each doubling from 4 adds a few MB of peak.
HOISTED_SLAB = 8

#: Limb rows per forward NTT while a switching key fills
#: (:meth:`CkksContext._fill_switching_key`): a key's digits run through
#: the transform, the ``b`` arithmetic and the slot-order gather in slabs
#: of ``KEYGEN_SLAB_ROWS // len(chain)`` digits (at least one), so a
#: key-switch chain's two NTT runs (special rows, data rows) cost two
#: butterfly calls per stage per slab rather than per digit, while a
#: whole key at once would grow each fill thread's working set with its
#: digit count.  32 rows of int64 at N = 4096 is 1 MiB per operand
#: (docs/keys.md).
KEYGEN_SLAB_ROWS = 32


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


class CkksContext:
    """Owns parameters, keys, and all homomorphic operations.

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
    def _full_chain(self):
        return self.basis.primes

    def _data_chain(self, level: int):
        return self.basis.primes[: level + 1]

    def _ks_chain(self, level: int):
        """Prime chain used during key switching at the given level."""
        return self._data_chain(level) + self.basis.special_primes

    def _uniform_poly(self, primes) -> RnsPolynomial:
        n = self.params.ring_degree
        rows = [self.rng.uniform_mod(q, n) for q in primes]
        return RnsPolynomial(self.basis, primes, np.stack(rows), is_ntt=True)

    def _noise_poly(self, primes) -> RnsPolynomial:
        """A fresh noise vector as an evaluation-form polynomial.  The
        forward NTT takes the small signed coefficients as they are (its
        twist multiply reduces them into ``(-q, q)`` and its output is
        canonical), so no per-limb reduction runs first."""
        noise = self.rng.gaussian(self.params.sigma, self.params.ring_degree)
        rows = np.broadcast_to(noise, (len(primes), noise.size))
        data = self.basis.forward_chain(rows, primes)
        return RnsPolynomial(self.basis, primes, data, is_ntt=True)

    def _generate_keys(self) -> KeyChain:
        n = self.params.ring_degree
        chain = self._full_chain()
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
        secret_squared = secret * secret

        a = self._uniform_poly(chain)
        e = self._noise_poly(chain)
        public = ((-(a * secret)) + e, a)

        relin = self._make_switching_key(secret_squared, secret)
        return KeyChain(
            secret=secret,
            secret_squared=secret_squared,
            public=public,
            relin=relin,
        )

    def _ks_num_digits(self, level: int) -> int:
        """dnum at the given level: ceil((level+1) / ks_alpha) digits."""
        return -(-(level + 1) // self.params.ks_alpha)

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
        num_digits = self._ks_num_digits(num_data - 1)
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

    def _encode_poly(self, values: Sequence[float], primes, scale) -> RnsPolynomial:
        """Slot vector -> evaluation-form polynomial over ``primes``."""
        slots = np.zeros(self.slot_count, dtype=np.complex128)
        values = np.asarray(values)
        if values.size > self.slot_count:
            raise ValueError(
                f"{values.size} values do not fit in {self.slot_count} slots"
            )
        slots[: values.size] = values
        coeffs = self.encoder.slots_to_coeffs(slots) * float(scale)
        rounded = np.rint(coeffs)
        if np.all(np.abs(rounded) < 2.0**62):
            # Hot path: rounded coefficients fit int64 (always true for
            # toy scales), so RNS reduction is one broadcasted %.
            data = rounded.astype(np.int64)[None, :] % self.basis.moduli_column(primes)
            return RnsPolynomial(self.basis, primes, data, is_ntt=False).to_ntt()
        return RnsPolynomial.from_bigint_coeffs(
            self.basis, primes, rounded.astype(object)
        )

    def encode(
        self,
        values: Sequence[float],
        level: Optional[int] = None,
        scale: Optional[Fraction] = None,
    ) -> Plaintext:
        """Cleartext vector -> plaintext polynomial (paper Section 2.2)."""
        level = self.params.max_level if level is None else level
        scale = Fraction(self.params.scale) if scale is None else Fraction(scale)
        poly = self._encode_poly(values, self._data_chain(level), scale)
        return Plaintext(poly=poly, level=level, scale=scale, slot_count=self.slot_count)

    def encode_table(self, vectors: Sequence, level: int, scale) -> np.ndarray:
        """Static slot vectors -> one read-only uint32 ``(T, ks_limbs, N)``
        residue table, the operand the fused matvec contracts in place.

        Row ``t`` is ``vectors[t]`` encoded **directly over the
        key-switch chain** of ``level`` — limb rows in chain order
        ``(data..., special)`` — so ``table[:, : level + 1]`` is a view
        holding exactly :meth:`encode`'s data-chain residues and the
        whole row their basis extension to Q_l * P
        (:meth:`RnsBasis.convert_residues`): one array
        where a plaintext and its Q_l * P extension used to be two.
        Residues are < 2^31, so 32 bits lose nothing; multiply the table
        only against int64 operands (uint32 * uint32 wraps silently).
        """
        ks_chain = self._ks_chain(level)
        table = np.empty(
            (len(vectors), len(ks_chain), self.params.ring_degree), dtype=np.uint32
        )
        for row, vec in zip(table, vectors):
            row[...] = self._encode_poly(vec, ks_chain, scale).data
        table.setflags(write=False)
        return table

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Plaintext polynomial -> cleartext vector of real parts."""
        bigints = plaintext.poly.to_bigint_coeffs()
        coeffs = bigints.astype(np.float64) / float(plaintext.scale)
        return self.encoder.coeffs_to_slots(coeffs).real

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key RLWE encryption (paper Section 2.3)."""
        primes = self._data_chain(plaintext.level)
        pk0 = self._restrict(self.keys.public[0], primes)
        pk1 = self._restrict(self.keys.public[1], primes)
        u_coeffs = self.rng.ternary(self.params.ring_degree)
        u = RnsPolynomial(
            self.basis,
            primes,
            u_coeffs[None, :] % self.basis.moduli_column(primes),
            is_ntt=False,
        ).to_ntt()
        e0 = self._noise_poly(primes)
        e1 = self._noise_poly(primes)
        c0 = pk0 * u + e0 + plaintext.poly
        c1 = pk1 * u + e1
        return Ciphertext(
            c0=c0,
            c1=c1,
            level=plaintext.level,
            scale=plaintext.scale,
            slot_count=plaintext.slot_count,
        )

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        primes = self._data_chain(ciphertext.level)
        secret = self._restrict(self.keys.secret, primes)
        message = ciphertext.c0 + ciphertext.c1 * secret
        if ciphertext.c2 is not None:
            secret_sq = self._restrict(self.keys.secret_squared, primes)
            message = message + ciphertext.c2 * secret_sq
        return Plaintext(
            poly=message,
            level=ciphertext.level,
            scale=ciphertext.scale,
            slot_count=ciphertext.slot_count,
        )

    def decode_complex(self, plaintext: Plaintext) -> np.ndarray:
        """Like :meth:`decode` but keeping the imaginary slot parts."""
        bigints = plaintext.poly.to_bigint_coeffs()
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
        if ct.c2 is not None:
            raise ValueError("relinearize before mod_raise")
        chain = self._data_chain(self.params.max_level)

        def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
            centered = poly.to_bigint_coeffs()
            return RnsPolynomial.from_bigint_coeffs(self.basis, chain, centered)

        return Ciphertext(
            c0=raise_poly(ct.c0),
            c1=raise_poly(ct.c1),
            level=self.params.max_level,
            scale=Fraction(declared_scale),
            slot_count=ct.slot_count,
        )

    def encode_encrypt(self, values: Sequence[float], level=None) -> Ciphertext:
        return self.encrypt(self.encode(values, level=level))

    def _restrict(self, poly: RnsPolynomial, primes) -> RnsPolynomial:
        """Restrict a full-chain polynomial to a sub-chain of its primes."""
        index = [poly.primes.index(q) for q in primes]
        return RnsPolynomial(self.basis, primes, poly.data[index], poly.is_ntt)

    # ------------------------------------------------------------------
    # Homomorphic operations (paper Section 2.5)
    # ------------------------------------------------------------------
    def _check_levels(self, a: Ciphertext, b) -> None:
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level}")

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """HAdd: SIMD addition of two ciphertexts (same level and scale)."""
        self._check_levels(a, b)
        if a.scale != b.scale:
            raise ValueError(f"scale mismatch: {a.scale} vs {b.scale}")
        return Ciphertext(
            c0=a.c0 + b.c0,
            c1=a.c1 + b.c1,
            level=a.level,
            scale=a.scale,
            slot_count=a.slot_count,
        )

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_levels(a, b)
        if a.scale != b.scale:
            raise ValueError(f"scale mismatch: {a.scale} vs {b.scale}")
        return Ciphertext(
            c0=a.c0 - b.c0,
            c1=a.c1 - b.c1,
            level=a.level,
            scale=a.scale,
            slot_count=a.slot_count,
        )

    def add_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        """PAdd: plaintext + ciphertext (same level and scale)."""
        self._check_levels(a, p)
        if a.scale != p.scale:
            raise ValueError(f"scale mismatch: {a.scale} vs {p.scale}")
        return Ciphertext(
            c0=a.c0 + p.poly,
            c1=a.c1,
            level=a.level,
            scale=a.scale,
            slot_count=a.slot_count,
        )

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(
            c0=-a.c0, c1=-a.c1, level=a.level, scale=a.scale, slot_count=a.slot_count
        )

    def mul_plain(self, a: Ciphertext, p: Plaintext) -> Ciphertext:
        """PMult: SIMD multiply by a plaintext; output scale multiplies."""
        self._check_levels(a, p)
        return Ciphertext(
            c0=a.c0 * p.poly,
            c1=a.c1 * p.poly,
            level=a.level,
            scale=a.scale * p.scale,
            slot_count=a.slot_count,
        )

    def mul(self, a: Ciphertext, b: Ciphertext, relinearize: bool = True) -> Ciphertext:
        """HMult: ciphertext * ciphertext with relinearization."""
        self._check_levels(a, b)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        out = Ciphertext(
            c0=d0,
            c1=d1,
            c2=d2,
            level=a.level,
            scale=a.scale * b.scale,
            slot_count=a.slot_count,
        )
        return self.relinearize(out) if relinearize else out

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Reduce a degree-2 ciphertext back to degree 1 via the relin key."""
        if ct.c2 is None:
            return ct
        p0, p1 = self._keyswitch(ct.c2, self.keys.relin, ct.level)
        return Ciphertext(
            c0=ct.c0 + p0,
            c1=ct.c1 + p1,
            level=ct.level,
            scale=ct.scale,
            slot_count=ct.slot_count,
        )

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.mul(a, a)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last prime; level drops by one (Section 2.5.2).

        All ciphertext components are stacked through one batched
        divide-and-round pass (they share the dropped limb's inverse
        NTT and the lift's forward NTT).
        """
        if ct.level == 0:
            raise ValueError("cannot rescale a level-0 ciphertext")
        last_prime = self._data_chain(ct.level)[-1]
        polys = [ct.c0, ct.c1] + ([] if ct.c2 is None else [ct.c2])
        primes = polys[0].primes
        if all(p.is_ntt and p.primes == primes for p in polys):
            stacked = self.basis.divide_round_last(
                np.stack([p.data for p in polys]), primes, is_ntt=True
            )
            divided = [
                RnsPolynomial(self.basis, primes[:-1], row, is_ntt=True)
                for row in stacked
            ]
        else:
            divided = [p.divide_and_round_by_last() for p in polys]
        return Ciphertext(
            c0=divided[0],
            c1=divided[1],
            c2=divided[2] if ct.c2 is not None else None,
            level=ct.level - 1,
            scale=ct.scale / last_prime,
            slot_count=ct.slot_count,
        )

    def level_down(self, ct: Ciphertext, target_level: int) -> Ciphertext:
        """Drop limbs without dividing (free level adjustment)."""
        if target_level > ct.level:
            raise ValueError("cannot raise level without bootstrapping")
        drop = ct.level - target_level
        if drop == 0:
            return ct
        return Ciphertext(
            c0=ct.c0.drop_limbs(drop),
            c1=ct.c1.drop_limbs(drop),
            c2=None if ct.c2 is None else ct.c2.drop_limbs(drop),
            level=target_level,
            scale=ct.scale,
            slot_count=ct.slot_count,
        )

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """HRot: cyclic rotation of slots "up" by ``steps`` (Section 2.5.3)."""
        steps %= self.slot_count
        if steps == 0:
            return ct
        exponent = self.encoder.rotation_exponent(steps)
        return self._apply_galois(ct, exponent)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self._apply_galois(ct, self.encoder.conjugation_exponent)

    def _apply_galois(self, ct: Ciphertext, exponent: int) -> Ciphertext:
        if ct.c2 is not None:
            raise ValueError("relinearize before rotating")
        key = self.galois_key(exponent, max_level=ct.level)
        p0, p1 = self._keyswitch(ct.c1, key, ct.level)
        return Ciphertext(
            c0=ct.c0.automorphism(exponent) + p0,
            c1=p1,
            level=ct.level,
            scale=ct.scale,
            slot_count=ct.slot_count,
        )

    def _ks_decompose(self, d: RnsPolynomial, level: int) -> np.ndarray:
        """Digit-decompose ``d`` for hybrid key switching (the hoistable
        part: one inverse NTT of ``d`` plus one batched forward NTT of
        every digit raised to the Q_l * P chain).

        With ks_alpha = 1 each digit is one centered limb; with grouped
        decomposition (ks_alpha > 1, dnum = ceil((level+1)/alpha)) each
        digit is the exact int64 CRT lift of its alpha limbs, all digits
        in one :meth:`RnsBasis.decompose_digits` pass, shrinking both the
        digit count and the forward-NTT batch.

        Returns an int64 array of shape ``(dnum, len(ks_chain), N)``
        in evaluation form.  The decomposition commutes with Galois
        automorphisms, so hoisted rotations reuse it across many keys.
        """
        ks_chain = self._ks_chain(level)
        num_limbs = level + 1
        alpha = self.params.ks_alpha
        d_coeff = d.to_coeff()
        if alpha == 1:
            src = d_coeff.data[:num_limbs]
            src_col = self.basis.moduli_column(d.primes[:num_limbs])
            centered = np.where(src > src_col // 2, src - src_col, src)
            # Stride-0 broadcast across the ks chain: the engine's twist
            # multiply materializes and reduces, so no explicit % pass here.
            shape = (num_limbs, len(ks_chain), centered.shape[-1])
            lifted = np.broadcast_to(centered[:, None, :], shape)
        else:
            lifted = self.basis.decompose_digits(
                d_coeff.data[:num_limbs], d.primes[:num_limbs], ks_chain, alpha
            )
        return self.basis.forward_chain(lifted, ks_chain)

    def _ks_inner(
        self,
        digits: np.ndarray,
        keys: Sequence[SwitchingKey],
        level: int,
        _max_chunk: Optional[int] = None,
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
        the accumulator.  ``_max_chunk`` caps the chunk (tests force the
        chunked fallback real parameter sets only hit with ~31-bit
        primes).  A compressed key used above its bound is a caller bug
        and fails loudly rather than silently dropping digits.
        """
        for key in keys:
            if not key.covers(level):
                raise ValueError(
                    f"switching key is compressed to level {key.max_level} "
                    f"but the key switch runs at level {level}; regenerate "
                    "the key (or raise its bound in the key manifest)"
                )
        ks_chain = self._ks_chain(level)
        num_digits = self._ks_num_digits(level)
        return kernels.ks_inner_stacked(
            digits,
            [key.chain_view(num_digits, level) for key in keys],
            self.params.num_special_primes,
            self.basis.moduli_column(ks_chain),
            kernels.lazy_reduction_chunk(max(ks_chain), _max_chunk),
        )

    def _ks_moddown(self, acc: np.ndarray, level: int):
        """Divide both accumulators by the special modulus P.

        ``acc`` is a (Galois-gathered) ``(2, ks_limbs, N)`` column of
        :meth:`_ks_inner`; both rows share one divide-and-round pass,
        whatever the number of special primes: inverse-transform the
        special rows, lift their centered value to Q_l, one forward NTT,
        subtract, multiply by P^{-1} (docs/hoisting.md).
        """
        ns = self.params.num_special_primes
        chain = self._ks_chain(level)
        acc = self.basis.divide_round_last(acc, chain, is_ntt=True, count=ns)
        return (
            RnsPolynomial(self.basis, chain[:-ns], acc[0], is_ntt=True),
            RnsPolynomial(self.basis, chain[:-ns], acc[1], is_ntt=True),
        )

    def _keyswitch(self, d: RnsPolynomial, key: SwitchingKey, level: int):
        """Hybrid key switch of ``sigma_t(d)`` at the given level, ``t``
        being the key's Galois element (``d`` itself for the relin key).

        Decomposes the UN-rotated d into digits, multiplies by the
        switching key over Q_l * P, Galois-gathers the accumulator, and
        divides by the special modulus P.  All stages are limb-batched;
        see :meth:`rotate_hoisted` for the variant that shares the
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

    def rotate_hoisted_slabs(
        self,
        ct: Ciphertext,
        steps_list: Iterable,
        _max_chunk: Optional[int] = None,
    ):
        """The hoisted key switch: Galois maps of ``ct`` left in the
        extended Q_l * P basis, yielded :data:`HOISTED_SLAB` offsets at a
        time — the one walk every hoisted consumer is built from.

        ``ct.c1`` is digit-decomposed ONCE (the digit tensor commutes
        with Galois permutations); the mod-down is deferred.  The
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
        bit-identical to a per-offset loop; ``_max_chunk`` forces the
        chunked fallback for tests.

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
        if ct.c2 is not None:
            raise ValueError("relinearize before rotating")
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
            digits = self._ks_decompose(ct.c1, level)
            c0 = ct.c0.to_ntt().data
            for start in range(0, len(nonzero), HOISTED_SLAB):
                offsets = nonzero[start : start + HOISTED_SLAB]
                num = len(offsets)
                exponents = [self.galois_offset_exponent(o) for o in offsets]
                keys = [self.galois_key(e, max_level=level) for e in exponents]
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
                        self._ks_inner(digits, keys, level, _max_chunk).reshape(
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
        _max_chunk: Optional[int] = None,
    ) -> Dict:
        """Every slab of :meth:`rotate_hoisted_slabs`, kept, as
        ``{offset: (rot0, acc)}``: ``rot0`` the transformed c0
        polynomial, ``acc`` its raw ``(2, ks_limbs, N)`` accumulator —
        views of the slabs.  Applying :meth:`_ks_moddown` to each
        ``acc`` reproduces :meth:`rotate_hoisted` (or the standalone
        :meth:`conjugate` key switch) bit-for-bit.
        """
        return {
            offset: (
                RnsPolynomial(self.basis, ct.c0.primes, rot0[:, i], is_ntt=True),
                acc[:, :, i],
            )
            for offsets, rot0, acc in self.rotate_hoisted_slabs(
                ct, steps_list, _max_chunk
            )
            for i, offset in enumerate(offsets)
        }

    def rotate_hoisted(self, ct: Ciphertext, steps_list: Iterable[int]) -> Dict[int, Ciphertext]:
        """Rotate one ciphertext by many step amounts, hoisting the
        key-switch digit decomposition (Section 3.3 "double hoisting").

        The expensive part of a rotation — inverse-transforming c1 and
        raising every digit to the Q_l * P basis — depends only on c1,
        not on the rotation amount, because digit decomposition commutes
        with Galois automorphisms.  It is computed once (in
        :meth:`rotate_hoisted_slabs`); each step then costs one inner
        product with its switching key, one evaluation-form permutation
        of the accumulator, and the mod-down.

        Returns ``{step: rotated ciphertext}``; step 0 maps to ``ct``.
        """
        outputs: Dict[int, Ciphertext] = {}
        unique_steps = {s % self.slot_count for s in steps_list}
        if 0 in unique_steps:
            outputs[0] = ct
        for steps, rot0, acc in self.rotate_hoisted_slabs(ct, unique_steps):
            for i, step in enumerate(steps):
                p0, p1 = self._ks_moddown(acc[:, :, i], ct.level)
                c0 = RnsPolynomial(self.basis, ct.c0.primes, rot0[:, i], is_ntt=True)
                outputs[step] = Ciphertext(
                    c0=c0 + p0,
                    c1=p1,
                    level=ct.level,
                    scale=ct.scale,
                    slot_count=ct.slot_count,
                )
        return outputs

    # ------------------------------------------------------------------
    # Bootstrapping (oracle; documented substitution)
    # ------------------------------------------------------------------
    def bootstrap(
        self, ct: Ciphertext, precision_bits: float = 20.0, range_slack: float = 1.5
    ) -> Ciphertext:
        """Refresh a ciphertext to level L_eff (paper Section 2.5.4).

        Substitution: full CKKS bootstrapping (CoeffToSlot, EvalMod,
        SlotToCoeff) is replaced by an oracle refresh that decrypts with
        the context's own secret key, re-encrypts at L_eff, and injects
        noise matching published bootstrap precision (~``precision_bits``
        bits relative to the input range, following Bossuat et al. [11]).
        The externally visible contract — level reset to L_eff, L_boot
        levels reserved out of L, bounded added error, and a large
        latency charged by the cost model — is exactly the paper's.
        Inputs must be in [-1, 1] (the range-estimation contract).
        """
        values = self.decrypt_decode(ct)
        max_abs = float(np.max(np.abs(values))) if values.size else 0.0
        if max_abs > range_slack:
            raise ValueError(
                f"bootstrap input out of range: max |slot| = {max_abs:.4f} > 1; "
                "range estimation should have scaled this down"
            )
        noise_std = 2.0 ** (-precision_bits)
        noisy = values + self.rng.normal(0.0, noise_std, values.shape)
        fresh = self.encode(noisy, level=self.params.effective_level)
        return self.encrypt(fresh)
