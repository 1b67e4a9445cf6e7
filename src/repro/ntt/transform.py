"""Vectorized iterative negacyclic NTT.

The transform works in Z_q[X]/(X^N + 1) with q = 1 (mod 2N), using a
primitive 2N-th root of unity psi.  Multiplying coefficients by powers
of psi before a cyclic NTT ("twisting") turns cyclic convolution into
negacyclic convolution, which is exactly reduction modulo X^N + 1.

Primes are kept below 2^31 so that a product of two residues fits in an
int64 and the butterflies vectorize cleanly in numpy.
"""

from __future__ import annotations

import numpy as np

from repro.utils.intmath import int_log2, mod_inverse, mod_pow

_MAX_PRIME_BITS = 31


def _find_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of Z_q (q prime)."""
    order = q - 1
    factors = []
    n = order
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for g in range(2, q):
        if all(mod_pow(g, order // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root found for {q}")


class NttContext:
    """Precomputed tables for the negacyclic NTT modulo one prime.

    Attributes:
        q: the prime modulus (q = 1 mod 2N, q < 2^31).
        n: ring degree (power of two).
    """

    def __init__(self, q: int, n: int):
        if q.bit_length() > _MAX_PRIME_BITS:
            raise ValueError(
                f"prime {q} too large: must fit {_MAX_PRIME_BITS} bits so "
                "products fit in int64"
            )
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"{q} != 1 mod 2N for N={n}")
        self.q = q
        self.n = n
        self._log_n = int_log2(n)

        g = _find_primitive_root(q)
        psi = mod_pow(g, (q - 1) // (2 * n), q)  # primitive 2N-th root
        self.psi = psi
        self.psi_inv = mod_inverse(psi, q)
        omega = (psi * psi) % q  # primitive N-th root
        self.omega = omega
        self.omega_inv = mod_inverse(omega, q)
        self.n_inv = mod_inverse(n, q)

        # Twisting factors psi^i and their inverses.
        self._twist = self._powers(psi, n)
        self._twist_inv = self._powers(self.psi_inv, n)
        # Per-stage twiddle tables for the cyclic FFT.
        self._stage_twiddles = self._build_stage_twiddles(omega)
        self._stage_twiddles_inv = self._build_stage_twiddles(self.omega_inv)

    def _powers(self, base: int, count: int) -> np.ndarray:
        """``base^0 .. base^(count-1) mod q`` by doubling: the filled
        prefix times ``base^filled`` is the next block (products of two
        residues < 2^31 fit int64)."""
        out = np.empty(count, dtype=np.int64)
        out[:1] = 1
        filled, step = 1, base % self.q
        while filled < count:
            block = out[filled : 2 * filled]
            np.multiply(out[: len(block)], step, out=block)
            block %= self.q
            filled += len(block)
            step = step * step % self.q
        return out

    def _build_stage_twiddles(self, omega: int):
        """Twiddles omega^(n/(2*half) * j) for each stage's half-size."""
        tables = []
        half = 1
        while half < self.n:
            w = mod_pow(omega, self.n // (2 * half), self.q)
            tables.append(self._powers(w, half))
            half *= 2
        return tables

    # -- core transforms -----------------------------------------------
    def _fft(self, values: np.ndarray, tables) -> np.ndarray:
        """In-place style iterative DIT cyclic FFT over Z_q (vectorized)."""
        q = self.q
        n = self.n
        # Bit-reverse reorder (the fancy-index gather already copies).
        a = values[..., _bit_reverse_cache(n)]
        half = 1
        stage = 0
        while half < n:
            tw = tables[stage]
            span = half * 2
            blocks = a.reshape(a.shape[:-1] + (n // span, span))
            left = blocks[..., :half].copy()
            right = (blocks[..., half:] * tw) % q
            blocks[..., :half] = (left + right) % q
            blocks[..., half:] = (left - right) % q
            a = blocks.reshape(a.shape)
            half = span
            stage += 1
        return a

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient -> evaluation representation (negacyclic).

        Accepts arrays of shape (..., N); transforms along the last axis.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64) % self.q
        twisted = (coeffs * self._twist) % self.q
        return self._fft(twisted, self._stage_twiddles)

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Evaluation -> coefficient representation (negacyclic)."""
        evals = np.asarray(evals, dtype=np.int64) % self.q
        coeffs = self._fft(evals, self._stage_twiddles_inv)
        coeffs = (coeffs * self.n_inv) % self.q
        return (coeffs * self._twist_inv) % self.q

    def multiply(self, a_coeffs: np.ndarray, b_coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic product of two coefficient-form polynomials."""
        fa = self.forward(a_coeffs)
        fb = self.forward(b_coeffs)
        return self.inverse((fa * fb) % self.q)


_BITREV_CACHE = {}


def _bit_reverse_cache(n: int) -> np.ndarray:
    if n not in _BITREV_CACHE:
        from repro.utils.intmath import bit_reverse_indices

        _BITREV_CACHE[n] = bit_reverse_indices(n)
    return _BITREV_CACHE[n]


_GALOIS_EVAL_CACHE = {}


def galois_eval_permutation(n: int, exponent: int) -> np.ndarray:
    """Slot-index permutation realizing X -> X^t on evaluation-form data.

    Forward-transform bin ``k`` holds the evaluation of the polynomial
    at ``psi^(2k+1)``, so the Galois map sigma_t sends bin ``k`` to the
    value previously held at the bin whose odd exponent is
    ``t * (2k+1) mod 2N``.  Applying sigma_t in NTT form is therefore a
    pure gather ``evals[perm]`` — no transforms and no sign flips.
    Cached per ``(n, t)`` like the bit-reversal tables.
    """
    if exponent % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    key = (n, exponent % (2 * n))
    perm = _GALOIS_EVAL_CACHE.get(key)
    if perm is None:
        k = np.arange(n, dtype=np.int64)
        perm = (((key[1] * (2 * k + 1)) % (2 * n)) - 1) // 2
        _GALOIS_EVAL_CACHE[key] = perm
    return perm
