"""RNS polynomials: the working datatype of the toy CKKS backend.

An :class:`RnsPolynomial` holds one residue row per active prime and a
flag saying whether rows are in coefficient or NTT (evaluation) form.
Pointwise ring operations act limb-wise; rescaling and mod-down move
between levels of the modulus chain (paper Sections 2.4-2.5).

Hot-path design: representation changes run through the basis's
:class:`repro.ntt.NttChainEngine` (all limbs in one vectorized pass),
Galois automorphisms on evaluation-form data are a cached slot-index
gather (no transforms), rescaling inverse-transforms only the dropped
limb, and basis extension uses fast int64 conversion.  No operation
here allocates an object-dtype (Python bigint) array except the
explicit ``to_bigint_coeffs`` / ``from_bigint_coeffs`` conversions.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.ntt import galois_eval_permutation
from repro.rns.basis import RnsBasis

ScalarPerLimb = Union[int, Sequence[int]]


class RnsPolynomial:
    """A polynomial in R_{Q} = Z_Q[X]/(X^N + 1), RNS-decomposed.

    Attributes:
        basis: the owning :class:`RnsBasis`.
        primes: the active prime chain for this polynomial (a subset of
            the basis chain: some prefix of data primes, optionally
            followed by the special primes during key switching).
        data: int64 array of shape (len(primes), N).
        is_ntt: True when rows are in evaluation (NTT) representation.
    """

    __slots__ = ("basis", "primes", "data", "is_ntt")

    def __init__(self, basis: RnsBasis, primes, data: np.ndarray, is_ntt: bool):
        self.basis = basis
        self.primes = tuple(primes)
        self.data = data
        self.is_ntt = is_ntt
        if data.shape != (len(self.primes), basis.ring_degree):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"({len(self.primes)}, {basis.ring_degree})"
            )

    @property
    def _moduli(self) -> np.ndarray:
        """Cached ``(L, 1)`` moduli column for broadcasting."""
        return self.basis.moduli_column(self.primes)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_bigint_coeffs(
        cls, basis: RnsBasis, primes, coeffs: np.ndarray, to_ntt: bool = True
    ) -> "RnsPolynomial":
        """Build from (possibly huge) integer coefficients."""
        data = basis.reduce_bigints(np.asarray(coeffs, dtype=object), primes)
        poly = cls(basis, primes, data, is_ntt=False)
        return poly.to_ntt() if to_ntt else poly

    @classmethod
    def zero(cls, basis: RnsBasis, primes, is_ntt: bool = True) -> "RnsPolynomial":
        data = np.zeros((len(tuple(primes)), basis.ring_degree), dtype=np.int64)
        return cls(basis, primes, data, is_ntt=is_ntt)

    # -- representation changes -------------------------------------------
    def to_ntt(self) -> "RnsPolynomial":
        if self.is_ntt:
            return self
        data = self.basis.forward_chain(self.data, self.primes)
        return RnsPolynomial(self.basis, self.primes, data, is_ntt=True)

    def to_coeff(self) -> "RnsPolynomial":
        if not self.is_ntt:
            return self
        data = self.basis.inverse_chain(self.data, self.primes)
        return RnsPolynomial(self.basis, self.primes, data, is_ntt=False)

    def to_bigint_coeffs(self) -> np.ndarray:
        """Centered big-integer coefficients (exact CRT)."""
        coeff = self.to_coeff()
        return self.basis.crt_reconstruct(coeff.data, coeff.primes)

    # -- ring operations ---------------------------------------------------
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.primes != other.primes:
            raise ValueError(
                f"prime chains differ: {len(self.primes)} vs {len(other.primes)} limbs"
            )
        if self.is_ntt != other.is_ntt:
            raise ValueError("operands must be in the same representation")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = (self.data + other.data) % self._moduli
        return RnsPolynomial(self.basis, self.primes, data, self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = (self.data - other.data) % self._moduli
        return RnsPolynomial(self.basis, self.primes, data, self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        data = (-self.data) % self._moduli
        return RnsPolynomial(self.basis, self.primes, data, self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic product; both operands must be in NTT form."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ValueError("multiply polynomials in NTT form")
        data = (self.data * other.data) % self._moduli
        return RnsPolynomial(self.basis, self.primes, data, is_ntt=True)

    # -- automorphisms -------------------------------------------------------
    def automorphism(self, exponent: int) -> "RnsPolynomial":
        """Apply the Galois map X -> X^exponent (exponent odd mod 2N).

        Used for slot rotations (exponent = 5^k) and conjugation
        (exponent = 2N - 1); see paper Section 2.5.3.  On evaluation-form
        data this is a cached slot-index permutation (one gather, no NTT
        round-trips); on coefficient-form data it is the signed
        coefficient permutation.
        """
        n = self.basis.ring_degree
        two_n = 2 * n
        if exponent % 2 == 0:
            raise ValueError("automorphism exponent must be odd")
        exponent %= two_n
        if self.is_ntt:
            perm = galois_eval_permutation(n, exponent)
            return RnsPolynomial(
                self.basis, self.primes, np.take(self.data, perm, axis=-1), is_ntt=True
            )
        src = np.arange(n, dtype=np.int64)
        dest = (src * exponent) % two_n
        sign_flip = dest >= n
        dest = np.where(sign_flip, dest - n, dest)
        signed = np.where(sign_flip[None, :], -self.data, self.data)
        out = np.zeros_like(self.data)
        out[:, dest] = signed
        out %= self._moduli
        return RnsPolynomial(self.basis, self.primes, out, is_ntt=False)

    # -- level movement ---------------------------------------------------
    def drop_limbs(self, count: int = 1) -> "RnsPolynomial":
        """Forget the last ``count`` limbs without dividing (mod-reduce)."""
        if count <= 0:
            return self
        if count >= len(self.primes):
            raise ValueError("cannot drop all limbs")
        return RnsPolynomial(
            self.basis, self.primes[:-count], self.data[:-count].copy(), self.is_ntt
        )

    def divide_and_round_by_last(self) -> "RnsPolynomial":
        """Divide by the last prime in the chain and round (exactly).

        This is the core of both CKKS rescaling (divide by q_l, paper
        Section 2.5.2) and the key-switch mod-down (divide by the special
        prime P).  Computes round(x / q_last) limb-wise:
        (x_i - [x]_{q_last}) * q_last^{-1} mod q_i, with a centered lift
        of [x]_{q_last} so the result is a proper rounding.

        Evaluation-form inputs stay in evaluation form: only the dropped
        limb is inverse-transformed, its centered lift is re-transformed
        onto the remaining limbs in one batched pass, and the division
        happens pointwise — no full NTT round-trip.  The tensor core
        lives in :meth:`RnsBasis.divide_round_last` so rescaling can
        batch (c0, c1) pairs through it in one call.
        """
        data = self.basis.divide_round_last(self.data, self.primes, self.is_ntt)
        return RnsPolynomial(self.basis, self.primes[:-1], data, self.is_ntt)

    def __repr__(self) -> str:
        form = "ntt" if self.is_ntt else "coeff"
        return f"RnsPolynomial(limbs={len(self.primes)}, N={self.basis.ring_degree}, {form})"
