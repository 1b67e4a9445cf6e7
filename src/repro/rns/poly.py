"""RNS polynomials: the client's key material.

An :class:`RnsPolynomial` holds one residue row per active prime and a
flag saying whether rows are in coefficient or NTT (evaluation) form.
The client builds its secret, public pair and switching-key sources
from them (:class:`repro.ckks.context.CkksContext`), and
:attr:`repro.ckks.keys.SwitchingKey.pairs` hands a key back as them;
plaintexts and ciphertexts are bare residue tensors instead
(:mod:`repro.ckks.ciphertext`), which the evaluator reads through
:class:`RnsBasis` directly.

Pointwise ring operations act limb-wise.  Representation changes run
through the basis's :class:`repro.ntt.NttChainEngine` (all limbs in one
vectorized pass), and a Galois automorphism is a cached slot-index
gather on evaluation-form data.  No operation here allocates an
object-dtype (Python bigint) array except the explicit
``to_bigint_coeffs`` / ``from_bigint_coeffs`` conversions.
"""

from __future__ import annotations

import numpy as np

from repro.ntt import galois_eval_permutation
from repro.rns.basis import RnsBasis

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
        """Apply the Galois map X -> X^exponent (exponent odd mod 2N) to
        evaluation-form data: a cached slot-index permutation, one
        gather and no NTT round-trips (paper Section 2.5.3).  Keygen
        rotates the secret with it."""
        if not self.is_ntt:
            raise ValueError("apply automorphisms in evaluation form")
        perm = galois_eval_permutation(self.basis.ring_degree, exponent)
        return RnsPolynomial(
            self.basis, self.primes, np.take(self.data, perm, axis=-1), is_ntt=True
        )

    def __repr__(self) -> str:
        form = "ntt" if self.is_ntt else "coeff"
        return f"RnsPolynomial(limbs={len(self.primes)}, N={self.basis.ring_degree}, {form})"
