"""Canonical-embedding encoding and decoding (paper Section 2.2).

Encoding maps a cleartext vector m in C^{N/2} to a plaintext polynomial
[m] whose evaluations at the primitive 2N-th roots of unity equal the
slot values: an inverse FFT, a multiplication by the scaling factor
Delta, and rounding.  Cyclic slot rotation corresponds to the Galois
automorphism X -> X^5 (the powers of 5 enumerate half the odd residues
mod 2N), which is why the slot order below follows 5^j mod 2N.

Implementation: evaluating m(X) at the odd 2N-th roots w^(2k+1)
(w = exp(i*pi/N)) equals the length-N FFT of the "twisted" coefficients
c_j * w^j.  Both directions are therefore O(N log N) numpy FFTs.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class SlotEncoder:
    """Encode/decode between slot vectors and integer coefficient vectors.

    The class is parameterized only by the ring degree; scaling and RNS
    reduction are applied by the caller (:class:`repro.ckks.context.CkksContext`).
    """

    def __init__(self, ring_degree: int):
        self.ring_degree = ring_degree
        self.slot_count = ring_degree // 2
        n = ring_degree
        two_n = 2 * n
        # Twist factors w^j, w = primitive 2N-th root of unity.
        self._twist = np.exp(1j * np.pi * np.arange(n) / n)
        # Slot j lives at the evaluation point with exponent 5^j mod 2N;
        # its conjugate partner at exponent -5^j mod 2N.
        exps = np.empty(self.slot_count, dtype=np.int64)
        e = 1
        for j in range(self.slot_count):
            exps[j] = e
            e = (e * 5) % two_n
        self._slot_exponents = exps
        # np.fft.fft uses kernel e^{-2*pi*i*jk/N}, so FFT bin k holds the
        # evaluation at odd exponent (1 - 2k) mod 2N.  Invert that map.
        self._slot_bins = (((1 - exps) // 2) % n).astype(np.int64)
        conj_exps = (two_n - exps) % two_n
        self._conj_bins = (((1 - conj_exps) // 2) % n).astype(np.int64)

    # -- decode: coefficients -> slots ----------------------------------
    def coeffs_to_slots(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial at the slot points.

        Args:
            coeffs: real (or integer) coefficient vector of length N.

        Returns:
            complex slot vector of length N/2.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        evals = np.fft.fft(coeffs * self._twist)
        return evals[self._slot_bins]

    # -- encode: slots -> coefficients ----------------------------------
    def slots_to_coeffs(self, slots: np.ndarray) -> np.ndarray:
        """Interpolate real coefficients hitting the given slot values.

        The conjugate-symmetric completion makes the coefficients real.
        Returns unrounded float64 coefficients; the caller multiplies by
        Delta and rounds.  Leading dimensions are a batch: each row is
        transformed exactly as it would be alone.
        """
        slots = np.asarray(slots, dtype=np.complex128)
        if slots.shape[-1:] != (self.slot_count,):
            raise ValueError(
                f"expected {self.slot_count} slots, got {slots.shape}"
            )
        evals = np.zeros(slots.shape[:-1] + (self.ring_degree,), dtype=np.complex128)
        evals[..., self._slot_bins] = slots
        evals[..., self._conj_bins] = np.conj(slots)
        coeffs = np.fft.ifft(evals) * np.conj(self._twist)
        return coeffs.real

    # -- rotation bookkeeping --------------------------------------------
    def rotation_exponent(self, steps: int) -> int:
        """Galois exponent 5^steps mod 2N realizing rotation by ``steps``."""
        two_n = 2 * self.ring_degree
        return pow(5, steps % self.slot_count, two_n)

    @property
    def conjugation_exponent(self) -> int:
        return 2 * self.ring_degree - 1


_ENCODER_CACHE: Dict[int, SlotEncoder] = {}


def get_encoder(ring_degree: int) -> SlotEncoder:
    """Shared encoder instances (FFT twiddle tables are reusable)."""
    if ring_degree not in _ENCODER_CACHE:
        _ENCODER_CACHE[ring_degree] = SlotEncoder(ring_degree)
    return _ENCODER_CACHE[ring_degree]
