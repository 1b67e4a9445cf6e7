"""CKKS datatypes: plaintexts and ciphertexts (paper Section 2.1).

Both carry the metadata the compiler reasons about — multiplicative
level and an *exact* scaling factor (a ``fractions.Fraction``, so the
errorless scale-management invariant "scale is precisely Delta between
layers" can be asserted, not approximated).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.rns.poly import RnsPolynomial


@dataclass
class Plaintext:
    """An encoded (but unencrypted) polynomial [m].

    Attributes:
        poly: the RNS polynomial encoding of the cleartext.
        level: multiplicative level (limb count - 1).
        scale: exact scaling factor used during encoding.
        slot_count: number of meaningful slots packed.
    """

    poly: RnsPolynomial
    level: int
    scale: Fraction
    slot_count: int


@dataclass
class Ciphertext:
    """An RLWE ciphertext [[m]] = (c0, c1) in R_Q x R_Q.

    Degree-2 ciphertexts (after HMult, before relinearization) carry the
    extra ``c2`` component.  ``level`` counts remaining rescalings; a
    ciphertext at level l has l+1 active limbs (paper Section 2.4).
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    level: int
    scale: Fraction
    slot_count: int
    c2: Optional[RnsPolynomial] = None

    def __repr__(self) -> str:
        deg = 2 if self.c2 is not None else 1
        log_scale = int(self.scale).bit_length() - 1 if self.scale >= 1 else 0
        return f"Ciphertext(level={self.level}, scale~2^{log_scale}, degree={deg})"
