"""CKKS datatypes: plaintexts and ciphertexts (paper Section 2.1).

A ciphertext is the pair (c0, c1) in R_Q x R_Q held as ONE int64
``(2, level + 1, N)`` evaluation-form residue tensor, a plaintext one
``(level + 1, N)`` tensor (a constant's one ``(level + 1, 1)`` column):
limb row ``i`` is the residue modulo the ``i``-th data prime, so a
level-l value lives on the first l+1 primes (paper Section 2.4).  There
is no degree-2 ciphertext: HMult's tensor product is a raw
``(3, level + 1, N)`` array inside the evaluator, relinearized before it
becomes a :class:`Ciphertext` again (Section 2.5).

Both carry the metadata the compiler reasons about — multiplicative
level and an *exact* scaling factor (a ``fractions.Fraction``, so the
errorless scale-management invariant "scale is precisely Delta between
layers" can be asserted, not approximated).  Both are values: frozen,
with a tensor that is read-only once constructed, so no operation can
alias an operand into its result and later write through it; a new
label is a new object (``dataclasses.replace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _check_residues(data: np.ndarray, shape: tuple, what: str) -> None:
    if data.dtype != np.int64:
        raise TypeError(f"{what} residues are int64, got {data.dtype}")
    if data.shape[:-1] != shape or not data.flags.c_contiguous:
        raise ValueError(
            f"{what} residues must be a C-contiguous {shape + ('N',)} array, "
            f"got {data.shape}"
        )
    data.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Plaintext:
    """An encoded (but unencrypted) polynomial [m].

    A constant polynomial — a scalar in every slot
    (:meth:`repro.backend.interface.FheBackend.constant`) — holds the
    same residue at every evaluation point, so its ``data`` is the
    ``(level + 1, 1)`` column of those residues, which the evaluator's
    plaintext ops broadcast over the ring: ``level + 1`` words where the
    full form takes ``(level + 1) * N`` (12.5 MiB at N = 2^16, L = 24).

    Attributes:
        data: int64 ``(level + 1, N)`` evaluation-form residues, or the
            ``(level + 1, 1)`` column of a constant.
        level: multiplicative level (limb count - 1).
        scale: exact scaling factor used during encoding.
        slot_count: number of meaningful slots packed.
    """

    data: np.ndarray
    level: int
    scale: Fraction
    slot_count: int

    def __post_init__(self):
        _check_residues(self.data, (self.level + 1,), "a plaintext's")


@dataclass(frozen=True, eq=False)
class Ciphertext:
    """An RLWE ciphertext [[m]] = (c0, c1) in R_Q x R_Q.

    ``data[0]`` is c0 and ``data[1]`` is c1, both in evaluation form.
    ``level`` counts remaining rescalings; a ciphertext at level l has
    l+1 active limbs (paper Section 2.4).
    """

    data: np.ndarray
    level: int
    scale: Fraction
    slot_count: int

    def __post_init__(self):
        _check_residues(self.data, (2, self.level + 1), "a ciphertext's")

    def __repr__(self) -> str:
        log_scale = int(self.scale).bit_length() - 1 if self.scale >= 1 else 0
        return f"Ciphertext(level={self.level}, scale~2^{log_scale})"
