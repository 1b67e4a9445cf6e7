"""Seeded randomness for reproducible keys, noise, and datasets."""

from __future__ import annotations

import numpy as np


class SeededRng:
    """A thin wrapper over ``numpy.random.Generator`` with crypto helpers.

    All randomness in the repository flows through instances of this
    class so that every experiment is reproducible from a single seed.
    This is *not* a cryptographically secure RNG; the toy backend is a
    functional reference, not a deployment artifact.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    # -- generic draws -------------------------------------------------
    def uniform_mod(self, modulus: int, shape) -> np.ndarray:
        """Uniform integers in [0, modulus) as int64."""
        return self._gen.integers(0, modulus, size=shape, dtype=np.int64)

    def gaussian(self, sigma: float, shape) -> np.ndarray:
        """Rounded discrete Gaussian used for RLWE noise."""
        return np.rint(self._gen.normal(0.0, sigma, size=shape)).astype(np.int64)

    def ternary(self, shape, hamming_fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Ternary secret in {-1, 0, 1} with given nonzero fraction."""
        mask = self._gen.random(shape) < hamming_fraction
        signs = self._gen.integers(0, 2, size=shape, dtype=np.int64) * 2 - 1
        return np.where(mask, signs, 0).astype(np.int64)

    def sparse_ternary(self, length: int, hamming_weight: int) -> np.ndarray:
        """Ternary secret with *exactly* ``hamming_weight`` nonzeros.

        Sparse secrets bound the modulus-raise overflow polynomial I by
        ||s||_1 / 2 + 1, which is what makes the EvalMod sine window of
        CKKS bootstrapping tractable (Cheon et al.; cf. Bossuat et al.
        [11] for the non-sparse generalization).
        """
        if not 0 < hamming_weight <= length:
            raise ValueError(
                f"hamming weight {hamming_weight} not in (0, {length}]"
            )
        secret = np.zeros(length, dtype=np.int64)
        support = self._gen.permutation(length)[:hamming_weight]
        signs = self._gen.integers(0, 2, size=hamming_weight, dtype=np.int64) * 2 - 1
        secret[support] = signs
        return secret

    def normal(self, loc: float, scale: float, shape) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape)

    def bytes(self, length: int) -> bytes:
        """Draw ``length`` random bytes (PRG seeds for expandable keys)."""
        return self._gen.bytes(length)

    def get_state(self) -> dict:
        """Snapshot the underlying bit-generator state (a plain dict),
        e.g. to check that a refused operation drew no randomness."""
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        """Resume the stream from a :meth:`get_state` snapshot: the draws
        that follow are the ones that followed the snapshot."""
        self._gen.bit_generator.state = state
