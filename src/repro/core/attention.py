"""Encrypted single-head self-attention: the paper's future-work layer.

The paper closes with "our high-level Python interface allows other
researchers to extend Orion to support new network layer types such as
self-attention".  This module is that extension, built from the same
primitives the rest of the reproduction uses:

- **Projections** (Q = W_q x, ...) are plaintext-weight matvecs via the
  diagonal method (Section 3) with the errorless scale discipline.
- **Scores** q_i . k_j are ciphertext-ciphertext inner products: one
  HMult followed by a rotate-and-sum tree, masked to slot zero and
  re-broadcast with a second rotation tree.
- **Softmax** is replaced by its FHE-friendly polynomial form: a
  Chebyshev exp on range-normalized scores, and the reciprocal of the
  exp-sum computed by a Chebyshev approximation of 1/x on a bounded
  interval (division does not exist in CKKS; bounded-interval inverses
  are the standard workaround).
- **Mixing** sum_j softmax_ij * v_j is one HMult per pair plus adds.

Everything runs against the generic :class:`repro.backend.FheBackend`
interface, so both the functional simulator and the exact toy backend
can execute it.  This is a proof-of-concept layer (per-token
ciphertexts, no cross-token packing) — the packing optimizations of
Section 4 applied to attention are genuinely future work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from repro.core.approx.chebyshev import ChebyshevPoly, chebyshev_fit
from repro.core.approx.evaluator import evaluate_chebyshev
from repro.core.packing.matvec import apply_fold_groups


# ---------------------------------------------------------------------------
# Generic encrypted building blocks
# ---------------------------------------------------------------------------
def _fold(backend, ct, shifts):
    """The rotate-and-sum ladder ``t -> t + rot(t, s)`` over ``shifts``,
    run in the hoisted groups the cost model picks at ``ct``'s level
    (:meth:`CostModel.fold_partition`); "# Rots" stays the ladder depth."""
    groups = backend.costs.fold_partition(backend.level_of(ct), len(shifts))
    return apply_fold_groups(backend, ct, shifts, groups)


def rotate_sum(backend, ct, width: int):
    """Fold the first ``width`` (a power of two) slots into slot zero.

    After the fold, slot 0 holds the sum of slots 0..width-1 (other
    slots hold rotated partial sums).  The log2(width)-deep rotation
    tree runs in hoisted groups (:func:`_fold`).
    """
    if width & (width - 1):
        raise ValueError("rotate_sum needs a power-of-two width")
    num_folds = int(math.log2(width)) if width > 1 else 0
    return _fold(backend, ct, tuple(1 << i for i in range(num_folds)))


def broadcast_slot0(backend, ct):
    """Replicate slot 0 into every slot (log2(n) rotations).

    The input must already be zero outside slot 0 (mask first).  Like
    :func:`rotate_sum`, the tree runs in hoisted groups.
    """
    n = backend.slot_count
    num_folds = int(math.log2(n)) if n > 1 else 0
    return _fold(backend, ct, tuple(n - (1 << i) for i in range(num_folds)))


def encrypted_inner_product(backend, a, b, width: int, post_factor: float = 1.0):
    """<a[:width], b[:width]> broadcast to every slot.

    Consumes two levels: one for the HMult, one for the slot-0 mask
    (which also folds in ``post_factor``, e.g. the 1/sqrt(d) attention
    temperature and the exp range normalization).
    """
    prod = backend.rescale(backend.mul(a, b))
    summed = rotate_sum(backend, prod, width)
    level = backend.level_of(summed)
    mask = np.zeros(backend.slot_count)
    mask[0] = post_factor
    prime = backend.params.data_primes[level]
    masked = backend.mul_plain(summed, backend.encode(mask, level, Fraction(prime)))
    return broadcast_slot0(backend, backend.rescale(masked))


def square_matvec(backend, ct, matrix: np.ndarray):
    """Dense diagonal-method matvec with plaintext weights (one level).

    The matrix must be square (d x d with d <= slot count); diagonals
    are encoded at the current rescale prime so the output scale equals
    the input scale exactly (the errorless discipline of Section 6).
    """
    d = matrix.shape[0]
    if matrix.shape != (d, d):
        raise ValueError("square_matvec needs a square matrix")
    level = backend.level_of(ct)
    n = backend.slot_count
    prime = backend.params.data_primes[level]
    indices = np.arange(d)
    acc = None
    for k in range(d):
        diagonal = matrix[indices, (indices + k) % d]
        if np.max(np.abs(diagonal)) < 1e-15:
            continue
        # The ciphertext rotates over all n slots, not d, so a diagonal
        # whose index wraps past d splits into two rotations: positions
        # i < d-k read the rotate-by-k copy, the wrapped tail positions
        # read the rotate-by-(k-d) copy (Gazelle's wraparound split).
        for rotation, live in ((k, indices < d - k), (k - d, indices >= d - k)):
            if not np.any(np.abs(diagonal[live]) > 1e-15):
                continue
            padded = np.zeros(n)
            padded[:d][live] = diagonal[live]
            plaintext = backend.encode(padded, level, Fraction(prime))
            term = backend.mul_plain(backend.rotate(ct, rotation % n), plaintext)
            acc = term if acc is None else backend.add(acc, term)
    return backend.rescale(acc)


def chebyshev_inverse(lo: float, hi: float, degree: int = 15) -> ChebyshevPoly:
    """Chebyshev fit of 1/x on [lo, hi], expressed on [-1, 1].

    The caller maps its operand S to x = (2S - lo - hi) / (hi - lo)
    before evaluating.  Convergence factor per degree is
    (sqrt(r) - 1) / (sqrt(r) + 1) with r = hi/lo, so tight bounds pay
    off exponentially.
    """
    if lo <= 0:
        raise ValueError("inverse needs a positive interval")
    half_span = (hi - lo) / 2.0
    center = (hi + lo) / 2.0
    return chebyshev_fit(lambda x: 1.0 / (center + half_span * np.asarray(x)), degree)


def affine_to_unit(backend, ct, lo: float, hi: float):
    """Map slot values from [lo, hi] to [-1, 1] (one level)."""
    level = backend.level_of(ct)
    prime = backend.params.data_primes[level]
    gain = 2.0 / (hi - lo)
    pt_gain = backend.encode(
        np.full(backend.slot_count, gain), level, Fraction(prime)
    )
    scaled = backend.rescale(backend.mul_plain(ct, pt_gain))
    offset = -(hi + lo) / (hi - lo)
    pt_offset = backend.encode(
        np.full(backend.slot_count, offset),
        backend.level_of(scaled),
        backend.scale_of(scaled),
    )
    return backend.add_plain(scaled, pt_offset)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AttentionConfig:
    """Hyper-parameters of the polynomial softmax.

    Attributes:
        exp_range: scores are clipped (by construction: inputs in
            [-1, 1] and row-normalized weights keep them bounded) to
            [-exp_range, exp_range] before the exp approximation.
        exp_degree: Chebyshev degree for exp(exp_range * x).
        inverse_degree: Chebyshev degree for 1/x on the exp-sum range.
    """

    exp_range: float = 1.0
    exp_degree: int = 15
    inverse_degree: int = 15


class EncryptedAttention:
    """Single-head scaled dot-product attention over token ciphertexts.

    Args:
        backend: any :class:`repro.backend.FheBackend`.
        wq / wk / wv: (d, d) projection weight matrices (cleartext, as
            in the paper's threat model).
        config: polynomial softmax settings.
    """

    def __init__(self, backend, wq, wk, wv, config: AttentionConfig = AttentionConfig()):
        self.backend = backend
        self.wq = np.asarray(wq, dtype=np.float64)
        self.wk = np.asarray(wk, dtype=np.float64)
        self.wv = np.asarray(wv, dtype=np.float64)
        self.dim = self.wq.shape[0]
        if self.wq.shape != (self.dim, self.dim) or self.wk.shape != self.wq.shape \
                or self.wv.shape != self.wq.shape:
            raise ValueError("projection matrices must share one square shape")
        if self.dim & (self.dim - 1):
            raise ValueError("embedding dim must be a power of two (rotate_sum)")
        self.config = config
        self.exp_poly = chebyshev_fit(
            lambda x: np.exp(config.exp_range * np.asarray(x)), config.exp_degree
        )

    # -- cleartext references ------------------------------------------------
    def reference(self, tokens: np.ndarray) -> np.ndarray:
        """Exact softmax attention (for precision accounting)."""
        q = tokens @ self.wq.T
        k = tokens @ self.wk.T
        v = tokens @ self.wv.T
        scores = (q @ k.T) / math.sqrt(self.dim)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        return weights @ v

    def polynomial_reference(self, tokens: np.ndarray) -> np.ndarray:
        """Cleartext evaluation of the *polynomial* softmax (the target
        the encrypted computation should match bit-for-bit-ish)."""
        q = tokens @ self.wq.T
        k = tokens @ self.wk.T
        v = tokens @ self.wv.T
        scores = (q @ k.T) / (math.sqrt(self.dim) * self.config.exp_range)
        exps = self.exp_poly(scores)
        lo, hi = self._sum_bounds(len(tokens))
        inv_poly = chebyshev_inverse(lo, hi, self.config.inverse_degree)
        sums = exps.sum(axis=1)
        inverse = inv_poly((2.0 * sums - lo - hi) / (hi - lo))
        return (exps * inverse[:, None]) @ v

    # -- encrypted path --------------------------------------------------------
    def _sum_bounds(self, seq_len: int):
        spread = math.e ** self.config.exp_range
        return seq_len / spread * 0.9, seq_len * spread * 1.1

    def __call__(self, token_cts: Sequence) -> List:
        """Attend over per-token ciphertexts (embedding in slots 0..d-1).

        Returns one output ciphertext per token.  Level budget: roughly
        4 + exp-depth + inverse-depth (about 16 levels at the default
        degrees), so encrypt inputs near the top of the modulus chain.
        """
        backend = self.backend
        seq_len = len(token_cts)
        queries = [square_matvec(backend, ct, self.wq) for ct in token_cts]
        keys = [square_matvec(backend, ct, self.wk) for ct in token_cts]
        values = [square_matvec(backend, ct, self.wv) for ct in token_cts]

        temperature = 1.0 / (math.sqrt(self.dim) * self.config.exp_range)
        exps = [
            [
                evaluate_chebyshev(
                    backend,
                    encrypted_inner_product(
                        backend, queries[i], keys[j], self.dim, temperature
                    ),
                    self.exp_poly,
                )
                for j in range(seq_len)
            ]
            for i in range(seq_len)
        ]

        lo, hi = self._sum_bounds(seq_len)
        inv_poly = chebyshev_inverse(lo, hi, self.config.inverse_degree)
        outputs = []
        for i in range(seq_len):
            row_sum = exps[i][0]
            for j in range(1, seq_len):
                row_sum = backend.add(row_sum, exps[i][j])
            inverse = evaluate_chebyshev(
                backend, affine_to_unit(backend, row_sum, lo, hi), inv_poly
            )
            acc = None
            for j in range(seq_len):
                weight_level = min(
                    backend.level_of(exps[i][j]), backend.level_of(inverse)
                )
                weight = backend.rescale(
                    backend.mul(
                        backend.level_down(exps[i][j], weight_level),
                        backend.level_down(inverse, weight_level),
                    )
                )
                mix_level = min(
                    backend.level_of(weight), backend.level_of(values[j])
                )
                term = backend.rescale(
                    backend.mul(
                        backend.level_down(weight, mix_level),
                        backend.level_down(values[j], mix_level),
                    )
                )
                acc = term if acc is None else backend.add(acc, term)
            outputs.append(acc)
        return outputs
