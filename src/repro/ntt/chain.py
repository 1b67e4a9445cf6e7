"""Limb-batched negacyclic NTT across a whole RNS prime chain.

:class:`NttChainEngine` stacks the per-prime twiddle/twist tables of
:class:`repro.ntt.transform.NttContext` into ``(K, ...)`` arrays so that
an entire ``(L, N)`` residue matrix (or a ``(D, L, N)`` stack of digit
matrices) moves through every butterfly stage in a single vectorized
numpy pass, instead of one Python-level transform per limb.

Butterflies are fully lazy: each stage performs exactly one modular
reduction (the twiddle product, truncated ``np.fmod`` — any congruent
value with ``|t| < q`` serves, and floor-``%`` on mixed-sign int64 costs
~2.5x more) plus one add and one subtract, letting the signed residues
drift by +-q per stage (``|t| < q`` under either reduction, so the
bound is unchanged).  A growth budget derived from ``q_max^2`` bounds
how many stages fit before a product could overflow int64 — with the
< 2^31 primes :class:`NttContext` admits the budget is always >= 2, and
with the <= 29-bit primes the toy parameter sets use it exceeds 30
stages, so transforms up to N = 2^30 run with a single trailing
canonicalization and no per-stage corrections at all.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.ntt.transform import NttContext, _bit_reverse_cache


class _ChainTables(NamedTuple):
    """Tables for one subset (row selection) of the prime chain."""

    q: np.ndarray  # (K, 1) moduli column
    q3: np.ndarray  # (K, 1, 1) moduli for butterfly broadcasting
    twist: np.ndarray  # (K, N) forward twist psi^i
    twist_inv_n: np.ndarray  # (K, N) fused psi^-i / N for the inverse
    stages: List[np.ndarray]  # per-stage (K, 1, half) forward twiddles
    stages_inv: List[np.ndarray]  # per-stage (K, 1, half) inverse twiddles


class NttChainEngine:
    """Chain-level negacyclic NTT shared by all limbs of an RNS basis.

    Args:
        contexts: one :class:`NttContext` per prime, in chain order.
            Their precomputed tables are stacked; nothing is recomputed.

    Transforms accept arrays of shape ``(..., K, N)`` where ``K`` equals
    the number of selected rows and the transform runs along the last
    axis; any leading dimensions are batched for free (used to push all
    key-switch digits through the NTT in one call).
    """

    def __init__(self, contexts: Sequence[NttContext]):
        if not contexts:
            raise ValueError("need at least one NTT context")
        self.n = contexts[0].n
        if any(c.n != self.n for c in contexts):
            raise ValueError("all NTT contexts must share the ring degree")
        self.num_primes = len(contexts)
        q_max = max(c.q for c in contexts)
        # Signed residues grow by at most q per butterfly stage; a value
        # bounded by g*q multiplied by a twiddle (< q) must fit int64,
        # so up to ``budget`` stages may run between renormalizations.
        self._growth_budget = max(1, (2**63 - 1) // (q_max * q_max))
        q = np.array([c.q for c in contexts], dtype=np.int64)[:, None]
        twist = np.stack([c._twist for c in contexts])
        twist_inv_n = np.stack(
            [(c._twist_inv * c.n_inv) % c.q for c in contexts]
        )
        num_stages = len(contexts[0]._stage_twiddles)
        stages = [
            np.stack([c._stage_twiddles[s] for c in contexts])[:, None, :]
            for s in range(num_stages)
        ]
        stages_inv = [
            np.stack([c._stage_twiddles_inv[s] for c in contexts])[:, None, :]
            for s in range(num_stages)
        ]
        self._full = _ChainTables(
            q=q,
            q3=q[:, :, None],
            twist=twist,
            twist_inv_n=twist_inv_n,
            stages=stages,
            stages_inv=stages_inv,
        )
        self._subsets: Dict[Tuple[int, ...], _ChainTables] = {}

    def _tables(self, rows: Tuple[int, ...]) -> _ChainTables:
        """Row-gathered tables for a sub-chain, cached per selection."""
        if rows == tuple(range(self.num_primes)):
            return self._full
        cached = self._subsets.get(rows)
        if cached is None:
            idx = np.asarray(rows, dtype=np.intp)
            full = self._full
            cached = _ChainTables(
                q=full.q[idx],
                q3=full.q3[idx],
                twist=full.twist[idx],
                twist_inv_n=full.twist_inv_n[idx],
                stages=[s[idx] for s in full.stages],
                stages_inv=[s[idx] for s in full.stages_inv],
            )
            self._subsets[rows] = cached
        return cached

    def _fft(self, a: np.ndarray, stages: List[np.ndarray], tables: _ChainTables) -> np.ndarray:
        """Iterative DIT cyclic FFT over all selected limbs at once.

        ``a`` must hold residues with ``|a| < q``; returns ``(out,
        growth)`` where ``out`` is a fresh array (the initial
        bit-reverse gather copies) of *signed lazy* residues with
        magnitude below ``growth * q``.  Callers canonicalize into
        ``[0, q)`` (:meth:`_canonicalize`).
        """
        n = self.n
        shape = a.shape
        a = a[..., _bit_reverse_cache(n)]
        if n == 1:
            return a, 1
        q3 = tables.q3
        budget = self._growth_budget
        growth = 1
        # Stage 0 pairs adjacent elements with twiddle 1: pure add/sub.
        blocks = a.reshape(shape[:-1] + (n // 2, 2))
        left = blocks[..., :1]
        right = blocks[..., 1:]
        t = right.copy()
        np.subtract(left, t, out=right)
        left += t
        growth += 1
        # One scratch buffer holds every stage's twiddle products.
        scratch = np.empty(shape[:-1] + (n // 2,), dtype=np.int64)
        half = 2
        stage = 1
        while half < n:
            if growth > budget:
                # Rare (primes >= 30 bits or huge N): renormalize so the
                # next twiddle product fits in int64 again.
                a %= tables.q
                growth = 1
            # Signed drift is bounded by +q per stage, repaired at the end.
            kernels.ntt_stage(a, stages[stage], q3, scratch, half)
            growth += 1
            half *= 2
            stage += 1
        return a, growth

    def forward(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Coefficient -> evaluation form for every selected limb.

        Args:
            data: int64 array of shape ``(..., len(rows), N)``.  Values
                may be any signed residues with ``|v| < 2^31``; the twist
                multiply renormalizes them into ``(-q, q)``.  Broadcast
                (stride-0) views are fine — the twist materializes them.
            rows: indices into the engine's prime chain, one per limb
                row of ``data`` (repeats allowed).
        """
        tables = self._tables(tuple(rows))
        a = np.asarray(data, dtype=np.int64) * tables.twist
        np.fmod(a, tables.q, out=a)
        a, _ = self._fft(a, tables.stages, tables)
        return self._canonicalize(a, tables.q)

    def inverse(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Evaluation -> coefficient form; expects residues in [0, q)."""
        tables = self._tables(tuple(rows))
        a, growth = self._fft(np.asarray(data, dtype=np.int64), tables.stages_inv, tables)
        if growth > self._growth_budget:
            a %= tables.q
        # The fused twist * 1/N multiply rides the final reduction:
        # |a| < growth*q and twist < q keep the product inside int64.
        np.multiply(a, tables.twist_inv_n, out=a)
        return self._canonicalize(a, tables.q)

    @staticmethod
    def _canonicalize(a: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Signed lazy residues -> ``[0, q)``, in place: truncated
        ``fmod`` into ``(-q, q)``, then add ``q`` where negative."""
        np.fmod(a, q, out=a)
        fix = a >> 63  # -1 where negative, else 0 ...
        fix &= q  # ... so q exactly where a needs it
        a += fix
        return a
