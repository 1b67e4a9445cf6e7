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

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.ntt.transform import NttContext, _bit_reverse_cache


class _ChainTables(NamedTuple):
    """Tables for the whole prime chain; a sub-chain reads row slices."""

    q: np.ndarray  # (K, 1) moduli column
    twist: np.ndarray  # (K, N) forward twist psi^i, bit-reversed order
    twist_inv_n: np.ndarray  # (K, N) fused psi^-i / N for the inverse
    # Per-stage (K, N/2) twiddle rows, one entry per butterfly pair;
    # stage 0 is all ones and stored as None.
    stages: List[Optional[np.ndarray]]
    stages_inv: List[Optional[np.ndarray]]


def _pair_rows(per_prime: Sequence[List[np.ndarray]], n: int) -> List[Optional[np.ndarray]]:
    """Per-stage ``(K, N/2)`` twiddle rows from ``per_prime[k][s]``, prime
    k's ``half = 2^s`` long stage table.  Pair m of stage s takes entry
    ``m >> (log2 N - 1 - s)``: each entry is repeated so the row lines up
    with the pairs and a stage needs no indexing."""
    return [
        np.repeat(np.stack([t[s] for t in per_prime]), (n // 2) >> s, axis=1) if s else None
        for s in range(len(per_prime[0]))
    ]


class NttChainEngine:
    """Chain-level negacyclic NTT shared by all limbs of an RNS basis.

    Args:
        contexts: one :class:`NttContext` per prime, in chain order.
            Their precomputed tables are stacked; nothing is recomputed.

    Transforms accept arrays of shape ``(..., K, N)`` where ``K`` equals
    the number of selected rows and the transform runs along the last
    axis; any leading dimensions are batched for free (used to push all
    key-switch digits through the NTT in one call).  Results are fresh,
    C-contiguous and in natural order.
    """

    def __init__(self, contexts: Sequence[NttContext]):
        if not contexts:
            raise ValueError("need at least one NTT context")
        self.n = n = contexts[0].n
        if any(c.n != n for c in contexts):
            raise ValueError("all NTT contexts must share the ring degree")
        q_max = max(c.q for c in contexts)
        # Signed residues grow by at most q per butterfly stage; a value
        # bounded by g*q multiplied by a twiddle (< q) must fit int64,
        # so up to ``budget`` stages may run between renormalizations.
        self._growth_budget = max(1, (2**63 - 1) // (q_max * q_max))
        self._full = _ChainTables(
            q=np.array([c.q for c in contexts], dtype=np.int64)[:, None],
            twist=np.take([c._twist for c in contexts], _bit_reverse_cache(n), axis=-1),
            twist_inv_n=np.stack(
                [(c._twist_inv * c.n_inv) % c.q for c in contexts]
            ),
            stages=_pair_rows([c._stage_twiddles for c in contexts], n),
            stages_inv=_pair_rows([c._stage_twiddles_inv for c in contexts], n),
        )

    @staticmethod
    def _plan(rows: Sequence[int]) -> List[Tuple[slice, slice]]:
        """``(limb-axis slice of the data, row slice of the tables)`` for
        each maximal ascending run ``r, r+1, ...`` of ``rows``.  A data
        chain is one run, a key-switch chain two (data prefix, special
        rows); descending or repeated rows degrade to one-row runs.
        Slices, so a sub-chain reads *views* of the one full table set —
        a context uses ~40 sub-chains, and gathered copies of the
        pair-length stage rows would cost tens of MB."""
        plan = []
        start = 0
        for pos in range(1, len(rows) + 1):
            if pos == len(rows) or rows[pos] != rows[pos - 1] + 1:
                lo = rows[start]
                plan.append((slice(start, pos), slice(lo, lo + pos - start)))
                start = pos
        return plan

    def _transform(self, data: np.ndarray, rows: Sequence[int], inverse: bool) -> np.ndarray:
        """Twist + iterative cyclic FFT (or its inverse) of every limb.

        The butterflies are the decimation-in-time ones in Pease's
        constant-geometry schedule: after ONE bit-reverse gather every
        stage pairs ``src[2m]`` with ``src[2m+1]`` and writes sum and
        difference to ``dst[m]`` / ``dst[m + N/2]`` of a ping-pong
        buffer, so each numpy call streams N/2-long operands at every
        stage (an in-place stage's contiguous run is ``half`` = 1, 2,
        4 ...) and the last stage leaves natural order.
        """
        n = self.n
        budget = self._growth_budget
        full = self._full
        stages = full.stages_inv if inverse else full.stages
        # np.take, not data[..., idx]: fancy indexing returns the indexed
        # axis slowest-varying, which would turn every inner loop below
        # into a K-long strided one.  The gather also materializes
        # broadcast (stride-0) inputs.
        a = np.take(np.asarray(data, dtype=np.int64), _bit_reverse_cache(n), axis=-1)
        b = np.empty_like(a)
        scratch = np.empty(a.shape[:-1] + (n // 2,), dtype=np.int64)
        for limbs, chain in self._plan(rows):
            src, dst, products = a[..., limbs, :], b[..., limbs, :], scratch[..., limbs, :]
            q = full.q[chain]
            if not inverse:
                np.multiply(src, full.twist[chain], out=src)
                np.fmod(src, q, out=src)
            growth = 1
            for twiddles in stages:
                if growth > budget:
                    # Rare (primes >= 30 bits or huge N): renormalize so
                    # the next twiddle product fits in int64 again.
                    src %= q
                    growth = 1
                # Signed drift is bounded by +q per stage, repaired at the end.
                kernels.ntt_stage(
                    src, dst, None if twiddles is None else twiddles[chain], q, products
                )
                src, dst = dst, src
                growth += 1
            if inverse:
                if growth > budget:
                    src %= q
                # The fused twist * 1/N multiply rides the final reduction:
                # |src| < growth*q and twist < q keep the product inside int64.
                np.multiply(src, full.twist_inv_n[chain], out=src)
            self._canonicalize(src, q)
        # An even number of ping-pongs ends in the buffer it started from.
        return a if len(stages) % 2 == 0 else b

    def forward(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Coefficient -> evaluation form for every selected limb.

        Args:
            data: int64 array of shape ``(..., len(rows), N)``.  Values
                may be any signed residues with ``|v| < 2^31``; the twist
                multiply renormalizes them into ``(-q, q)``.  Broadcast
                (stride-0) views are fine — the gather materializes them.
            rows: indices into the engine's prime chain, one per limb
                row of ``data`` (repeats allowed).
        """
        return self._transform(data, rows, inverse=False)

    def inverse(self, data: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """Evaluation -> coefficient form; expects residues in [0, q)."""
        return self._transform(data, rows, inverse=True)

    @staticmethod
    def _canonicalize(a: np.ndarray, q: np.ndarray) -> None:
        """Signed lazy residues -> ``[0, q)``, in place: truncated
        ``fmod`` into ``(-q, q)``, then add ``q`` where negative."""
        np.fmod(a, q, out=a)
        fix = a >> 63  # -1 where negative, else 0 ...
        fix &= q  # ... so q exactly where a needs it
        a += fix
