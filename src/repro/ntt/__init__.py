"""Negacyclic Number Theoretic Transform over NTT-friendly primes.

CKKS keeps polynomials in the NTT (evaluation) representation so that
polynomial multiplication in Z_q[X]/(X^N + 1) costs O(N) pointwise
products instead of O(N^2) (paper Section 2.5).  The per-prime tables
live in :class:`NttContext`; :class:`NttChainEngine` stacks them so a
whole RNS residue matrix is transformed in one vectorized pass, and
:func:`galois_eval_permutation` applies Galois automorphisms directly
on evaluation-form data as a cached slot-index gather.
"""

from repro.ntt.chain import NttChainEngine
from repro.ntt.transform import (
    NttContext,
    galois_eval_permutation,
)

__all__ = [
    "NttChainEngine",
    "NttContext",
    "galois_eval_permutation",
]
