"""The key-switch mod-down as a loop over the special primes: divide by
the last one, drop it, repeat — ``ns`` inverse/forward NTT pairs where
the evaluator's one-pass form (``RnsBasis.divide_round_last(...,
count=ns)``) pays one.

Why the two agree bit for bit, for every ``ns``.  Write the special
primes ``p_1 .. p_ns`` (the loop divides by ``p_ns`` first) and
``P = p_1 ... p_ns``.  Step ``k`` subtracts the centered residue ``c_k``
of the running value mod its prime and divides exactly, so

    x = c_1 + p_ns * (c_2 + p_{ns-1} * (c_3 + ...)) + P * y,

with ``y`` the loop's result.  ``r = x - P * y`` is a mixed-radix number
whose digits are centered: ``|c_k| <= (p_k - 1) / 2`` (every prime is
odd), so ``|r| <= sum_k (p_k - 1) / 2 * (radix below k) = (P - 1) / 2``.
``r`` is congruent to ``x`` mod ``P`` and lies in ``[-(P-1)/2, (P-1)/2]``,
so it IS the centered residue of ``x`` mod ``P`` — the value the
one-pass form lifts with ``convert_residues`` — and both compute
``y = (x - r) / P`` exactly, reduced to ``[0, q_i)`` on each data prime.
"""

from __future__ import annotations

import numpy as np

from repro.rns.poly import RnsPolynomial


def moddown_loop(context, acc: np.ndarray, level: int):
    """``CkksContext._ks_moddown`` one special prime at a time."""
    chain = context._ks_chain(level)
    for _ in range(context.params.num_special_primes):
        acc = context.basis.divide_round_last(acc, chain, is_ntt=True)
        chain = chain[:-1]
    return (
        RnsPolynomial(context.basis, chain, acc[0], is_ntt=True),
        RnsPolynomial(context.basis, chain, acc[1], is_ntt=True),
    )
