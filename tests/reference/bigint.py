"""Exact big-integer oracles for the int64 residue arithmetic.

Object-dtype (Python integer) arithmetic that cannot overflow or wrap:
the schoolbook negacyclic product the NTT is checked against, and the
full-CRT basis extension the int64 conversions
(``RnsBasis.convert_residues``, ``decompose_digits``, the key-switch
chain encode) are checked against.  Slow by design; no evaluator path
calls them.
"""

from __future__ import annotations

import numpy as np

from repro.rns.poly import RnsPolynomial


def negacyclic_convolve_reference(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """O(N^2) schoolbook product of ``a`` and ``b`` in Z_q[X]/(X^N + 1)."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return np.array([x % q for x in out], dtype=np.int64)


def extend_primes_reference(poly: RnsPolynomial, new_primes) -> RnsPolynomial:
    """``poly`` over ``new_primes``: its centered integer value rebuilt
    with the full CRT, then reduced modulo each new prime (in the form
    — coefficient or evaluation — ``poly`` is in)."""
    bigints = poly.to_bigint_coeffs()
    return RnsPolynomial.from_bigint_coeffs(
        poly.basis, tuple(new_primes), bigints, to_ntt=poly.is_ntt
    )
