"""The hot-path kernels: key-switch inner products and NTT stages.

Three plain numpy functions, called directly by the evaluator.  Results
are exact int64 modular arithmetic; the static operand of an inner
product (key views, weight tables) is uint32 and numpy promotes it
against the int64 one exactly.  ``docs/kernels.md`` has the contract and
why there is exactly one implementation.

Shared here too: :func:`lazy_reduction_chunk`, the single
correctly-headroomed bound on how many ``< max_q`` residue products an
int64 lazy accumulator absorbs between ``%`` passes.  Both the
key-switch inner products and the fused-matvec accumulation use it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Shared lazy-accumulator bound
# ---------------------------------------------------------------------------
def lazy_reduction_chunk(max_q: int, max_chunk: Optional[int] = None) -> int:
    """How many ``< max_q`` residue products fit one int64 lazy pass.

    The accumulator may already hold a *reduced* value (``<= max_q - 1``
    left over from the previous ``%`` pass), so the bound reserves that
    headroom::

        (max_q - 1) + chunk * (max_q - 1)**2  <=  2**63 - 1

    This is the conservative form: it is also safe for a fresh (zero)
    accumulator, so every lazy int64 accumulation in the codebase uses
    this one helper.  ``max_chunk`` caps the result (tests force the
    chunked fallback that real parameter sets only hit with ~31-bit
    primes).  Raises when even a single product overflows — the exact
    backend needs < 32-bit primes.
    """
    chunk = (_INT64_MAX - (max_q - 1)) // ((max_q - 1) ** 2)
    if chunk < 1:
        raise ValueError(
            f"key-switch primes near 2^{max_q.bit_length()} overflow the "
            "int64 lazy accumulator; the exact backend needs < 32-bit primes"
        )
    if max_chunk is not None:
        chunk = min(chunk, int(max_chunk))
        if chunk < 1:
            raise ValueError("max_chunk must be at least 1")
    return chunk


# ---------------------------------------------------------------------------
# ks_inner: broadcast product-sums (fused-matvec accumulations)
# ---------------------------------------------------------------------------
def _product_sum(factors, pairs, out) -> None:
    """``out[..., c, k, n] = sum_d factors[..., d, k, n] * pairs[..., c, d, k, n]``.

    Einsum contracts the digit axis without materializing the full
    ``(..., C, D, K, N)`` product tensor (the memory traffic of which
    dominates at large rings); integer sums are exact, so the result is
    bit-identical to the materialize-then-sum form for any order.
    """
    if factors.ndim == 3 and pairs.ndim == 4:
        np.einsum("dkn,cdkn->ckn", factors, pairs, out=out)
    else:
        np.sum(np.expand_dims(factors, -4) * pairs, axis=-3, out=out)


def ks_inner(factors, pairs, mod_col, chunk):
    """``sum_d factors[..., d] * pairs[..., c, d] mod mod_col``.

    ``factors``: ``(..., D, K, N)``, int64 or a static uint32 table
    (the fused matvec's weight rows, one per term); ``pairs``: int64
    ``(..., C, D, K, N)``, any strides (views of the hoisted
    accumulators, ``C = 2``); ``mod_col``: ``(K, 1)`` moduli column;
    ``chunk``: from :func:`lazy_reduction_chunk`.  Returns int64
    ``(..., C, K, N)``.

    Summation is lazy int64: ``chunk`` products are summed exactly,
    reduced once, and accumulated; a final ``%`` renormalizes.  The
    result is the exact modular sum for any chunking.
    """
    lead = np.broadcast_shapes(factors.shape[:-3], pairs.shape[:-4])
    out = np.empty(
        lead + (pairs.shape[-4],) + pairs.shape[-2:], dtype=np.int64
    )
    num_digits = pairs.shape[-3]
    if num_digits <= chunk:
        _product_sum(factors, pairs, out)
        out %= mod_col
        return out
    out[...] = 0
    part = np.empty_like(out)
    for start in range(0, num_digits, chunk):
        _product_sum(
            factors[..., start : start + chunk, :, :],
            pairs[..., start : start + chunk, :, :],
            part,
        )
        part %= mod_col
        out += part
    out %= mod_col
    return out


# ---------------------------------------------------------------------------
# ks_inner_stacked: one shared digit tensor against many resident keys
# ---------------------------------------------------------------------------
def ks_inner_stacked(digits, keys, num_special, mod_col, chunk):
    """``out[c, k, o, n] = sum_d digits[d, k, n] * keys[o][c, d, k', n] mod q_k``
    (``k'`` = ``k`` rotated to the keys' special-first limb order).

    The key-switch hot path: the shared digit tensor stays
    cache-resident while the keys stream from where they live, and no
    per-offset digit gather is needed (the keys are stored
    inverse-permuted; see ``CkksContext._ks_inner``).

    ``digits``: int64 ``(D, K, N)`` shared digit tensor, limb rows in
    chain order ``(data..., special)``; ``keys``: O uint32 switching-key
    views ``(C, D, K, N)`` whose limb axis is stored *special primes first*
    (``repro.ckks.keys.SwitchingKey.chain_view``), read in place — the
    two limb blocks of each key contract separately into the matching
    rows of the output, so neither the keys nor the digits are
    reordered.  Returns ``(C, K, O, N)``: the layout keeps the offset
    and slot axes adjacent, so the caller's per-offset Galois
    permutations collapse into ONE flat gather over the fused ``O * N``
    axis (the hoisted walk passes one slab of keys at a time).  Same lazy int64 chunking contract as :func:`ks_inner` —
    bit-identical for any chunk.
    """
    num_digits, num_limbs, n = digits.shape
    split = num_limbs - num_special
    out = np.empty((keys[0].shape[0], num_limbs, len(keys), n), dtype=np.int64)

    def product_sum(lo, hi, target):
        for o, key in enumerate(keys):
            np.einsum(
                "dkn,cdkn->ckn",
                digits[lo:hi, :split],
                key[:, lo:hi, num_special:],
                out=target[:, :split, o],
            )
            np.einsum(
                "dkn,cdkn->ckn",
                digits[lo:hi, split:],
                key[:, lo:hi, :num_special],
                out=target[:, split:, o],
            )

    if num_digits <= chunk:
        product_sum(0, num_digits, out)
        out %= mod_col[:, None]
        return out
    out[...] = 0
    part = np.empty_like(out)
    for start in range(0, num_digits, chunk):
        product_sum(start, start + chunk, part)
        part %= mod_col[:, None]
        out += part
    out %= mod_col[:, None]
    return out


# ---------------------------------------------------------------------------
# ntt_stage: one lazy butterfly stage across all limbs
# ---------------------------------------------------------------------------
def ntt_stage(a, out, twiddles, q, scratch):
    """One lazy constant-geometry (Pease) butterfly stage, ``a`` -> ``out``.

    ``a``, ``out``: distinct int64 ``(..., K, N)`` buffers, ``a`` holding
    signed lazy residues; ``twiddles``: ``(K, N // 2)`` — pair ``m``
    (``a[..., 2m]``, ``a[..., 2m + 1]``) uses ``twiddles[:, m]`` — or
    ``None`` for the all-ones first stage, which needs ``|a| < q``;
    ``q``: ``(K, 1)`` moduli; ``scratch``: ``(..., K, N // 2)`` product
    buffer.  Sums land in ``out[..., :N // 2]``, differences in
    ``out[..., N // 2:]``, so every operand of every call is an ``N // 2``
    long run whatever the stage.  Exactly one modular reduction (the
    twiddle product) plus one add and one subtract: ``|out| <= |a| + q``,
    the laziness contract of :class:`repro.ntt.chain.NttChainEngine`.
    """
    half = a.shape[-1] // 2
    even = a[..., 0::2]
    t = a[..., 1::2]
    if twiddles is not None:
        np.multiply(t, twiddles, out=scratch)
        # fmod, not %: the butterfly only needs a congruent |t| < q, and
        # numpy's floor-mod costs ~2.5x more on mixed-sign int64.
        t = np.fmod(scratch, q, out=scratch)
    np.add(even, t, out=out[..., :half])
    np.subtract(even, t, out=out[..., half:])
