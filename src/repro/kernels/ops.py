"""Kernel implementations: stacked inner products, Galois gathers, NTT stages.

Every kernel is registered with the process-global
:data:`repro.kernels.dispatch.registry` under up to three backends
(``numpy`` reference, ``threaded`` limb-slab parallel, optional
``numba``).  All backends are bit-exact with the reference: results are
exact int64 modular arithmetic, so implementation choice can never
change a ciphertext.

Shared here too: :func:`lazy_reduction_chunk`, the single
correctly-headroomed bound on how many ``< max_q`` residue products an
int64 lazy accumulator absorbs between ``%`` passes.  Both the
key-switch inner products and the fused-matvec accumulation previously
computed their own (inconsistent) bounds; this helper is the one source
of truth.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro.kernels.dispatch import registry

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
# Threading support
# ---------------------------------------------------------------------------
_EXECUTOR: Optional[ThreadPoolExecutor] = None


def _executor() -> ThreadPoolExecutor:
    """Shared slab executor (numpy releases the GIL inside ufunc loops).

    At least two workers even on a single-core machine, so the threaded
    backend is *exercised* (correctness-tested) everywhere even where it
    cannot win wall-clock.
    """
    global _EXECUTOR
    if _EXECUTOR is None:
        workers = max(2, os.cpu_count() or 1)
        _EXECUTOR = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernel"
        )
    return _EXECUTOR


def _slab_bounds(size: int, slabs: int) -> List[tuple]:
    slabs = max(1, min(slabs, size))
    step = -(-size // slabs)
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _run_slabs(tasks) -> None:
    pool = _executor()
    for future in [pool.submit(fn, *args) for fn, *args in tasks]:
        future.result()


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


def _ks_inner_into(out, factors, pairs, mod_col, chunk) -> None:
    """Chunked product-sum over the digit axis, into ``out``.

    ``factors``: ``(..., D, K, N)``; ``pairs``: ``(..., C, D, K, N)``;
    ``out``: the broadcast result shape minus the D axis.  Summation is
    lazy int64: ``chunk`` products are summed exactly, reduced once, and
    accumulated; a final ``%`` renormalizes.  The result is the exact
    modular sum for any chunking, so every backend (and any chunk cap)
    is bit-identical.
    """
    num_digits = pairs.shape[-3]
    if num_digits <= chunk:
        _product_sum(factors, pairs, out)
        out %= mod_col
        return
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


def _ks_inner_shape(factors, pairs):
    lead = np.broadcast_shapes(factors.shape[:-3], pairs.shape[:-4])
    return lead + (pairs.shape[-4],) + pairs.shape[-2:]


@registry.register("ks_inner", "numpy")
def ks_inner_numpy(factors, pairs, mod_col, chunk):
    """``sum_d factors[..., d] * pairs[..., c, d] mod mod_col``.

    ``factors``: int64 ``(..., D, K, N)`` (e.g. permuted digit tensors,
    one row per offset — or lifted weight plaintexts, one per term);
    ``pairs``: int64 ``(..., C, D, K, N)`` (e.g. ``C = 2`` switching-key
    halves); ``mod_col``: ``(K, 1)`` moduli column; ``chunk``: from
    :func:`lazy_reduction_chunk`.  Returns ``(..., C, K, N)``.
    """
    out = np.empty(_ks_inner_shape(factors, pairs), dtype=np.int64)
    _ks_inner_into(out, factors, pairs, mod_col, chunk)
    return out


@registry.register("ks_inner", "threaded")
def ks_inner_threaded(factors, pairs, mod_col, chunk):
    """Limb-slab threaded ks_inner (bit-exact with the reference)."""
    num_limbs = pairs.shape[-2]
    bounds = _slab_bounds(num_limbs, os.cpu_count() or 1)
    if len(bounds) < 2:
        bounds = _slab_bounds(num_limbs, 2)
    out = np.empty(_ks_inner_shape(factors, pairs), dtype=np.int64)
    if len(bounds) < 2:
        _ks_inner_into(out, factors, pairs, mod_col, chunk)
        return out
    _run_slabs(
        (
            _ks_inner_into,
            out[..., lo:hi, :],
            factors[..., lo:hi, :],
            pairs[..., lo:hi, :],
            mod_col[lo:hi],
            chunk,
        )
        for lo, hi in bounds
    )
    return out


# ---------------------------------------------------------------------------
# ks_inner_stacked: one shared digit tensor against many resident keys
# ---------------------------------------------------------------------------
def _ks_inner_stacked_into(out, digits, keys, num_special, mod_col, chunk) -> None:
    """Chunked per-key product-sums into ``out`` (``(C, K, O, N)``).

    ``digits``: ``(D, K, N)`` shared digit tensor, limb rows in chain
    order ``(data..., special)``; ``keys``: O switching-key views
    ``(C, D, K, N)`` whose limb axis is stored *special primes first*
    (``repro.ckks.keys.SwitchingKey.chain_view``), read in place — the
    two limb blocks of each key contract separately into the matching
    rows of ``out``, so neither the keys nor the digits are reordered.
    The ``(C, K, O, N)`` output layout keeps the offset and slot axes
    adjacent, so the caller's per-offset Galois permutations collapse
    into ONE flat gather over the fused ``O * N`` axis.  Same lazy int64
    chunking contract as :func:`_ks_inner_into` — bit-identical for any
    chunk.
    """
    num_digits = digits.shape[0]
    split = digits.shape[1] - num_special

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
        return
    out[...] = 0
    part = np.empty_like(out)
    for start in range(0, num_digits, chunk):
        product_sum(start, start + chunk, part)
        part %= mod_col[:, None]
        out += part
    out %= mod_col[:, None]


@registry.register("ks_inner_stacked", "numpy")
def ks_inner_stacked_numpy(digits, keys, num_special, mod_col, chunk):
    """``out[c, k, o, n] = sum_d digits[d, k, n] * keys[o][c, d, k', n] mod q_k``
    (``k'`` = ``k`` rotated to the keys' special-first limb order).

    The key-switch hot path: the shared digit tensor stays
    cache-resident while the keys stream from where they live, and no
    per-offset digit gather is needed (the keys are stored
    inverse-permuted; see ``CkksContext._ks_inner``).  Returns
    ``(C, K, O, N)``.
    """
    num_limbs, n = digits.shape[1:]
    out = np.empty((keys[0].shape[0], num_limbs, len(keys), n), dtype=np.int64)
    _ks_inner_stacked_into(out, digits, keys, num_special, mod_col, chunk)
    return out


@registry.register("ks_inner_stacked", "threaded")
def ks_inner_stacked_threaded(digits, keys, num_special, mod_col, chunk):
    """Offset-slab threaded stacked inner product (bit-exact): each
    slab owns a disjoint range of keys and of ``out``'s offset axis."""
    num_limbs, n = digits.shape[1:]
    out = np.empty((keys[0].shape[0], num_limbs, len(keys), n), dtype=np.int64)
    bounds = _slab_bounds(len(keys), max(2, os.cpu_count() or 1))
    if len(bounds) < 2:
        _ks_inner_stacked_into(out, digits, keys, num_special, mod_col, chunk)
        return out
    _run_slabs(
        (
            _ks_inner_stacked_into,
            out[:, :, lo:hi],
            digits,
            keys[lo:hi],
            num_special,
            mod_col,
            chunk,
        )
        for lo, hi in bounds
    )
    return out


# ---------------------------------------------------------------------------
# galois_gather: batched evaluation-form permutations
# ---------------------------------------------------------------------------
def _gather_rows(out, source, perms, lo, hi) -> None:
    for row in range(lo, hi):
        np.take(source, perms[row], axis=-1, out=out[row])


@registry.register("galois_gather", "numpy")
def galois_gather_numpy(source, perms):
    """Gather ``source[..., perms[o]]`` for every offset row.

    ``source``: ``(..., N)`` (the shared digit tensor, or stacked c0
    limbs); ``perms``: ``(O, N)`` evaluation-form Galois permutations.
    Returns ``(O, ...source shape)``: ONE flat ``np.take`` over the
    concatenated permutations (cheaper than a take per offset), with the
    offset axis moved out front as a view — the last axis stays
    contiguous, which is the layout the einsum product-sum streams.
    """
    perms = np.asarray(perms)
    num, n = perms.shape
    flat = np.take(source, perms.reshape(-1), axis=-1)
    return np.moveaxis(flat.reshape(source.shape[:-1] + (num, n)), -2, 0)


@registry.register("galois_gather", "threaded")
def galois_gather_threaded(source, perms):
    """Offset-parallel Galois gather (bit-exact with the reference)."""
    perms = np.asarray(perms)
    num = perms.shape[0]
    out = np.empty((num,) + source.shape, dtype=source.dtype)
    bounds = _slab_bounds(num, max(2, os.cpu_count() or 1))
    if len(bounds) < 2:
        _gather_rows(out, source, perms, 0, num)
        return out
    _run_slabs((_gather_rows, out, source, perms, lo, hi) for lo, hi in bounds)
    return out


# ---------------------------------------------------------------------------
# ntt_stage: one lazy butterfly stage across all limbs
# ---------------------------------------------------------------------------
def _ntt_stage_into(a, twiddles, q3, scratch, half) -> None:
    n = a.shape[-1]
    span = half * 2
    blocks = a.reshape(a.shape[:-1] + (n // span, span))
    left = blocks[..., :half]
    right = blocks[..., half:]
    t = scratch.reshape(a.shape[:-1] + (n // span, half))
    np.multiply(right, twiddles, out=t)
    # fmod, not %: the butterfly only needs a congruent |t| < q, and
    # numpy's floor-mod costs ~2.5x more on mixed-sign int64.
    np.fmod(t, q3, out=t)
    np.subtract(left, t, out=right)
    left += t


@registry.register("ntt_stage", "numpy")
def ntt_stage_numpy(a, twiddles, q3, scratch, half):
    """One lazy DIT butterfly stage, in place on ``a``.

    ``a``: int64 ``(..., K, N)`` signed lazy residues; ``twiddles``:
    ``(K, 1, half)`` stage twiddles; ``q3``: ``(K, 1, 1)`` moduli;
    ``scratch``: ``(..., K, N // 2)`` reusable product buffer.  Exactly
    one modular reduction (the twiddle product) plus one add and one
    subtract — the laziness contract of
    :class:`repro.ntt.chain.NttChainEngine`.
    """
    _ntt_stage_into(a, twiddles, q3, scratch, half)


@registry.register("ntt_stage", "threaded")
def ntt_stage_threaded(a, twiddles, q3, scratch, half):
    """Limb-slab threaded butterfly stage (bit-exact, in place).

    Splits the limb axis (``axis=-2``): each slab's butterflies touch
    disjoint rows of ``a`` and ``scratch``, so in-place mutation is
    race-free.  Slab views of the last axis reshape without copying
    (the N axis stays contiguous), preserving the in-place contract.
    """
    num_limbs = a.shape[-2]
    bounds = _slab_bounds(num_limbs, os.cpu_count() or 1)
    if len(bounds) < 2:
        bounds = _slab_bounds(num_limbs, 2)
    if len(bounds) < 2:
        _ntt_stage_into(a, twiddles, q3, scratch, half)
        return
    _run_slabs(
        (
            _ntt_stage_into,
            a[..., lo:hi, :],
            twiddles[lo:hi],
            q3[lo:hi],
            scratch[..., lo:hi, :],
            half,
        )
        for lo, hi in bounds
    )


# ---------------------------------------------------------------------------
# Optional numba backend (JIT-compiled loops; explicit opt-in)
# ---------------------------------------------------------------------------
def _register_numba() -> bool:
    """Compile and register the numba kernels if numba imports.

    Returns whether registration happened.  Kernels without a numba
    implementation (``ntt_stage``, ``galois_gather`` — gathers are
    already single C calls) fall back to the numpy reference via the
    registry, so a partial numba backend is well-defined.
    """
    try:
        import numba
    except ImportError:
        return False

    @numba.njit(cache=True, parallel=True)
    def _ks_inner_jit(factors, pairs, mods, chunk):  # pragma: no cover - needs numba
        num_stack, num_c = pairs.shape[0], pairs.shape[1]
        num_digits, num_limbs, n = pairs.shape[2], pairs.shape[3], pairs.shape[4]
        out = np.zeros((num_stack, num_c, num_limbs, n), dtype=np.int64)
        for flat in numba.prange(num_stack * num_c * num_limbs):
            o = flat // (num_c * num_limbs)
            c = (flat // num_limbs) % num_c
            k = flat % num_limbs
            q = mods[k]
            acc = out[o, c, k]
            pending = 0
            for d in range(num_digits):
                if pending == chunk:
                    for i in range(n):
                        acc[i] %= q
                    pending = 0
                f = factors[o, d, k]
                p = pairs[o, c, d, k]
                for i in range(n):
                    acc[i] += f[i] * p[i]
                pending += 1
            for i in range(n):
                acc[i] %= q
        return out

    @registry.register("ks_inner", "numba")
    def ks_inner_numba(factors, pairs, mod_col, chunk):  # pragma: no cover
        lead = np.broadcast_shapes(factors.shape[:-3], pairs.shape[:-4])
        stacked_f = np.ascontiguousarray(
            np.broadcast_to(
                factors, lead + factors.shape[-3:]
            ).reshape((-1,) + factors.shape[-3:])
        )
        stacked_p = np.ascontiguousarray(
            np.broadcast_to(
                pairs, lead + pairs.shape[-4:]
            ).reshape((-1,) + pairs.shape[-4:])
        )
        mods = np.ascontiguousarray(mod_col[:, 0])
        out = _ks_inner_jit(stacked_f, stacked_p, mods, chunk)
        return out.reshape(_ks_inner_shape(factors, pairs))

    return True


# The chunked-jit inner product differs from the reference only in when
# reductions happen, never in the value mod q — registration is safe at
# import time; selection stays an explicit opt-in (see dispatch.probe).
NUMBA_REGISTERED = _register_numba()
