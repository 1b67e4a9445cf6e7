"""Rotation keygen one key at a time, on the calling thread.

The form ``CkksContext.generate_rotation_keys`` had before keys were
filled on a thread pool: walk the steps in order, and for each one keep
the held key if it covers the step's bound, or draw and compute a fresh
key right there —
the 32-byte PRG seed, then per digit one noise vector, its NTT, the
expanded ``a_i`` half, the ``b_i`` row and the slot-order gather.  The
batched path must leave the same keys, seeds, bounds, ``keys.galois``
order and rng state behind.

Every function takes the context as its first argument and reads only
its parameters, basis, secret and rng, plus the small helpers that did
not change (``_noise_rows``, ``_restrict``, ``params.ks_digits``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.ckks.keys import (
    KEY_PRG_SEED_BYTES,
    SwitchingKey,
    expand_a_half,
    key_chain_primes,
    key_slot_order,
)


def make_switching_key(context, from_key, to_key, max_level=None, exponent=1):
    """A hybrid switching key from ``from_key`` to ``to_key``, drawn and
    computed in one pass."""
    params = context.params
    if max_level is None or max_level >= params.max_level:
        max_level = None
        num_data = params.max_level + 1
    else:
        num_data = max_level + 1
    ns = params.num_special_primes
    alpha = params.ks_alpha
    num_digits = context.params.ks_digits(num_data - 1)
    chain = key_chain_primes(context.basis, ns + num_data)
    if max(chain) >= 2**32:
        raise ValueError(
            f"prime {max(chain)} does not fit the 32-bit residues a "
            "switching key stores"
        )
    seed = context.rng.bytes(KEY_PRG_SEED_BYTES)
    tensor = np.empty((2, num_digits, len(chain), params.ring_degree), dtype=np.uint32)
    order = key_slot_order(context.basis, exponent)
    mod_col = context.basis.moduli_column(chain)
    s_from = context._restrict(from_key, chain).data
    s_to = context._restrict(to_key, chain).data
    special = context.basis.special_modulus()
    gadget = np.array([[special % q] for q in chain], dtype=np.int64)
    for digit in range(num_digits):
        a_i = expand_a_half(seed, digit, context.basis, chain).data
        own = slice(ns + digit * alpha, ns + min((digit + 1) * alpha, num_data))
        b_i = context._noise_rows(chain) - a_i * s_to
        b_i[own] += gadget[own] * s_from[own]
        b_i %= mod_col
        tensor[0, digit] = np.take(b_i, order, axis=-1)
        tensor[1, digit] = np.take(a_i, order, axis=-1)
    return SwitchingKey(tensor, context.basis, exponent, max_level, seed)


def galois_key(context, exponent, max_level=None):
    exponent %= 2 * context.params.ring_degree
    need = context.params.max_level if max_level is None else max_level
    key = context.keys.galois.get(exponent)
    if key is None or not key.covers(need):
        rotated = context.keys.secret.automorphism(exponent)
        key = make_switching_key(context, rotated, context.keys.secret, exponent=exponent)
        context.keys.galois[exponent] = key
    return key


def bounded_galois_key(context, exponent, max_level):
    exponent %= 2 * context.params.ring_degree
    if max_level >= context.params.max_level:
        return galois_key(context, exponent)
    key = context.keys.galois.get(exponent)
    if key is None or not key.covers(max_level):
        rotated = context.keys.secret.automorphism(exponent)
        key = make_switching_key(
            context, rotated, context.keys.secret, max_level, exponent
        )
        context.keys.galois[exponent] = key
    return key


def generate_rotation_keys(
    context, steps: Iterable[int], levels: Optional[Dict[int, int]] = None
) -> None:
    for step in steps:
        exponent = context.encoder.rotation_exponent(step)
        bound = None if levels is None else levels.get(step)
        if bound is not None and bound < context.params.max_level:
            bounded_galois_key(context, exponent, bound)
        else:
            galois_key(context, exponent)
