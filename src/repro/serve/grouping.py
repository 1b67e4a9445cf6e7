"""The key-switch digit grouping an artifact ships with.

Hybrid key switching splits a ciphertext's ``l + 1`` limbs into digits
of ``ks_alpha`` limbs each (Han-Ki [33]; paper Section 2.4): wider
digits mean fewer of them — fewer digit NTTs, a shorter inner product,
smaller switching keys — but need a special basis ``P`` wider than any
digit, and every key, accumulator and weight table over ``Q_l * P``
grows by the extra special limbs.  Which side wins depends on the
program: an activation-heavy network is mostly relinearisations, where
fewer digits pay; a matvec-heavy one streams hoisted accumulators and
weight tables, which the extra limbs widen.

:func:`artifact_parameters` makes the decision per artifact, at export:
among ``(ks_alpha, num_special_primes)`` candidates it picks the one
holding the fewest bytes (switching keys at the manifest's step levels
plus the pre-encoded tables), provided its key-switch work per inference
does not exceed the caller's parameter set's.  Both sides are exact
shape arithmetic over one run of the program on a plain noise-free
:class:`SimBackend`: its ledger records every key switch's shape where
the switch is charged (``OpLedger.key_switches``), and the run fixes the
(level, scale) of every table.  Nothing is timed.  The compile-time
cost model is untouched: placement and ``modeled_latency`` price the
caller's parameters, and the choice only changes the key-switch layout
the artifact's keys and tables are built for.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.backend.ledger import KeySwitch
from repro.backend.sim import SimBackend
from repro.ckks.keys import KEY_PRG_SEED_BYTES
from repro.ckks.params import CkksParameters, RingType
from repro.utils.intmath import int_log2
from repro.utils.primes import find_ntt_primes

#: Work of one reduced, gathered or table-contracted N-word row, in
#: multiply-add rows of the digit inner product.  Measured on the exact
#: backend (numpy, 2-core x86 VM) at N = 2048 and 4096: an int64 ``%``,
#: a Galois gather or a table contraction row costs ~5 of them (they are
#: memory-bound; the multiply-add streams a resident uint32 key) ...
REDUCED_ROW = 5
#: ... and a transformed row ~5 per butterfly stage.
NTT_ROW_PER_STAGE = 5


def fused_tables(program, backend) -> Iterator[Tuple[object, int, Fraction, Dict]]:
    """``(instr, level, pt_scale, {(bo, bi): offsets})`` for every linear
    layer ``backend`` ran through the fused matvec: the (level, scale)
    its weight tables execute at and their rows, in table order."""
    from repro.backend.toy import fused_term_groups
    from repro.core.program import LinearInstr

    for instr in program.instructions:
        if not isinstance(instr, LinearInstr):
            continue
        per_backend = instr.packed._pt_cache.get(backend) or {}
        fused_keys = [key for key in per_backend if key[0] == "fused"]
        if fused_keys:
            (_, level, pt_scale, *_rest) = fused_keys[0]
            yield instr, level, pt_scale, fused_term_groups(instr.packed.terms())


def with_grouping(params: CkksParameters, ks_alpha: int, num_special: int) -> CkksParameters:
    """``params`` with another digit grouping: the same data primes, and
    ``num_special`` special primes found the way the parameter set finds
    its own (a prefix of the same search, so one special prime is the
    per-limb set's own)."""
    if (ks_alpha, num_special) == (params.ks_alpha, params.num_special_primes):
        return params
    data = params.data_primes
    special = find_ntt_primes(
        params.special_prime_bits, num_special, params.ring_degree, exclude=data
    )
    return dataclasses.replace(
        params,
        ks_alpha=ks_alpha,
        num_special_primes=num_special,
        primes=tuple(data) + tuple(special),
    )


def held_bytes(
    params: CkksParameters, step_levels: Sequence[int], tables: Sequence[Tuple[int, int]]
) -> int:
    """Bytes an artifact's keys and tables hold under ``params``.

    Keys: the relinearisation key and one key per rotation step
    compressed to its manifest level, each counted as
    :meth:`repro.ckks.keys.SwitchingKey.size_bytes` (uint32 b rows plus
    the PRG seed).  Tables: ``(rows, level)`` per pre-encoded uint32
    table, every row spanning the ``Q_l * P`` chain.
    """
    top = params.max_level
    ns = params.num_special_primes
    levels = [top] + [min(level, top) for level in step_levels]
    key_rows = sum(-(-(level + 1) // params.ks_alpha) * (level + 1 + ns) for level in levels)
    table_rows = sum(rows * (level + 1 + ns) for rows, level in tables)
    return (key_rows + table_rows) * params.ring_degree * 4 + len(levels) * KEY_PRG_SEED_BYTES


def key_switch_work(params: CkksParameters, switches: Mapping[KeySwitch, int]) -> int:
    """Work of ``switches`` (shape -> multiplicity, as
    ``OpLedger.key_switches`` holds them) under ``params``, in
    multiply-add rows.

    Per key switch at level ``l``, with ``K = l + 1 + ns`` limbs over
    ``Q_l * P`` and ``D = ceil((l + 1) / ks_alpha)`` digits:

    * a decomposition inverse-transforms ``l + 1`` rows, forward-
      transforms ``D * K``, and — digits grouped — lifts ``D * K`` rows
      (``ks_alpha`` multiply-adds and a reduction each);
    * an inner product multiply-adds ``2 * D * K`` key rows and reduces
      ``2 * K``; a Galois gather moves ``2 * K`` rows and a table row
      contracts ``2 * K``;
    * a mod-down inverse-transforms ``2 * ns`` rows, lifts ``2 * (l + 1)``
      when ``ns > 1``, forward-transforms ``2 * (l + 1)`` and divides
      ``2 * (l + 1)``.

    A transformed row weighs :data:`NTT_ROW_PER_STAGE` per butterfly
    stage, a reduced row :data:`REDUCED_ROW`.
    """
    ntt = NTT_ROW_PER_STAGE * int_log2(params.ring_degree)
    alpha = params.ks_alpha
    ns = params.num_special_primes
    total = 0
    for ks, count in switches.items():
        limbs = ks.level + 1
        width = limbs + ns
        digits = -(-limbs // alpha)
        decompose = ntt * (limbs + digits * width)
        if alpha > 1:
            decompose += digits * width * (alpha + REDUCED_ROW)
        moddown = ntt * 2 * (ns + limbs) + 2 * limbs * REDUCED_ROW
        if ns > 1:
            moddown += 2 * limbs * (ns + REDUCED_ROW)
        total += count * (
            ks.decompositions * decompose
            + ks.products * 2 * width * (digits + REDUCED_ROW)
            + (ks.gathers + ks.table_rows) * 2 * width * REDUCED_ROW
            + ks.moddowns * moddown
        )
    return total


def choose_key_grouping(
    params: CkksParameters,
    switches: Mapping[KeySwitch, int],
    step_levels: Sequence[int],
    tables: Sequence[Tuple[int, int]],
) -> CkksParameters:
    """The fewest-bytes grouping (:func:`held_bytes`) whose
    :func:`key_switch_work` over ``switches`` does not exceed that of
    ``params`` itself.

    Candidates are every digit width with the fewest special primes it
    needs; one whose primes cannot be found, or that would break the
    caller's 128-bit security, is left out.  Ties keep the caller's set,
    so a program no grouping helps exports exactly what it did before
    the choice existed.
    """
    budget = key_switch_work(params, switches)
    best, fewest = params, held_bytes(params, step_levels, tables)
    for alpha in range(1, params.max_level + 2):
        try:
            candidate = with_grouping(params, alpha, params.min_special_primes(alpha))
        except ValueError:
            continue
        if params.is_128_bit_secure() and not candidate.is_128_bit_secure():
            continue
        if key_switch_work(candidate, switches) > budget:
            continue
        held = held_bytes(candidate, step_levels, tables)
        if held < fewest:
            best, fewest = candidate, held
    return best


def artifact_parameters(program, params: CkksParameters):
    """``(chosen parameters, backend)`` for exporting ``program``
    compiled at ``params``: ``backend`` is the noise-free
    :class:`SimBackend` that ran one dummy inference, whose ledger lists
    the key switches priced and whose run fixes what the artifact
    pre-encodes (:func:`fused_tables`).  Only the exact backend realises
    a grouping or reads pre-encoded tables: for a parameter set it
    cannot run this is ``(params, None)``."""
    if params.ring_type is not RingType.STANDARD or max(params.primes) >= 2**31:
        return params, None
    backend = SimBackend(params, noise_free=True)
    program.run(backend, np.zeros(program.input_layout.tensor_shape))
    tables = [
        (len(offsets), level)
        for _, level, _, groups in fused_tables(program, backend)
        for offsets in groups.values()
    ]
    step_levels = program.required_rotation_step_levels().values()
    chosen = choose_key_grouping(
        params, backend.ledger.key_switches, list(step_levels), tables
    )
    return chosen, backend
