"""Hot-path microbenchmarks: limb-batched engine vs the seed's per-limb loops.

Measures NTT forward/inverse, automorphism, key switching, rotation
(single and hoisted batch) and rescale, comparing the batched
engine against faithful reimplementations of the seed's per-limb Python
loops (kept here, not in the library, so the library carries exactly
one implementation).  Every legacy result is asserted bit-identical to
the batched result before timing is reported, so the table can't drift
from a correctness regression.

Besides the human-readable tables under ``benchmarks/results/``, every
run merges machine-readable numbers (op -> median ms + speedup vs the
seed-style baseline) into ``BENCH_ckks_hotpath.json`` at the repo root,
keyed by configuration, so the perf trajectory is tracked across PRs.

Set ``HOTPATH_QUICK=1`` for a CI-sized run (smaller ring, fewer reps)
and ``HOTPATH_ALPHA=k`` to benchmark grouped digit decomposition
(dnum = ceil((L+1)/k) with k special primes).
"""

import gc
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from bench_json_util import merge_json as _merge_json

from repro.backend import ToyBackend
from repro.ckks.galois import galois_offset_key
from repro.ckks.params import toy_parameters
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import build_linear_packing
from repro.ntt import galois_eval_permutation
from repro.rns.poly import RnsPolynomial

QUICK = bool(int(os.environ.get("HOTPATH_QUICK", "0")))
ALPHA = int(os.environ.get("HOTPATH_ALPHA", "1"))
RING_DEGREE = 512 if QUICK else 2048
MAX_LEVEL = 4 if QUICK else 8
REPS = 3 if QUICK else 10

CONFIG_KEY = (
    f"N{RING_DEGREE}_L{MAX_LEVEL}_alpha{ALPHA}_{'quick' if QUICK else 'full'}"
)


def merge_json(section: str, payload: dict) -> None:
    _merge_json(
        CONFIG_KEY,
        section,
        payload,
        ring_degree=RING_DEGREE,
        max_level=MAX_LEVEL,
        ks_alpha=ALPHA,
        quick=QUICK,
    )


# ---------------------------------------------------------------------------
# Seed-faithful legacy implementations (per-limb Python loops)
# ---------------------------------------------------------------------------
def legacy_to_ntt(poly: RnsPolynomial) -> RnsPolynomial:
    rows = [
        poly.basis.ntts[q].forward(row) for q, row in zip(poly.primes, poly.data)
    ]
    return RnsPolynomial(poly.basis, poly.primes, np.stack(rows), is_ntt=True)


def legacy_to_coeff(poly: RnsPolynomial) -> RnsPolynomial:
    rows = [
        poly.basis.ntts[q].inverse(row) for q, row in zip(poly.primes, poly.data)
    ]
    return RnsPolynomial(poly.basis, poly.primes, np.stack(rows), is_ntt=False)


def legacy_automorphism(poly: RnsPolynomial, exponent: int) -> RnsPolynomial:
    """Seed path: full NTT round-trip around a coefficient permutation."""
    n = poly.basis.ring_degree
    two_n = 2 * n
    exponent %= two_n
    coeff = legacy_to_coeff(poly) if poly.is_ntt else poly
    src = np.arange(n, dtype=np.int64)
    dest = (src * exponent) % two_n
    sign_flip = dest >= n
    dest = np.where(sign_flip, dest - n, dest)
    moduli = np.array(poly.primes, dtype=np.int64)[:, None]
    signed = np.where(sign_flip[None, :], -coeff.data, coeff.data)
    out = np.zeros_like(coeff.data)
    out[:, dest] = signed
    out %= moduli
    result = RnsPolynomial(poly.basis, poly.primes, out, is_ntt=False)
    return legacy_to_ntt(result) if poly.is_ntt else result


def legacy_divide_and_round_by_last(poly: RnsPolynomial) -> RnsPolynomial:
    """Seed rescale core: full round-trip plus a per-limb division loop."""
    coeff = legacy_to_coeff(poly) if poly.is_ntt else poly
    last_prime = poly.primes[-1]
    last_row = coeff.data[-1]
    centered = np.where(last_row > last_prime // 2, last_row - last_prime, last_row)
    remaining = poly.primes[:-1]
    rows = []
    for q, row in zip(remaining, coeff.data[:-1]):
        inv = poly.basis.inverse(last_prime, q)
        rows.append(((row - centered) * inv) % q)
    result = RnsPolynomial(poly.basis, remaining, np.stack(rows), is_ntt=False)
    return legacy_to_ntt(result) if poly.is_ntt else result


def legacy_keyswitch(ctx, d: RnsPolynomial, pairs, level: int):
    """Seed hybrid key switch: per-digit loop, per-limb basis raise
    (exact big-integer CRT lift when digits group several limbs).

    ``pairs`` is the seed's key storage — natural per-digit
    ``(b_i, a_i)`` polynomials — which callers derive from
    ``SwitchingKey.pairs`` once, outside any timed region."""
    ks_chain = ctx._ks_chain(level)
    alpha = ctx.params.ks_alpha
    acc0 = RnsPolynomial.zero(ctx.basis, ks_chain)
    acc1 = RnsPolynomial.zero(ctx.basis, ks_chain)
    d_coeff = legacy_to_coeff(d)
    for digit_index, lo in enumerate(range(0, level + 1, alpha)):
        hi = min(lo + alpha, level + 1)
        if hi - lo == 1:
            q_i = d.primes[lo]
            row = d_coeff.data[lo]
            centered = np.where(row > q_i // 2, row - q_i, row)
        else:
            centered = ctx.basis.crt_reconstruct(
                d_coeff.data[lo:hi], d.primes[lo:hi]
            )
        digit = legacy_to_ntt(
            RnsPolynomial(
                ctx.basis,
                ks_chain,
                np.stack([centered % q for q in ks_chain]).astype(np.int64),
                is_ntt=False,
            )
        )
        b_i, a_i = pairs[digit_index]
        acc0 = acc0 + digit * ctx._restrict(b_i, ks_chain)
        acc1 = acc1 + digit * ctx._restrict(a_i, ks_chain)
    for _ in range(ctx.params.num_special_primes):
        acc0 = legacy_divide_and_round_by_last(acc0)
        acc1 = legacy_divide_and_round_by_last(acc1)
    return acc0, acc1


def natural_key_tensors(ctx, offsets, level):
    """``{offset: (2, digits, ks_limbs, N)}`` natural-layout key stacks
    for the per-offset loop (the seed's use-time extraction), rebuilt
    from each key's derived ``pairs``."""
    ks_chain = ctx._ks_chain(level)
    num_digits = ctx._ks_num_digits(level)
    out = {}
    for offset in offsets:
        key = ctx.galois_key(ctx.galois_offset_exponent(offset), max_level=level)
        pairs = key.pairs[:num_digits]
        out[offset] = np.stack(
            [
                np.stack([ctx._restrict(pair[half], ks_chain).data for pair in pairs])
                for half in (0, 1)
            ]
        )
    return out


def legacy_rotate_hoisted_raw(ctx, ct, offsets, natural):
    """Seed-faithful hoisted raw rotations: one shared digit
    decomposition, then a per-offset Python loop of individual inner
    products against ``natural`` (:func:`natural_key_tensors`)."""
    digits = ctx._ks_decompose(ct.c1, ct.level)
    ks_chain = ctx._ks_chain(ct.level)
    mod_col = ctx.basis.moduli_column(ks_chain)
    chunk = (2**63 - 1 - (max(ks_chain) - 1)) // ((max(ks_chain) - 1) ** 2)
    n = ctx.params.ring_degree
    out = {}
    for offset in offsets:
        exponent = ctx.galois_offset_exponent(offset)
        perm = galois_eval_permutation(n, exponent)
        ba = natural[offset]
        permuted = digits[..., perm]
        if digits.shape[0] <= chunk:
            acc = (permuted * ba).sum(axis=1) % mod_col
        else:
            acc = np.zeros((2, len(ks_chain), n), dtype=np.int64)
            for start in range(0, digits.shape[0], chunk):
                part = permuted[start : start + chunk] * ba[:, start : start + chunk]
                acc += part.sum(axis=1) % mod_col
            acc %= mod_col
        out[offset] = (ct.c0.automorphism(exponent), acc)
    return out


def legacy_rotate(ctx, ct, steps: int, pairs_by_step):
    exponent = ctx.encoder.rotation_exponent(steps)
    rot0 = legacy_automorphism(ct.c0, exponent)
    rot1 = legacy_automorphism(ct.c1, exponent)
    p0, p1 = legacy_keyswitch(ctx, rot1, pairs_by_step[steps], ct.level)
    return rot0 + p0, p1


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def _time_stats(fn, reps=REPS):
    """(min, median) wall clock in ms.  The min drives the speedup
    floors (robust to GC pauses); the median goes into the JSON."""
    fn()  # warm caches / lazy keys
    times = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, float(np.median(times)) * 1e3


def _time_ms(fn, reps=REPS):
    """Min-of-N wall clock: robust to GC pauses and noisy CI runners."""
    return _time_stats(fn, reps)[0]


def _time_stats_paired(fn_a, fn_b, reps=REPS):
    """Interleaved (min, median) ms for two contenders.

    Timing all of A's reps then all of B's lets slow drift (CPU
    frequency scaling, thermal throttling on CI runners) land entirely
    on whichever ran second; alternating A/B every rep spreads any
    drift evenly across both, which is what a paired comparison needs.
    """
    fn_a()
    fn_b()
    times_a, times_b = [], []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - start)
    return (
        (min(times_a) * 1e3, float(np.median(times_a)) * 1e3),
        (min(times_b) * 1e3, float(np.median(times_b)) * 1e3),
    )


@pytest.fixture(scope="module")
def setup():
    params = toy_parameters(
        ring_degree=RING_DEGREE,
        max_level=MAX_LEVEL,
        boot_levels=2,
        num_special_primes=max(1, ALPHA),
        ks_alpha=ALPHA,
    )
    backend = ToyBackend(params, seed=0)
    values = np.linspace(-1, 1, backend.slot_count)
    ct = backend.encode_encrypt(values)
    pt = backend.encode(values, params.max_level, params.scale)
    backend.context.generate_rotation_keys(range(1, 9))
    return backend, ct, pt, values


def test_hotpath_microbench(setup, record_table):
    backend, ct, pt, values = setup
    ctx = backend.context
    poly = ct.c0
    coeff = poly.to_coeff()
    exponent = ctx.encoder.rotation_exponent(1)
    key = ctx.galois_key(exponent)
    prod = ctx.mul_plain(ct, pt)
    hoist_steps = list(range(1, 9))
    # The seed stored keys as natural per-digit pairs; derive them once
    # here so no timed region pays for the layout conversion.
    pairs_by_step = {
        s: ctx.galois_key(ctx.encoder.rotation_exponent(s)).pairs for s in hoist_steps
    }
    # _keyswitch takes the UN-rotated c1 and switches sigma_t(c1).
    rot1 = ct.c1.automorphism(exponent)

    # Correctness cross-checks: legacy and batched must agree bit-for-bit.
    assert np.array_equal(legacy_to_ntt(coeff).data, coeff.to_ntt().data)
    assert np.array_equal(legacy_to_coeff(poly).data, poly.to_coeff().data)
    assert np.array_equal(
        legacy_automorphism(poly, exponent).data, poly.automorphism(exponent).data
    )
    lk0, lk1 = legacy_keyswitch(ctx, rot1, pairs_by_step[1], ct.level)
    nk0, nk1 = ctx._keyswitch(ct.c1, key, ct.level)
    assert np.array_equal(lk0.data, nk0.data)
    assert np.array_equal(lk1.data, nk1.data)
    lr0, lr1 = legacy_rotate(ctx, ct, 1, pairs_by_step)
    nr = ctx.rotate(ct, 1)
    assert np.array_equal(lr0.data, nr.c0.data)
    assert np.array_equal(lr1.data, nr.c1.data)
    assert np.array_equal(
        legacy_divide_and_round_by_last(prod.c0).data,
        prod.c0.divide_and_round_by_last().data,
    )

    rows = []
    speedups = {}
    json_ops = {}

    def bench(name, legacy_fn, batched_fn):
        before, before_med = _time_stats(legacy_fn)
        after, after_med = _time_stats(batched_fn)
        speedups[name] = before / after
        json_ops[name] = {
            "median_ms": round(after_med, 4),
            "baseline_median_ms": round(before_med, 4),
            "speedup": round(before_med / after_med, 3),
        }
        rows.append((name, f"{before:.3f}", f"{after:.3f}", f"{before / after:.2f}x"))

    bench("ntt_forward", lambda: legacy_to_ntt(coeff), lambda: coeff.to_ntt())
    bench("ntt_inverse", lambda: legacy_to_coeff(poly), lambda: poly.to_coeff())
    bench(
        "automorphism",
        lambda: legacy_automorphism(poly, exponent),
        lambda: poly.automorphism(exponent),
    )
    bench(
        "keyswitch",
        lambda: legacy_keyswitch(ctx, rot1, pairs_by_step[1], ct.level),
        lambda: ctx._keyswitch(ct.c1, key, ct.level),
    )
    bench(
        "rotate",
        lambda: legacy_rotate(ctx, ct, 1, pairs_by_step),
        lambda: ctx.rotate(ct, 1),
    )
    bench(
        "rotate_x8_hoisted",
        lambda: [legacy_rotate(ctx, ct, s, pairs_by_step) for s in hoist_steps],
        lambda: ctx.rotate_hoisted(ct, hoist_steps),
    )
    bench(
        "rescale",
        lambda: (
            legacy_divide_and_round_by_last(prod.c0),
            legacy_divide_and_round_by_last(prod.c1),
        ),
        lambda: ctx.rescale(prod),
    )

    record_table(
        "ckks_hotpath",
        f"CKKS hot-path microbenchmarks (N={RING_DEGREE}, L={MAX_LEVEL}, "
        f"alpha={ALPHA}, {'quick' if QUICK else 'full'} mode): seed-style "
        "per-limb loops vs limb-batched engine",
        ("op", "per-limb (ms)", "batched (ms)", "speedup"),
        rows,
    )
    merge_json("ops", json_ops)
    # The hoisted rotation batch is the BSGS hot path the tentpole targets.
    assert speedups["rotate_x8_hoisted"] > (1.5 if QUICK else 4.0)
    assert speedups["keyswitch"] > 1.2
    assert speedups["rotate"] > 1.2


STACKED_RING_DEGREE = 2048
STACKED_MAX_LEVEL = 6
STACKED_OFFSETS = 32


def test_stacked_keyswitch(record_table):
    """Stacked key-switch inner products vs the per-offset loop.

    Both paths share the hoisted digit decomposition; the stacked path
    runs the shared digit tensor against every inverse-permuted
    switching key in place (one dispatch, no key copies) and
    Galois-permutes only the small accumulator, removing the per-offset
    digit gathers.

    The win scales with ring size and offset count (it trades per-offset
    memory traffic for one streamed einsum), so this section pins its
    own ring — the tiny quick-mode session ring (N=512) cannot measure
    it — and only the rep count follows quick mode.  32 offsets is a
    realistic BSGS baby-step batch.
    """
    backend = ToyBackend(
        toy_parameters(
            ring_degree=STACKED_RING_DEGREE,
            max_level=STACKED_MAX_LEVEL,
            num_special_primes=max(1, ALPHA),
            ks_alpha=ALPHA,
        ),
        seed=11,
    )
    ct = backend.encode_encrypt(np.linspace(-1, 1, backend.slot_count))
    ctx = backend.context
    steps = list(range(1, STACKED_OFFSETS)) + [("conj", 0)]

    # Bit-exactness before timing: the stacked product-sum must equal
    # the per-offset loop on every offset, rot0 and accumulator alike.
    stacked = ctx.rotate_hoisted_raw(ct, steps)
    offsets = sorted(stacked, key=galois_offset_key)
    natural = natural_key_tensors(ctx, offsets, ct.level)
    legacy = legacy_rotate_hoisted_raw(ctx, ct, offsets, natural)
    for offset in offsets:
        rot0_l, acc_l = legacy[offset]
        rot0_s, acc_s = stacked[offset]
        assert np.array_equal(rot0_s.data, rot0_l.data)
        assert np.array_equal(np.asarray(acc_s), acc_l)

    (loop_ms, loop_med), (stacked_ms, stacked_med) = _time_stats_paired(
        lambda: legacy_rotate_hoisted_raw(ctx, ct, offsets, natural),
        lambda: ctx.rotate_hoisted_raw(ct, steps),
    )
    record_table(
        "ckks_hotpath_stacked_keyswitch",
        f"Hoisted raw rotations, {len(offsets)} Galois offsets "
        f"(N={STACKED_RING_DEGREE}, L={STACKED_MAX_LEVEL}, alpha={ALPHA}, "
        f"{'quick' if QUICK else 'full'} mode): per-offset inner-product "
        "loop vs one stacked product-sum",
        ("path", "wall-clock (ms)", "speedup"),
        [
            ("per-offset loop", f"{loop_ms:.2f}", "1.00x"),
            ("stacked inner products", f"{stacked_ms:.2f}", f"{loop_ms / stacked_ms:.2f}x"),
        ],
    )
    merge_json(
        "stacked_keyswitch",
        {
            "offsets": len(offsets),
            # This section runs at its own pinned ring (see docstring),
            # not the session-wide quick/full ring of the config key.
            "ring_degree": STACKED_RING_DEGREE,
            "max_level": STACKED_MAX_LEVEL,
            "stacked_median_ms": round(stacked_med, 3),
            "loop_median_ms": round(loop_med, 3),
            "speedup_stacked_vs_loop": round(loop_med / stacked_med, 3),
        },
    )
    assert stacked_ms < loop_ms / 1.15


def test_tracing_overhead(setup, record_table):
    """Observability overhead gate on the fused BSGS matvec hot path.

    Three contenders, round-robin interleaved (same drift discipline as
    ``_time_stats_paired``): two identical runs under the default
    NULL_TRACER — their delta bounds the *disabled* instrumentation
    cost plus measurement noise — and one run under an enabled Tracer.
    Recorded overheads are gated here and re-checked by
    ``check_bench_json.py`` (CEILINGS), so the observability layer can
    never quietly tax the hot path.
    """
    from repro.obs import NULL_TRACER, Tracer, get_tracer, use_tracer

    backend, ct, _, _ = setup
    params = backend.params
    n = backend.slot_count
    band = 16 if QUICK else 32
    rng = np.random.default_rng(5)
    matrix = np.zeros((n, n))
    row_idx = np.arange(n)[:, None]
    col_idx = (row_idx + np.arange(band)[None, :]) % n
    matrix[row_idx, col_idx] = rng.uniform(-1, 1, (n, band))
    packed = build_linear_packing(
        matrix, None, VectorLayout(n, n), name="bench_trace"
    )
    pt_scale = Fraction(params.data_primes[backend.level_of(ct)])

    # The baseline needs the disabled default; CI never runs benchmarks
    # on the tracing-on leg, but guard against a local REPRO_TRACE=on.
    if get_tracer() is not NULL_TRACER:
        pytest.skip("ambient tracer installed; overhead baseline unavailable")

    def run():
        return packed.execute(backend, [ct], pt_scale)

    tracer = Tracer()

    def run_traced():
        tracer.reset()
        with use_tracer(tracer):
            return packed.execute(backend, [ct], pt_scale)

    # Observe-only before timing: traced and untraced are bit-identical,
    # and the traced run actually recorded spans (the gate isn't vacuous).
    plain_out = backend.decrypt(run()[0])
    traced_out = backend.decrypt(run_traced()[0])
    assert np.array_equal(plain_out, traced_out)
    assert tracer.roots, "enabled tracer recorded nothing on the hot path"

    contenders = (("baseline", run), ("disabled", run), ("enabled", run_traced))
    times = {name: [] for name, _ in contenders}
    # Quick-mode executes are only a few ms, so one timed sample spans
    # several back-to-back executes to keep per-sample jitter small
    # relative to the 2% ceiling; full-mode executes are long enough
    # on their own.  The contender order rotates each round (whoever
    # runs first in a round sees systematically warmer caches / fewer
    # pending allocations) and the collector stays off while timing.
    inner = 3 if QUICK else 1
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_idx in range(max(15, REPS)):
            shift = round_idx % len(contenders)
            for name, fn in contenders[shift:] + contenders[:shift]:
                start = time.perf_counter()
                for _ in range(inner):
                    fn()
                times[name].append((time.perf_counter() - start) / inner)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    med = {
        name: float(np.median(samples)) * 1e3
        for name, samples in times.items()
    }

    # Gate on the median of per-round ratios: each round times all three
    # contenders back to back, so a ratio against that round's own
    # baseline cancels slow drift (CPU frequency scaling, noisy CI
    # neighbors), and the median discards rounds where a scheduler
    # spike hit one contender.  Aggregate-median deltas on a loaded box
    # swing several percent either way; the paired ratio does not.
    def overhead_pct(contender):
        ratios = [c / b for c, b in zip(times[contender], times["baseline"])]
        return max(0.0, (float(np.median(ratios)) - 1.0) * 100)

    disabled_pct = overhead_pct("disabled")
    enabled_pct = overhead_pct("enabled")
    record_table(
        "ckks_hotpath_tracing_overhead",
        f"Tracing overhead on the fused BSGS matvec (N={RING_DEGREE}, "
        f"band {band}, {'quick' if QUICK else 'full'} mode): NULL_TRACER "
        "A/A vs an enabled Tracer",
        ("mode", "median (ms)", "overhead"),
        [
            ("baseline (disabled)", f"{med['baseline']:.2f}", "-"),
            ("disabled (A/A)", f"{med['disabled']:.2f}", f"{disabled_pct:.2f}%"),
            ("enabled", f"{med['enabled']:.2f}", f"{enabled_pct:.2f}%"),
        ],
    )
    merge_json(
        "tracing_overhead",
        {
            "baseline_median_ms": round(med["baseline"], 4),
            "disabled_median_ms": round(med["disabled"], 4),
            "enabled_median_ms": round(med["enabled"], 4),
            "disabled_overhead_pct": round(disabled_pct, 2),
            "enabled_overhead_pct": round(enabled_pct, 2),
        },
    )
    # The acceptance ceilings (re-enforced by check_bench_json.py):
    # disabled tracing is free — gated at 2% where runs are long enough
    # to resolve it (full mode; the quick ring's ~6ms runs put the A/A
    # noise floor itself near 2%, hence the headroom) — and enabled
    # tracing stays cheap.
    assert disabled_pct <= (5.0 if QUICK else 2.0)
    assert enabled_pct <= (15.0 if QUICK else 10.0)
