"""Tests for grouped digit decomposition (dnum) and the fused matvec.

Covers the three layers of the true-double-hoisting rebuild:

- grouped key-switch digits (``ks_alpha > 1`` with a wider special
  basis), asserted bit-exact against a per-digit big-integer reference;
- the raw hoisted-rotation primitive (``rotate_hoisted_raw``), whose
  deferred accumulators must reproduce ``rotate_hoisted`` bit-for-bit
  once mod-down is applied;
- the fused BSGS matvec (Q_l * P-lazy accumulation, one mod-down per
  output block), asserted bit-exact against an independent slow
  reference of the same deferred-mod-down math, and numerically against
  the cleartext reference.

Also guards the satellite work: grouped ``_DiagAccumulator`` entry
accumulation and weight/bias/zero plaintext caching.
"""

from fractions import Fraction

import numpy as np
import pytest

from reference.bigint import extend_primes_reference
from repro.backend import ToyBackend
from repro.backend.interface import FheBackend
from repro.backend.sim import SimBackend
from repro.ckks.params import CkksParameters, toy_parameters
from repro.core.packing.layouts import VectorLayout
from repro.core.packing.matvec import _DiagAccumulator, build_linear_packing
from repro.rns.poly import RnsPolynomial


def _digit_groups(level, alpha):
    return [
        (digit, lo, min(lo + alpha, level + 1))
        for digit, lo in enumerate(range(0, level + 1, alpha))
    ]


def reference_keyswitch(ctx, d, key, level):
    """Per-digit key switch of ``d`` with exact big-integer digit lifts,
    against the key's natural ``pairs`` (derived from its one resident
    tensor, so the stored layout is itself under test)."""
    ks_chain = ctx._ks_chain(level)
    pairs = key.pairs
    acc0 = RnsPolynomial.zero(ctx.basis, ks_chain)
    acc1 = RnsPolynomial.zero(ctx.basis, ks_chain)
    d_coeff = d.to_coeff()
    for digit, lo, hi in _digit_groups(level, ctx.params.ks_alpha):
        group = d.primes[lo:hi]
        centered = ctx.basis.crt_reconstruct(d_coeff.data[lo:hi], group)
        digit_poly = RnsPolynomial.from_bigint_coeffs(ctx.basis, ks_chain, centered)
        b_i, a_i = pairs[digit]
        acc0 = acc0 + digit_poly * ctx._restrict(b_i, ks_chain)
        acc1 = acc1 + digit_poly * ctx._restrict(a_i, ks_chain)
    for _ in range(ctx.params.num_special_primes):
        acc0 = acc0.divide_and_round_by_last()
        acc1 = acc1.divide_and_round_by_last()
    return acc0, acc1


PARAM_SETS = {
    "alpha1_special2": dict(
        ring_degree=256, max_level=5, num_special_primes=2, ks_alpha=1
    ),
    "alpha2_special2": dict(
        ring_degree=256, max_level=5, num_special_primes=2, ks_alpha=2
    ),
}


@pytest.fixture(scope="module", params=sorted(PARAM_SETS))
def backend(request):
    return ToyBackend(toy_parameters(**PARAM_SETS[request.param]), seed=11)


@pytest.fixture(scope="module")
def alpha3_backend():
    params = CkksParameters(
        ring_degree=128,
        scale_bits=18,
        max_level=5,
        first_prime_bits=21,
        prime_bits=18,
        special_prime_bits=25,
        boot_levels=1,
        num_special_primes=3,
        ks_alpha=3,
    )
    return ToyBackend(params, seed=13)


class TestGroupedDecomposition:
    def test_dnum_property(self):
        params = toy_parameters(
            ring_degree=256, max_level=5, num_special_primes=2, ks_alpha=2
        )
        assert params.dnum == 3
        assert toy_parameters(ring_degree=256, max_level=5).dnum == 6

    def test_rejects_narrow_special_basis(self):
        # ks_alpha=2 with a single 29-bit special prime cannot dominate
        # a ~50-bit digit modulus.
        with pytest.raises(ValueError, match="wider special basis"):
            toy_parameters(ring_degree=256, max_level=5, ks_alpha=2)

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError, match="ks_alpha"):
            toy_parameters(ring_degree=256, max_level=5, ks_alpha=0)

    def test_rejects_wide_inner_digits(self):
        # Inner digits (ks_alpha rescale primes) can out-weigh digit 0
        # when prime_bits > first_prime_bits; the check must catch them.
        with pytest.raises(ValueError, match="wider special basis"):
            CkksParameters(
                ring_degree=256,
                scale_bits=25,
                max_level=5,
                first_prime_bits=22,
                prime_bits=25,
                special_prime_bits=24,
                num_special_primes=2,  # 48 bits >= 22+25 but < 2*25+...
                ks_alpha=2,
                boot_levels=1,
            )

    @pytest.mark.parametrize("level_drop", [0, 1, 2, 3])
    def test_keyswitch_matches_bigint_reference(self, backend, level_drop):
        """Grouped decompose/inner/mod-down == exact per-digit CRT path,
        including levels where the last digit group is partial."""
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        ct = backend.level_down(ct, ct.level - level_drop)
        # _keyswitch takes the UN-rotated polynomial and switches
        # sigma_t(d); the reference switches the rotated one it is given.
        key = ctx.galois_key(ctx.encoder.rotation_exponent(1))
        rot1 = ct.c1.automorphism(key.exponent)
        ref0, ref1 = reference_keyswitch(ctx, rot1, key, ct.level)
        got0, got1 = ctx._keyswitch(ct.c1, key, ct.level)
        assert np.array_equal(ref0.data, got0.data)
        assert np.array_equal(ref1.data, got1.data)

    def test_keyswitch_alpha3_matches_bigint_reference(self, alpha3_backend):
        ctx = alpha3_backend.context
        values = np.linspace(-1, 1, alpha3_backend.slot_count)
        ct = alpha3_backend.encode_encrypt(values)
        # _keyswitch takes the UN-rotated polynomial and switches
        # sigma_t(d); the reference switches the rotated one it is given.
        key = ctx.galois_key(ctx.encoder.rotation_exponent(1))
        rot1 = ct.c1.automorphism(key.exponent)
        ref0, ref1 = reference_keyswitch(ctx, rot1, key, ct.level)
        got0, got1 = ctx._keyswitch(ct.c1, key, ct.level)
        assert np.array_equal(ref0.data, got0.data)
        assert np.array_equal(ref1.data, got1.data)

    def test_rotate_decrypts_correctly(self, backend):
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        for step in (1, 3, backend.slot_count - 1):
            got = backend.decrypt(backend.rotate(ct, step))
            assert np.abs(got - np.roll(values, -step)).max() < 2e-2

    def test_rotate_hoisted_bitwise_equals_rotate(self, backend):
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        hoisted = ctx.rotate_hoisted(ct, [1, 2, 5])
        for step in (1, 2, 5):
            plain = ctx.rotate(ct, step)
            assert np.array_equal(hoisted[step].c0.data, plain.c0.data)
            assert np.array_equal(hoisted[step].c1.data, plain.c1.data)

    def test_mul_relinearize_under_grouping(self, backend):
        values = np.linspace(-0.9, 0.9, backend.slot_count)
        ct = backend.encode_encrypt(values)
        got = backend.decrypt(backend.rescale(backend.mul(ct, ct)))
        assert np.abs(got - values**2).max() < 5e-2


class TestRawHoistedRotation:
    def test_moddown_of_raw_equals_rotate_hoisted(self, backend):
        """The deferred-accumulator contract: raw + mod-down must equal
        the materialized hoisted rotation bit-for-bit."""
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        steps = [1, 4, 7]
        raw = ctx.rotate_hoisted_raw(ct, steps)
        full = ctx.rotate_hoisted(ct, steps)
        assert sorted(raw) == steps
        for step in steps:
            rot0, acc = raw[step]
            assert acc.shape[0] == 2 and acc.dtype == np.int64
            p0, p1 = ctx._ks_moddown(acc, ct.level)
            assert np.array_equal((rot0 + p0).data, full[step].c0.data)
            assert np.array_equal(p1.data, full[step].c1.data)

    def test_raw_excludes_zero_and_dedups(self, backend):
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        raw = ctx.rotate_hoisted_raw(ct, [0, 2, 2, -backend.slot_count + 2])
        assert sorted(raw) == [2]

    def test_raw_rejects_degree_two(self, backend):
        ctx = backend.context
        values = np.linspace(-1, 1, backend.slot_count)
        ct = backend.encode_encrypt(values)
        sq = ctx.mul(ct, ct, relinearize=False)
        with pytest.raises(ValueError):
            ctx.rotate_hoisted_raw(sq, [1])


def reference_fused_matvec(backend, packed, in_cts, pt_scale):
    """Slow exact reference of the fused accumulation: independent
    per-offset decomposition (no hoisting), big-integer plaintext lifts,
    immediate modular reductions, one mod-down per output block."""
    ctx = backend.context
    level = in_cts[0].level
    ks_chain = ctx._ks_chain(level)
    mod_ks = ctx.basis.moduli_column(ks_chain)
    data_chain = ctx._data_chain(level)
    terms = packed.terms()
    outs = []
    for bo in range(packed.num_out):
        bo_terms = sorted((bi, off) for (bo2, bi, off) in terms if bo2 == bo)
        if not bo_terms:
            outs.append(None)
            continue
        acc = np.zeros((2, len(ks_chain), ctx.params.ring_degree), dtype=np.int64)
        c0 = RnsPolynomial.zero(ctx.basis, data_chain)
        c1 = RnsPolynomial.zero(ctx.basis, data_chain)
        rotated = False
        for bi, off in bo_terms:
            pt = ctx.encode(terms[(bo, bi, off)], level=level, scale=Fraction(pt_scale))
            if off == 0:
                c0 = c0 + pt.poly * in_cts[bi].c0
                c1 = c1 + pt.poly * in_cts[bi].c1
                continue
            rotated = True
            exponent = ctx.encoder.rotation_exponent(off)
            pairs = ctx.galois_key(exponent).pairs
            rot1 = in_cts[bi].c1.automorphism(exponent)
            t = np.zeros_like(acc)
            d_coeff = rot1.to_coeff()
            for digit, lo, hi in _digit_groups(level, ctx.params.ks_alpha):
                group = rot1.primes[lo:hi]
                centered = ctx.basis.crt_reconstruct(d_coeff.data[lo:hi], group)
                dig = RnsPolynomial.from_bigint_coeffs(ctx.basis, ks_chain, centered)
                b_i, a_i = pairs[digit]
                t[0] = (t[0] + dig.data * ctx._restrict(b_i, ks_chain).data) % mod_ks
                t[1] = (t[1] + dig.data * ctx._restrict(a_i, ks_chain).data) % mod_ks
            pt_ext = extend_primes_reference(pt.poly, ks_chain)
            acc = (acc + pt_ext.data * t) % mod_ks
            c0 = c0 + pt.poly * in_cts[bi].c0.automorphism(exponent)
        if rotated:
            p0, p1 = ctx._ks_moddown(acc, level)
            c0 = c0 + p0
            c1 = c1 + p1
        outs.append((c0, c1))
    return outs


class TestFusedMatvec:
    @pytest.fixture(scope="class", params=sorted(PARAM_SETS))
    def setup(self, request):
        backend = ToyBackend(toy_parameters(**PARAM_SETS[request.param]), seed=3)
        n = backend.slot_count
        rng = np.random.default_rng(7)
        m = n // 4
        matrix = rng.uniform(-1, 1, (m, n))
        bias = rng.uniform(-0.5, 0.5, m)
        packed = build_linear_packing(matrix, bias, VectorLayout(n, n), name="fc")
        values = np.linspace(-1, 1, n)
        ct = backend.encode_encrypt(values)
        pt_scale = Fraction(backend.params.data_primes[ct.level])
        return backend, packed, ct, values, pt_scale

    def test_fused_accumulation_bitwise_equals_reference(self, setup):
        """The optimized fused path (shared decomposition, lazy int64
        chunks, fast lifts) must match the slow exact reference of the
        same deferred-mod-down computation bit-for-bit."""
        backend, packed, ct, _, pt_scale = setup
        got = backend._matvec_fused_no_charge(
            [ct], packed.terms(), packed.num_out, pt_scale
        )
        ref = reference_fused_matvec(backend, packed, [ct], pt_scale)
        assert len(got) == len(ref) and got
        for g, r in zip(got, ref):
            assert (g is None) == (r is None)
            if g is None:
                continue
            assert np.array_equal(g.c0.data, r[0].data)
            assert np.array_equal(g.c1.data, r[1].data)

    def test_fused_execute_matches_cleartext(self, setup):
        """To noise precision; the bitwise contract is against
        reference_fused_matvec above."""
        backend, packed, ct, values, pt_scale = setup
        expected = packed.execute_cleartext([values])[0]
        tol = 0.03 * max(1.0, np.abs(expected).max())
        (out,) = packed.execute(backend, [ct], pt_scale)
        assert out.level == ct.level - 1
        assert out.scale == ct.scale * pt_scale / backend.params.data_primes[ct.level]
        assert np.abs(backend.decrypt(out) - expected).max() < tol

    def test_fused_ledger_rotations_match_plan(self, setup):
        """Fused execution must keep '# Rots' accounting identical to
        the compile-time plan (paper-table comparability)."""
        backend, packed, ct, _, pt_scale = setup
        backend.ledger.reset()
        packed.execute(backend, [ct], pt_scale)
        assert backend.ledger.rotations == packed.stats.rotations
        assert backend.ledger.counts["pmult"] >= packed.stats.pmults

    def test_plaintext_and_bias_caching(self, setup):
        """Weights, bias, and zero plaintexts encode once, not per run."""
        backend, packed, ct, _, pt_scale = setup
        packed.execute(backend, [ct], pt_scale)  # warm the caches
        calls = []
        original = backend.encode

        def counting_encode(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        backend.encode = counting_encode
        try:
            packed.execute(backend, [ct], pt_scale)
        finally:
            backend.encode = original
        assert calls == []

    def test_sim_backend_fused_matches_cleartext(self, setup):
        backend, packed, _, values, pt_scale = setup
        sim = SimBackend(backend.params, seed=5)
        ct = sim.encode_encrypt(values)
        expected = packed.execute_cleartext([values])[0]
        got = sim.decrypt(packed.execute(sim, [ct], pt_scale)[0])
        assert np.abs(got - expected).max() < 0.03 * max(1.0, np.abs(expected).max())
        sim.ledger.reset()
        packed.execute(sim, [ct], pt_scale)
        assert sim.ledger.rotations == packed.stats.rotations

    @pytest.mark.parametrize(
        "missing", ["_matvec_fused_no_charge", "_rotate_sum_no_charge"]
    )
    def test_backend_without_a_fused_primitive_fails_at_construction(
        self, setup, missing
    ):
        """Loud, not slow: no slower pipeline exists to fall back to,
        so a backend lacking either fused primitive cannot be built."""
        backend = setup[0]
        incomplete = type(
            "Incomplete", (ToyBackend,), {missing: getattr(FheBackend, missing)}
        )
        with pytest.raises(TypeError, match=missing):
            incomplete(backend.params, seed=3)


class TestDiagAccumulatorGrouped:
    def _reference(self, slots, calls):
        vecs = {}
        for out_slot, in_slot, value in calls:
            for o, i, v in zip(
                np.ravel(out_slot), np.ravel(in_slot), np.ravel(value)
            ):
                key = (int(o) // slots, int(i) // slots, int((i - o) % slots))
                vec = vecs.setdefault(key, np.zeros(slots))
                vec[int(o) % slots] += v
        return vecs

    def test_matches_naive_accumulation(self):
        slots = 16
        rng = np.random.default_rng(0)
        calls = []
        for _ in range(3):
            size = rng.integers(1, 40)
            out_slot = rng.integers(0, 4 * slots, size)
            in_slot = rng.integers(0, 4 * slots, size)
            value = rng.normal(size=size)
            calls.append((out_slot, in_slot, value))
        acc = _DiagAccumulator(slots)
        for out_slot, in_slot, value in calls:
            acc.add_entries(out_slot, in_slot, value)
        ref = self._reference(slots, calls)
        assert set(acc.vecs) == set(ref)
        for key, vec in ref.items():
            np.testing.assert_allclose(acc.vecs[key], vec, atol=1e-12)

    def test_repeated_entries_sum(self):
        acc = _DiagAccumulator(8)
        acc.add_entries(np.array([1, 1, 1]), np.array([3, 3, 3]), np.array([1.0, 2.0, 3.0]))
        assert acc.vecs[(0, 0, 2)][1] == pytest.approx(6.0)

    def test_empty_input_is_noop(self):
        acc = _DiagAccumulator(8)
        acc.add_entries(np.array([]), np.array([]), np.array([]))
        assert acc.vecs == {}
