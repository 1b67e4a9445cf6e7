"""Tests for the real CKKS bootstrapping pipeline (repro.ckks.bootstrap).

The default backend satisfies the paper's bootstrap contract with an
oracle refresh; these tests validate that contract against the actual
ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff pipeline running on
the exact toy arithmetic.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.toy import ToyBackend
from repro.ckks.bootstrap import (
    CkksBootstrapper,
    overflow_bound,
    scaled_sine,
    shifted_cosine,
)
from repro.ckks.params import (
    bootstrap_parameters,
    double_angle_bootstrap_parameters,
    toy_parameters,
)
from repro.utils.rng import SeededRng

PARAMS = bootstrap_parameters()


def coeffs(ctx, plaintext):
    """A plaintext's centered big-integer coefficients."""
    return ctx.centered_coeffs(plaintext.data, plaintext.level)


@pytest.fixture(scope="module")
def backend():
    return ToyBackend(PARAMS, seed=7, real_bootstrap=True)


@pytest.fixture(scope="module")
def refreshed(backend):
    """One shared end-to-end bootstrap run (the expensive part)."""
    rng = np.random.default_rng(3)
    message = rng.uniform(-0.9, 0.9, PARAMS.slot_count)
    ct = backend.encode_encrypt(message, level=0)
    out = backend.bootstrap(ct)
    return message, ct, out


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
class TestBuildingBlocks:
    def test_overflow_bound_grows_with_hamming_weight(self):
        bounds = [overflow_bound(h) for h in (2, 8, 32, 128)]
        assert bounds == sorted(bounds)
        assert overflow_bound(8) == 6

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_sparse_ternary_exact_weight(self, weight):
        secret = SeededRng(1).sparse_ternary(64, weight)
        assert np.count_nonzero(secret) == weight
        assert set(np.unique(secret)).issubset({-1, 0, 1})

    def test_sparse_ternary_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            SeededRng(0).sparse_ternary(16, 0)
        with pytest.raises(ValueError):
            SeededRng(0).sparse_ternary(16, 17)

    def test_scaled_sine_recovers_fractional_part(self):
        """G((u + q0*I)/(q0*B)) ~ u/Delta: the EvalMod identity."""
        q0, delta, window = PARAMS.primes[0], PARAMS.scale, 7
        poly = scaled_sine(q0 / delta, window, 63)
        rng = np.random.default_rng(0)
        u = rng.uniform(-0.4, 0.4, 128) * delta
        overflow = rng.integers(-(window - 2), window - 1, 128)
        x = (u + q0 * overflow.astype(float)) / (q0 * window)
        # Cubic linearization error: |u/Delta| * (2*pi*u/q0)^2 / 6, which
        # at the extreme u = 0.4*Delta and Delta/q0 = 2^-3 is ~7e-3.
        assert np.abs(poly(x) - u / delta).max() < 1e-2

    def test_scaled_sine_diverges_below_nyquist_degree(self):
        """Degrees below ~ e*pi*B cannot represent the sine window."""
        q0, delta = PARAMS.primes[0], PARAMS.scale
        good = scaled_sine(q0 / delta, 7, 63)
        bad = scaled_sine(q0 / delta, 7, 31)
        x = np.linspace(-0.95, 0.95, 200)
        target = (q0 / (2 * math.pi * delta)) * np.sin(2 * math.pi * 7 * x)
        assert np.abs(good(x) - target).max() < 1e-4
        assert np.abs(bad(x) - target).max() > 1.0


# ---------------------------------------------------------------------------
# ModRaise
# ---------------------------------------------------------------------------
class TestModRaise:
    def test_identity_modulo_q0(self, backend):
        ctx = backend.context
        msg = np.linspace(-0.5, 0.5, PARAMS.slot_count)
        pt = ctx.encode(msg, level=0)
        ct = ctx.encrypt(pt)
        raised = ctx.mod_raise(ct, Fraction(1))
        u_orig = coeffs(ctx, pt)
        u_full = coeffs(ctx, ctx.decrypt(raised))
        q0 = PARAMS.primes[0]
        overflow = (u_full - u_orig) % q0
        # decryption noise shifts u by a few hundred units (the ternary
        # encryption randomness convolves the public-key noise), but
        # never by anything close to a q0 multiple.
        centered = np.where(overflow > q0 // 2, overflow - q0, overflow)
        assert np.abs(centered.astype(float)).max() < q0 / 2**10

    def test_overflow_stays_inside_window(self, backend):
        ctx = backend.context
        rng = np.random.default_rng(5)
        bound = overflow_bound(PARAMS.secret_hamming_weight)
        q0 = PARAMS.primes[0]
        for seed in range(3):
            msg = np.random.default_rng(seed).uniform(-1, 1, PARAMS.slot_count)
            pt = ctx.encode(msg, level=0)
            ct = ctx.encrypt(pt)
            raised = ctx.mod_raise(ct, Fraction(1))
            diff = coeffs(ctx, ctx.decrypt(raised)) - coeffs(ctx, pt)
            overflow = np.rint(diff.astype(np.float64) / q0)
            assert np.abs(overflow).max() <= bound
        del rng

    def test_rejects_nonzero_level(self, backend):
        ct = backend.encode_encrypt(np.zeros(4), level=2)
        with pytest.raises(ValueError, match="level-0"):
            backend.context.mod_raise(ct, Fraction(1))

    def test_raised_level_is_max(self, backend):
        ct = backend.encode_encrypt(np.zeros(4), level=0)
        raised = backend.context.mod_raise(ct, Fraction(3))
        assert raised.level == PARAMS.max_level
        assert raised.scale == Fraction(3)


# ---------------------------------------------------------------------------
# CoeffToSlot / SlotToCoeff
# ---------------------------------------------------------------------------
class TestTransforms:
    def test_coeff_to_slot_extracts_coefficients(self, backend):
        bs = backend._bootstrapper
        ctx = backend.context
        msg = np.random.default_rng(11).uniform(-0.8, 0.8, PARAMS.slot_count)
        pt = ctx.encode(msg, level=0)
        ct = ctx.encrypt(pt)
        raised = ctx.mod_raise(ct, Fraction(bs.q0) * bs.window)
        u_full = coeffs(ctx, ctx.decrypt(raised)).astype(np.float64)
        lo, hi = bs.coeff_to_slot(bs._prescale(raised))
        n = PARAMS.slot_count
        denominator = float(bs.q0 * bs.window)
        got_lo = ctx.decode_complex(ctx.decrypt(lo))
        got_hi = ctx.decode_complex(ctx.decrypt(hi))
        assert np.abs(got_lo - u_full[:n] / denominator).max() < 1e-5
        assert np.abs(got_hi - u_full[n:] / denominator).max() < 1e-5

    def test_coeff_to_slot_outputs_nearly_real(self, backend):
        bs = backend._bootstrapper
        ctx = backend.context
        ct = backend.encode_encrypt(np.ones(PARAMS.slot_count) * 0.3, level=0)
        raised = ctx.mod_raise(ct, Fraction(bs.q0) * bs.window)
        lo, _ = bs.coeff_to_slot(bs._prescale(raised))
        slots = ctx.decode_complex(ctx.decrypt(lo))
        assert np.abs(slots.imag).max() < 1e-5

    def test_transforms_invert_each_other(self, backend):
        """StC(CtS(x)) reproduces the raised coefficients' slot view.

        Without EvalMod in between, the q0*I overflow survives, so the
        expected output is the canonical embedding of the full raised
        coefficient vector u + q0*I (not the original message).
        """
        bs = backend._bootstrapper
        ctx = backend.context
        msg = np.random.default_rng(13).uniform(-0.5, 0.5, PARAMS.slot_count)
        ct = backend.encode_encrypt(msg, level=0)
        raised = ctx.mod_raise(ct, Fraction(bs.q0) * bs.window)
        u_full = coeffs(ctx, ctx.decrypt(raised)).astype(np.float64)
        lo, hi = bs.coeff_to_slot(bs._prescale(raised))
        # Re-declare the slot contents from u/(q0*B) to u/Delta (a pure
        # relabeling; no homomorphic op needed).
        factor = Fraction(bs.q0) * bs.window / PARAMS.scale
        lo = replace(lo, scale=lo.scale / factor)
        hi = replace(hi, scale=hi.scale / factor)
        back = bs.slot_to_coeff(lo, hi)
        got = ctx.decrypt_decode(back)
        expected = ctx.encoder.coeffs_to_slots(u_full).real / PARAMS.scale
        tolerance = 1e-4 * max(np.abs(expected).max(), 1.0)
        assert np.abs(got - expected).max() < tolerance

    def test_matvec_matches_cleartext(self, backend):
        """The live-ciphertext BSGS matvec equals the numpy product."""
        bs = backend._bootstrapper
        n = PARAMS.slot_count
        rng = np.random.default_rng(17)
        matrix = rng.normal(size=(n, n)) / n
        vec = rng.uniform(-1, 1, n)
        ct = backend.encode_encrypt(vec, level=PARAMS.max_level)
        level = PARAMS.max_level
        pt_scale = Fraction(PARAMS.scale) * PARAMS.primes[level] / ct.scale
        out = bs._matvec_sum([(ct, matrix)], pt_scale)
        got = backend.decrypt(out)
        assert np.abs(got - matrix @ vec).max() < 1e-4
        assert backend.level_of(out) == level - 1


# ---------------------------------------------------------------------------
# End-to-end
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_level_and_scale_contract(self, refreshed):
        _, _, out = refreshed
        assert out.level == PARAMS.effective_level
        assert out.scale == Fraction(PARAMS.scale)

    def test_precision_bits(self, backend, refreshed):
        message, _, out = refreshed
        err = np.abs(backend.decrypt(out) - message)
        assert err.max() < 0.05
        assert -np.log2(err.mean()) > 7.0

    def test_consumed_levels_match_budget(self, backend, refreshed):
        assert backend._bootstrapper.consumed_levels == PARAMS.boot_levels

    def test_bootstrap_counted_in_ledger(self, backend, refreshed):
        assert backend.ledger.counts["bootstrap"] >= 1
        # Every transform rotation (and the conjugation, which rides
        # the shared decomposition) is hoisted on the fused pipeline.
        assert backend.ledger.rotations > 0
        assert backend.ledger.counts["hrot_hoisted"] > 0

    def test_computation_continues_after_bootstrap(self, backend, refreshed):
        message, _, out = refreshed
        squared = backend.rescale(backend.mul(out, out))
        got = backend.decrypt(squared)
        assert np.abs(got - message**2).max() < 0.05
        assert backend.level_of(squared) == PARAMS.effective_level - 1

    def test_bootstrap_from_nonzero_level(self, backend):
        message = np.random.default_rng(23).uniform(-0.5, 0.5, PARAMS.slot_count)
        ct = backend.encode_encrypt(message, level=2)
        out = backend.bootstrap(ct)
        assert out.level == PARAMS.effective_level
        assert np.abs(backend.decrypt(out) - message).max() < 0.05

    def test_rejects_off_scale_input(self, backend):
        ct = backend.encode_encrypt(np.zeros(4), level=0)
        ct = replace(ct, scale=ct.scale * 2)
        with pytest.raises(ValueError, match="scale"):
            backend.bootstrap(ct)


# ---------------------------------------------------------------------------
# Double-angle EvalMod variant
# ---------------------------------------------------------------------------
class TestDoubleAngle:
    def test_shifted_cosine_doubles_to_sine(self):
        """r applications of cos(2t)=2cos^2(t)-1 recover sin(2*pi*B*x)."""
        window, r = 7, 2
        poly = shifted_cosine(window, r, 23)
        x = np.linspace(-0.3, 0.3, 200)
        vals = poly(x)
        for _ in range(r):
            vals = 2 * vals * vals - 1
        assert np.abs(vals - np.sin(2 * math.pi * window * x)).max() < 1e-5

    def test_reduced_degree_suffices(self):
        """The base degree shrinks ~2^r: 23 works where direct needs 63."""
        backend = ToyBackend(double_angle_bootstrap_parameters(), seed=1)
        CkksBootstrapper(backend, eval_degree=23, double_angles=2)
        with pytest.raises(ValueError, match="eval_degree"):
            CkksBootstrapper(backend, eval_degree=23, double_angles=0)

    def test_end_to_end_precision(self):
        params = double_angle_bootstrap_parameters()
        backend = ToyBackend(params, seed=2)
        pipeline = CkksBootstrapper(backend, eval_degree=23, double_angles=2)
        message = np.random.default_rng(9).uniform(-0.9, 0.9, params.slot_count)
        out = pipeline.bootstrap(backend.encode_encrypt(message, level=0))
        err = np.abs(backend.decrypt(out) - message)
        assert out.level == params.effective_level
        assert out.scale == Fraction(params.scale)
        assert -np.log2(err.mean()) > 9.0
        # base fit + 1 scale-pin + 2 doublings + CtS/StC/prescale
        assert pipeline.consumed_levels == params.boot_levels

    def test_fewer_multiplications_than_direct(self):
        """The whole point: a degree-23 ladder + 2 squarings beats the
        direct degree-63 ladder on ct-ct multiplication count."""
        direct_backend = ToyBackend(bootstrap_parameters(), seed=3)
        direct = CkksBootstrapper(direct_backend, eval_degree=63)
        da_backend = ToyBackend(double_angle_bootstrap_parameters(), seed=3)
        reduced = CkksBootstrapper(da_backend, eval_degree=23, double_angles=2)
        message = np.random.default_rng(4).uniform(-0.5, 0.5, 64)
        direct.bootstrap(direct_backend.encode_encrypt(message, level=0))
        reduced.bootstrap(da_backend.encode_encrypt(message, level=0))
        assert da_backend.ledger.counts["hmult"] < direct_backend.ledger.counts["hmult"]


# ---------------------------------------------------------------------------
# Construction errors
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_requires_sparse_secret(self):
        dense = toy_parameters(ring_degree=128, max_level=13, boot_levels=10)
        with pytest.raises(ValueError, match="sparse"):
            ToyBackend(dense, real_bootstrap=True)

    def test_rejects_undersized_degree(self, backend):
        with pytest.raises(ValueError, match="eval_degree"):
            CkksBootstrapper(backend, eval_degree=15)

    def test_window_override(self, backend):
        custom = CkksBootstrapper(backend, eval_degree=127, window=12)
        assert custom.window == 12

    def test_oracle_backend_unaffected(self):
        """Default ToyBackend still uses the oracle refresh."""
        backend = ToyBackend(toy_parameters(max_level=6, boot_levels=3), seed=1)
        assert backend._bootstrapper is None
        msg = np.random.default_rng(1).uniform(-0.5, 0.5, 16)
        ct = backend.encode_encrypt(msg, level=0)
        out = backend.bootstrap(ct)
        assert out.level == backend.params.effective_level
