"""End-to-end tests for the exact toy CKKS implementation.

These tests validate the homomorphic property itself: every CKKS
operation is compared against the corresponding cleartext SIMD
operation (paper Section 2.5).
"""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.context import CkksContext
from repro.ckks.encoding import SlotEncoder
from repro.ckks.params import CkksParameters, RingType, toy_parameters

TOLERANCE = 2e-2  # toy parameters give ~8-10 bits of precision


@pytest.fixture(scope="module")
def data(ckks):
    rng = np.random.default_rng(42)
    n = ckks.slot_count
    return rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)


class TestEncoding:
    def test_roundtrip_precision(self):
        enc = SlotEncoder(256)
        rng = np.random.default_rng(0)
        slots = rng.normal(size=128) + 1j * rng.normal(size=128)
        back = enc.coeffs_to_slots(enc.slots_to_coeffs(slots))
        assert np.abs(back - slots).max() < 1e-12

    def test_real_messages_give_real_coeffs(self):
        enc = SlotEncoder(128)
        slots = np.linspace(-1, 1, 64).astype(complex)
        coeffs = enc.slots_to_coeffs(slots)
        assert np.isrealobj(coeffs)

    def test_rotation_exponents_cycle(self):
        enc = SlotEncoder(128)
        assert enc.rotation_exponent(0) == 1
        assert enc.rotation_exponent(64) == 1  # full cycle over 64 slots
        seen = {enc.rotation_exponent(k) for k in range(64)}
        assert len(seen) == 64

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=63))
    def test_rotation_is_cyclic_shift(self, k):
        enc = _ENC.setdefault(128, SlotEncoder(128))
        rng = np.random.default_rng(k)
        slots = rng.normal(size=64).astype(complex)
        coeffs = enc.slots_to_coeffs(slots)
        t = enc.rotation_exponent(k)
        n, two_n = 128, 256
        src = np.arange(n)
        dest = (src * t) % two_n
        sign = dest >= n
        dest = np.where(sign, dest - n, dest)
        out = np.zeros(n)
        out[dest] = np.where(sign, -coeffs, coeffs)
        rotated = enc.coeffs_to_slots(out)
        assert np.abs(rotated - np.roll(slots, -k)).max() < 1e-10


_ENC = {}


class TestParameters:
    def test_effective_level(self, toy_params):
        assert toy_params.effective_level == toy_params.max_level - toy_params.boot_levels

    def test_prime_chain_structure(self, toy_params):
        n = toy_params.ring_degree
        assert len(toy_params.data_primes) == toy_params.max_level + 1
        assert len(toy_params.special_primes) == toy_params.num_special_primes
        for q in toy_params.primes:
            assert q % (2 * n) == 1

    def test_conjugate_invariant_doubles_slots(self):
        std = toy_parameters(ring_degree=512, max_level=4, boot_levels=1)
        ci = toy_parameters(
            ring_degree=512, max_level=4, boot_levels=1,
            ring_type=RingType.CONJUGATE_INVARIANT,
        )
        assert ci.slot_count == 2 * std.slot_count == 512

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            CkksParameters(ring_degree=100, scale_bits=20, max_level=4)
        with pytest.raises(ValueError):
            CkksParameters(ring_degree=128, scale_bits=20, max_level=2, boot_levels=5)

    def test_security_table(self):
        small = toy_parameters(ring_degree=512, max_level=6)
        # 7 x ~21-bit primes + 29-bit special on N=2^9 is far beyond the
        # 128-bit-secure budget for that tiny ring.
        assert not small.is_128_bit_secure()


class TestHomomorphicOps:
    def test_encrypt_decrypt(self, ckks, data):
        a, _ = data
        ct = ckks.encode_encrypt(a)
        assert np.abs(ckks.decrypt(ct) - a).max() < TOLERANCE

    def test_hadd(self, ckks, data):
        a, b = data
        out = ckks.add(ckks.encode_encrypt(a), ckks.encode_encrypt(b))
        assert np.abs(ckks.decrypt(out) - (a + b)).max() < TOLERANCE

    def test_hsub(self, ckks, data):
        a, b = data
        out = ckks.sub(ckks.encode_encrypt(a), ckks.encode_encrypt(b))
        assert np.abs(ckks.decrypt(out) - (a - b)).max() < TOLERANCE

    def test_padd(self, ckks, data):
        a, b = data
        ca = ckks.encode_encrypt(a)
        out = ckks.add_plain(ca, ckks.encode(b, ca.level, ca.scale))
        assert np.abs(ckks.decrypt(out) - (a + b)).max() < TOLERANCE

    def test_pmult_with_rescale(self, ckks, data):
        a, b = data
        ca = ckks.encode_encrypt(a)
        out = ckks.rescale(ckks.mul_plain(ca, ckks.encode(b, ca.level, ca.scale)))
        assert out.level == ckks.params.max_level - 1
        assert np.abs(ckks.decrypt(out) - a * b).max() < TOLERANCE

    def test_hmult_with_rescale(self, ckks, data):
        a, b = data
        out = ckks.rescale(ckks.mul(ckks.encode_encrypt(a), ckks.encode_encrypt(b)))
        assert np.abs(ckks.decrypt(out) - a * b).max() < TOLERANCE

    def test_rotation(self, ckks, data):
        a, _ = data
        for k in (1, 7, 100):
            out = ckks.rotate(ckks.encode_encrypt(a), k)
            assert np.abs(ckks.decrypt(out) - np.roll(a, -k)).max() < TOLERANCE

    def test_rotation_by_zero_is_identity(self, ckks, data):
        a, _ = data
        ct = ckks.encode_encrypt(a)
        assert ckks.rotate(ct, 0) is ct

    def test_conjugate_on_real_data_is_identity(self, ckks, data):
        a, _ = data
        out = ckks.conjugate(ckks.encode_encrypt(a))
        assert np.abs(ckks.decrypt(out) - a).max() < TOLERANCE

    def test_level_down(self, ckks, data):
        a, _ = data
        ct = ckks.level_down(ckks.encode_encrypt(a), 2)
        assert ct.level == 2
        assert np.abs(ckks.decrypt(ct) - a).max() < TOLERANCE

    def test_errorless_scale_trick(self, ckks, data):
        """Encoding weights at scale q_l makes rescale land exactly on Delta."""
        a, b = data
        ct = ckks.encode_encrypt(a)
        q_top = ckks.params.data_primes[ct.level]
        pt = ckks.encode(b, ct.level, Fraction(q_top))
        out = ckks.rescale(ckks.mul_plain(ct, pt))
        assert out.scale == Fraction(ckks.params.scale)
        assert np.abs(ckks.decrypt(out) - a * b).max() < TOLERANCE

    def test_deep_chain_to_level_zero(self, ckks, data):
        a, _ = data
        ct = ckks.encode_encrypt(a)
        expected = a.copy()
        for _ in range(ckks.params.max_level):
            pt = ckks.encode(np.full(ckks.slot_count, 0.9), ct.level, ckks.params.scale)
            ct = ckks.rescale(ckks.mul_plain(ct, pt))
            expected *= 0.9
        assert ct.level == 0
        assert np.abs(ckks.decrypt(ct) - expected).max() < TOLERANCE

    def test_mismatched_levels_raise(self, ckks, data):
        a, b = data
        ca = ckks.encode_encrypt(a)
        cb = ckks.level_down(ckks.encode_encrypt(b), 1)
        with pytest.raises(ValueError):
            ckks.add(ca, cb)

    def test_rescale_at_level_zero_raises(self, ckks, data):
        a, _ = data
        ct = ckks.level_down(ckks.encode_encrypt(a), 0)
        with pytest.raises(ValueError):
            ckks.rescale(ct)


class TestOneEvaluator:
    """The backend is the only evaluator: the client context holds no
    homomorphic op, and every operand check is ``FheBackend._check``'s."""

    MOVED = (
        "add", "sub", "add_plain", "negate", "mul_plain", "mul", "relinearize",
        "square", "rescale", "level_down", "rotate", "conjugate", "rotate_hoisted",
        "rotate_hoisted_raw", "rotate_hoisted_slabs", "galois_offset_exponent",
        "encode_encrypt", "_apply_galois", "_keyswitch", "_ks_decompose",
        "_ks_inner", "_ks_moddown", "_check_levels", "_full_chain", "_data_chain",
        "_ks_chain",
    )

    def test_context_has_no_evaluator_op(self):
        assert [name for name in self.MOVED if hasattr(CkksContext, name)] == []

    def test_mismatches_raise_the_backend_message(self, ckks, data):
        a, b = data
        ct = ckks.encode_encrypt(a)
        low = ckks.level_down(ckks.encode_encrypt(b), 1)
        top = ct.level
        pt = ckks.encode(b, top, ct.scale)
        squared = ckks.mul_plain(ct, pt)
        with pytest.raises(ValueError, match=f"^HAdd: level mismatch {top} vs 1$"):
            ckks.add(ct, low)
        with pytest.raises(ValueError, match="^HAdd: scale mismatch "):
            ckks.add(ct, squared)
        with pytest.raises(ValueError, match=f"^PAdd: level mismatch 1 vs {top}$"):
            ckks.add_plain(low, pt)
        with pytest.raises(ValueError, match="^PAdd: scale mismatch "):
            ckks.add_plain(squared, pt)
        with pytest.raises(ValueError, match=f"^HMult: level mismatch {top} vs 1$"):
            ckks.mul(ct, low)


class TestBootstrap:
    def test_bootstrap_restores_levels(self, ckks, data):
        a, _ = data
        ct = ckks.level_down(ckks.encode_encrypt(a), 0)
        boosted = ckks.bootstrap(ct)
        assert boosted.level == ckks.params.effective_level
        assert np.abs(ckks.decrypt(boosted) - a).max() < TOLERANCE

    def test_bootstrap_rejects_out_of_range(self, ckks):
        big = np.full(ckks.slot_count, 3.0)
        ct = ckks.encode_encrypt(big)
        with pytest.raises(ValueError):
            ckks.bootstrap(ct)

    def test_computation_continues_after_bootstrap(self, ckks, data):
        a, _ = data
        ct = ckks.level_down(ckks.encode_encrypt(a), 0)
        boosted = ckks.bootstrap(ct)
        pt = ckks.encode(np.full(ckks.slot_count, 0.5), boosted.level, ckks.params.scale)
        out = ckks.rescale(ckks.mul_plain(boosted, pt))
        assert np.abs(ckks.decrypt(out) - 0.5 * a).max() < TOLERANCE


class TestKeyManagement:
    def test_rotation_keys_cached(self, ckks):
        before = ckks.context.keys.num_rotation_keys()
        ckks.context.generate_rotation_keys([3, 3, 3])
        after = ckks.context.keys.num_rotation_keys()
        assert after <= before + 1

    def test_public_key_encryption_differs_from_plain(self, ckks, data):
        """Two encryptions of the same message differ (semantic security)."""
        a, _ = data
        first = ckks.encode_encrypt(a)
        second = ckks.encode_encrypt(a)
        assert not np.array_equal(first.data[0], second.data[0])
