"""Tests for encrypted self-attention (repro.core.attention).

Covers the generic encrypted building blocks (rotation trees, inner
products, wraparound matvec, bounded-interval inverse) and the full
attention layer against both the polynomial and the true-softmax
cleartext references.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sim import SimBackend
from repro.ckks.params import paper_parameters
from repro.core.attention import (
    AttentionConfig,
    EncryptedAttention,
    affine_to_unit,
    broadcast_slot0,
    chebyshev_inverse,
    encrypted_inner_product,
    rotate_sum,
    square_matvec,
    square_packing,
)

PARAMS = paper_parameters(max_level=24)


@pytest.fixture()
def backend():
    return SimBackend(PARAMS, seed=0, noise_free=True)


def _encrypt(backend, values):
    return backend.encode_encrypt(values, level=PARAMS.max_level)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
class TestRotationTrees:
    @pytest.mark.parametrize("width", [1, 2, 8, 64])
    def test_rotate_sum_folds_prefix(self, backend, width):
        values = np.arange(1.0, 129.0)
        ct = rotate_sum(backend, _encrypt(backend, values), width)
        assert backend.decrypt(ct)[0] == pytest.approx(values[:width].sum())

    def test_rotate_sum_rejects_non_power_of_two(self, backend):
        with pytest.raises(ValueError, match="power-of-two"):
            rotate_sum(backend, _encrypt(backend, np.ones(8)), 6)

    def test_broadcast_slot0_fills_every_slot(self, backend):
        values = np.zeros(16)
        values[0] = 2.5
        ct = broadcast_slot0(backend, _encrypt(backend, values))
        got = backend.decrypt(ct)
        assert np.allclose(got, 2.5, atol=1e-9)

    def test_rotation_trees_cost_log_rotations(self, backend):
        """"# Rots" accounting: the fold tree reports log2(width)
        rotations whether it runs sequentially (hrot) or expanded off
        one shared decomposition (hrot_hoisted, charged_rotations)."""
        before = backend.ledger.rotations
        rotate_sum(backend, _encrypt(backend, np.ones(64)), 64)
        assert backend.ledger.rotations - before == 6


class TestInnerProduct:
    def test_matches_numpy_dot(self, backend):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(-1, 1, 32), rng.uniform(-1, 1, 32)
        ct = encrypted_inner_product(
            backend, _encrypt(backend, a), _encrypt(backend, b), 32
        )
        got = backend.decrypt(ct)
        assert got[0] == pytest.approx(float(a @ b), abs=1e-9)
        # broadcast: every slot carries the scalar
        assert np.allclose(got, got[0], atol=1e-9)

    def test_post_factor_is_applied(self, backend):
        a = np.ones(16)
        ct = encrypted_inner_product(
            backend, _encrypt(backend, a), _encrypt(backend, a), 16, post_factor=0.25
        )
        assert backend.decrypt(ct)[0] == pytest.approx(4.0)

    def test_consumes_two_levels(self, backend):
        a = _encrypt(backend, np.ones(8))
        out = encrypted_inner_product(backend, a, a, 8)
        assert backend.level_of(out) == PARAMS.max_level - 2


class TestSquareMatvec:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_numpy(self, seed):
        backend = SimBackend(PARAMS, seed=0, noise_free=True)
        rng = np.random.default_rng(seed)
        d = int(rng.choice([4, 8, 16]))
        matrix = rng.normal(size=(d, d))
        vec = rng.uniform(-1, 1, d)
        packed = square_packing(matrix, backend.slot_count)
        out = square_matvec(backend, _encrypt(backend, vec), packed)
        assert np.abs(backend.decrypt(out)[:d] - matrix @ vec).max() < 1e-9

    def test_wraparound_diagonals(self, backend):
        """A pure shift matrix exercises exactly the wrapped halves."""
        d = 8
        matrix = np.zeros((d, d))
        for i in range(d):
            matrix[i, (i + 5) % d] = 1.0
        vec = np.arange(1.0, d + 1)
        packed = square_packing(matrix, backend.slot_count)
        out = square_matvec(backend, _encrypt(backend, vec), packed)
        assert np.allclose(backend.decrypt(out)[:d], np.roll(vec, -5), atol=1e-9)

    def test_sparse_matrix_skips_zero_diagonals(self, backend):
        d = 8
        before = backend.ledger.counts["pmult"]
        packed = square_packing(np.eye(d), backend.slot_count)
        square_matvec(backend, _encrypt(backend, np.ones(d)), packed)
        # identity = one diagonal, no wraparound half
        assert backend.ledger.counts["pmult"] - before == 1

    def test_rejects_rectangular(self, backend):
        with pytest.raises(ValueError, match="square"):
            square_packing(np.ones((4, 8)), backend.slot_count)

    def test_output_scale_is_input_scale(self, backend):
        """Errorless discipline: encoded-at-prime diagonals keep scale."""
        ct = _encrypt(backend, np.ones(4))
        out = square_matvec(backend, ct, square_packing(np.eye(4), backend.slot_count))
        assert backend.scale_of(out) == backend.scale_of(ct)


class TestInverse:
    def test_chebyshev_inverse_accuracy(self):
        poly = chebyshev_inverse(1.0, 8.0, degree=15)
        s = np.linspace(1.0, 8.0, 200)
        x = (2 * s - 9.0) / 7.0
        assert np.abs(poly(x) - 1.0 / s).max() < 1e-4

    def test_tighter_interval_is_more_accurate(self):
        wide = chebyshev_inverse(0.5, 16.0, degree=9)
        tight = chebyshev_inverse(2.0, 4.0, degree=9)
        s_w = np.linspace(0.5, 16.0, 100)
        s_t = np.linspace(2.0, 4.0, 100)
        err_w = np.abs(wide((2 * s_w - 16.5) / 15.5) - 1 / s_w).max()
        err_t = np.abs(tight((2 * s_t - 6.0) / 2.0) - 1 / s_t).max()
        assert err_t < err_w / 100

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            chebyshev_inverse(-1.0, 2.0)

    def test_affine_to_unit(self, backend):
        ct = _encrypt(backend, np.linspace(2.0, 6.0, 16))
        out = affine_to_unit(backend, ct, 2.0, 6.0)
        got = backend.decrypt(out)[:16]
        assert np.allclose(got, np.linspace(-1.0, 1.0, 16), atol=1e-9)


# ---------------------------------------------------------------------------
# The attention layer
# ---------------------------------------------------------------------------
def _random_attention(backend, d, seed=0, config=AttentionConfig()):
    rng = np.random.default_rng(seed)
    wq, wk, wv = (rng.normal(size=(d, d)) / math.sqrt(d) for _ in range(3))
    return EncryptedAttention(backend, wq, wk, wv, config), rng


class TestEncryptedAttention:
    def test_matches_polynomial_reference(self, backend):
        attn, rng = _random_attention(backend, 16)
        tokens = rng.uniform(-0.5, 0.5, (4, 16))
        cts = [_encrypt(backend, t) for t in tokens]
        outs = attn(cts)
        got = np.stack([backend.decrypt(o)[:16] for o in outs])
        assert np.abs(got - attn.polynomial_reference(tokens)).max() < 1e-4

    def test_close_to_true_softmax(self, backend):
        attn, rng = _random_attention(backend, 16)
        tokens = rng.uniform(-0.5, 0.5, (4, 16))
        cts = [_encrypt(backend, t) for t in tokens]
        outs = attn(cts)
        got = np.stack([backend.decrypt(o)[:16] for o in outs])
        assert np.abs(got - attn.reference(tokens)).max() < 1e-3

    def test_with_noise_still_accurate(self):
        noisy = SimBackend(PARAMS, seed=5, noise_free=False)
        attn, rng = _random_attention(noisy, 8, seed=2)
        tokens = rng.uniform(-0.5, 0.5, (3, 8))
        outs = attn([noisy.encode_encrypt(t, level=PARAMS.max_level) for t in tokens])
        got = np.stack([noisy.decrypt(o)[:8] for o in outs])
        err = np.abs(got - attn.reference(tokens)).mean()
        assert -math.log2(err) > 8.0

    def test_attention_weights_are_normalized(self, backend):
        """Uniform tokens attend uniformly: output = mean of values."""
        attn, _ = _random_attention(backend, 8, seed=3)
        token = np.random.default_rng(4).uniform(-0.5, 0.5, 8)
        tokens = np.stack([token] * 3)
        outs = attn([_encrypt(backend, t) for t in tokens])
        v = tokens @ attn.wv.T
        got = backend.decrypt(outs[0])[:8]
        assert np.abs(got - v.mean(axis=0)).max() < 1e-3

    def test_level_budget_documented(self, backend):
        attn, rng = _random_attention(backend, 8, seed=6)
        tokens = rng.uniform(-0.5, 0.5, (2, 8))
        outs = attn([_encrypt(backend, t) for t in tokens])
        consumed = PARAMS.max_level - backend.level_of(outs[0])
        assert consumed <= 18  # "about 16 levels" per the docstring

    def test_rejects_mismatched_weights(self, backend):
        with pytest.raises(ValueError, match="square"):
            EncryptedAttention(backend, np.ones((4, 4)), np.ones((4, 8)), np.ones((4, 4)))

    def test_rejects_non_power_of_two_dim(self, backend):
        w = np.ones((6, 6))
        with pytest.raises(ValueError, match="power of two"):
            EncryptedAttention(backend, w, w, w)

    def test_config_controls_exp_fit(self, backend):
        config = AttentionConfig(exp_range=2.0, exp_degree=23)
        attn, _ = _random_attention(backend, 8, config=config)
        x = np.linspace(-1, 1, 50)
        assert np.abs(attn.exp_poly(x) - np.exp(2.0 * x)).max() < 1e-6
