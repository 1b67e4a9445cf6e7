"""Gradient checks for the autograd engine (numeric differentiation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(op, x_shape, seed=0, atol=1e-5, **kwargs):
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=x_shape)
    t = Tensor(x_data.copy(), requires_grad=True)
    out = op(t, **kwargs)
    weights = rng.normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()

    def scalar_fn(arr):
        return float((op(Tensor(arr), **kwargs).data * weights).sum())

    expected = numeric_grad(scalar_fn, x_data.copy())
    assert np.allclose(t.grad, expected, atol=atol), (
        f"max diff {np.abs(t.grad - expected).max()}"
    )


class TestElementwiseGrads:
    def test_add_broadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert np.array_equal(a.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        check_gradient(lambda t: t * t, (5,))

    def test_div_grad(self):
        rng = np.random.default_rng(1)
        denom = Tensor(rng.uniform(1.0, 2.0, 6), requires_grad=True)
        numer = Tensor(rng.normal(size=6), requires_grad=True)
        (numer / denom).sum().backward()
        assert np.allclose(numer.grad, 1.0 / denom.data)
        assert np.allclose(denom.grad, -numer.data / denom.data**2)

    def test_relu_grad(self):
        check_gradient(F.relu, (20,))

    def test_silu_grad(self):
        check_gradient(F.silu, (20,))

    def test_square_grad(self):
        check_gradient(F.square, (10,))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_matmul_grad(self, k):
        rng = np.random.default_rng(k)
        a = Tensor(rng.normal(size=(3, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))


class TestShapeGrads:
    def test_reshape_grad(self):
        check_gradient(lambda t: t.reshape(2, 6), (3, 4))

    def test_transpose_grad(self):
        check_gradient(lambda t: F.transpose(t, (1, 0)), (3, 4))

    def test_pad2d_grad(self):
        check_gradient(lambda t: F.pad2d(t, (1, 2)), (1, 2, 3, 3))

    def test_sum_axis_grad(self):
        check_gradient(lambda t: F.sum(t, axis=1), (3, 4))

    def test_mean_grad(self):
        check_gradient(lambda t: F.mean(t, axis=0), (4, 3))


class TestConvGrads:
    def test_conv_forward_matches_direct(self):
        """im2col conv equals a direct nested-loop convolution."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=(2, 2), padding=(1, 1)).data
        expected = _direct_conv(x, w, stride=2, padding=1)
        assert np.allclose(out, expected)

    def test_conv_input_grad(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        check_gradient(
            lambda t: F.conv2d(t, w, stride=(1, 1), padding=(1, 1)),
            (1, 3, 5, 5),
            atol=1e-4,
        )

    def test_conv_weight_grad(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(2, 3, 6, 6))
        w_data = rng.normal(size=(4, 3, 3, 3))
        w = Tensor(w_data.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x_data), w, stride=(2, 2), padding=(1, 1))
        weights = rng.normal(size=out.shape)
        (out * Tensor(weights)).sum().backward()

        def scalar_fn(arr):
            return float(
                (F.conv2d(Tensor(x_data), Tensor(arr), stride=(2, 2), padding=(1, 1)).data * weights).sum()
            )

        expected = numeric_grad(scalar_fn, w_data.copy())
        assert np.allclose(w.grad, expected, atol=1e-4)

    def test_grouped_conv_matches_per_group(self):
        """groups=2 equals two independent half-channel convolutions."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(6, 2, 3, 3))
        grouped = F.conv2d(Tensor(x), Tensor(w), padding=(1, 1), groups=2).data
        lo = F.conv2d(Tensor(x[:, :2]), Tensor(w[:3]), padding=(1, 1)).data
        hi = F.conv2d(Tensor(x[:, 2:]), Tensor(w[3:]), padding=(1, 1)).data
        assert np.allclose(grouped, np.concatenate([lo, hi], axis=1))

    def test_dilated_conv_shape_and_grad(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        out = F.conv2d(Tensor(np.zeros((1, 1, 9, 9))), w, dilation=(2, 2))
        assert out.shape == (1, 1, 5, 5)
        check_gradient(
            lambda t: F.conv2d(t, w, dilation=(2, 2)), (1, 1, 9, 9), atol=1e-4
        )

    def test_depthwise_conv(self):
        """groups == channels: each channel convolved independently."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=(1, 1), groups=3).data
        for c in range(3):
            single = F.conv2d(
                Tensor(x[:, c : c + 1]), Tensor(w[c : c + 1]), padding=(1, 1)
            ).data
            assert np.allclose(out[:, c : c + 1], single)


class TestPoolingAndNorm:
    def test_avg_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), kernel=2).data
        assert np.allclose(out, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool_grad(self):
        check_gradient(lambda t: F.avg_pool2d(t, kernel=2), (1, 2, 4, 4))

    def test_batchnorm_normalizes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(3.0, 2.0, (8, 4, 5, 5)), requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        assert abs(out.data.mean()) < 1e-8
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batchnorm_input_grad(self):
        rng = np.random.default_rng(1)
        gamma_data = rng.normal(size=3) + 1.0
        beta_data = rng.normal(size=3)

        def op(t):
            return F.batch_norm2d(
                t,
                Tensor(gamma_data),
                Tensor(beta_data),
                np.zeros(3),
                np.ones(3),
                training=True,
            )

        check_gradient(op, (4, 3, 3, 3), atol=1e-4)

    def test_batchnorm_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 10.0))
        rm, rv = np.array([10.0]), np.array([4.0])
        out = F.batch_norm2d(
            x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, training=False
        )
        assert np.allclose(out.data, 0.0, atol=1e-2)


class TestLosses:
    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(0)
        logits_data = rng.normal(size=(4, 5))
        targets = np.array([0, 2, 4, 1])
        t = Tensor(logits_data.copy(), requires_grad=True)
        F.cross_entropy(t, targets).backward()

        def scalar_fn(arr):
            return float(F.cross_entropy(Tensor(arr), targets).data)

        expected = numeric_grad(scalar_fn, logits_data.copy())
        assert np.allclose(t.grad, expected, atol=1e-5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-8

class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        with no_grad():
            a = Tensor(np.ones(3), requires_grad=True)
            out = a * a
        assert not out.requires_grad

    def test_gradient_accumulation(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * Tensor(2.0)).sum().backward()
        (a * Tensor(3.0)).sum().backward()
        assert np.allclose(a.grad, [5.0, 5.0])

    def test_diamond_graph(self):
        """A value used twice receives summed gradients."""
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a
        out.backward()
        assert np.allclose(a.grad, [5.0])  # d(a^2 + a)/da = 2a + 1

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (a * a).backward()


def _direct_conv(x, w, stride, padding):
    b, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, co, oh, ow))
    for bi in range(b):
        for o in range(co):
            for y in range(oh):
                for xx in range(ow):
                    patch = xp[bi, :, y * stride : y * stride + kh, xx * stride : xx * stride + kw]
                    out[bi, o, y, xx] = (patch * w[o]).sum()
    return out
