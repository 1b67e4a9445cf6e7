"""Tests for the module system, layers, optimizers, and training."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.datasets import DataLoader, mnist_like


class TestModuleRegistry:
    def test_parameter_registration(self):
        layer = nn.Linear(4, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_module_traversal(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        names = [n for n, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.BatchNorm2d(3))
        model.eval()
        assert not model.training
        assert not next(iter(model)).training

    def test_state_dict_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Conv2d(1, 2, 3), nn.BatchNorm2d(2))
        model.state_dict()["1.running_mean"][:] = 0  # copy, no effect
        path = str(tmp_path / "weights.npz")
        model.save(path)
        clone = nn.Sequential(nn.Conv2d(1, 2, 3), nn.BatchNorm2d(2))
        clone.load(path)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_load_missing_key_raises(self):
        model = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_zero_grad(self):
        layer = nn.Linear(3, 1)
        out = layer(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_conv_shape_inference_matches_forward(self):
        conv = nn.Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        out = conv(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.shape[1:] == conv.output_shape((3, 32, 32))

    def test_conv_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 4, 3, groups=2)

    def test_linear_shapes(self):
        layer = nn.Linear(10, 5)
        out = layer(Tensor(np.zeros((7, 10))))
        assert out.shape == (7, 5)

    def test_batchnorm_folding(self):
        """folded_affine must reproduce eval-mode batchnorm exactly."""
        bn = nn.BatchNorm2d(4)
        bn.running_mean[:] = np.array([1.0, -2.0, 0.5, 3.0])
        bn.running_var[:] = np.array([4.0, 1.0, 0.25, 9.0])
        bn.weight.data = np.array([2.0, 1.0, -1.0, 0.5])
        bn.bias.data = np.array([0.0, 1.0, 2.0, -1.0])
        bn.eval()
        x = np.random.default_rng(0).normal(size=(2, 4, 3, 3))
        expected = bn(Tensor(x)).data
        scale, shift = bn.folded_affine()
        folded = x * scale[None, :, None, None] + shift[None, :, None, None]
        assert np.allclose(folded, expected, atol=1e-10)

    def test_avgpool_output_shape_helper(self):
        pool = nn.AvgPool2d(2)
        assert pool.output_shape((8, 16, 16)) == (8, 8, 8)

    def test_adaptive_pool_is_global(self):
        pool = nn.AdaptiveAvgPool2d(1)
        x = np.random.default_rng(0).normal(size=(2, 3, 7, 7))
        out = pool(Tensor(x)).data
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out[..., 0, 0], x.mean(axis=(2, 3)))

    @pytest.mark.parametrize("shape", [(2, 2, 12, 8), (2, 2, 8, 12)])
    def test_adaptive_pool_is_global_on_non_square_maps(self, shape):
        x = np.random.default_rng(1).normal(size=shape)
        out = nn.AdaptiveAvgPool2d(1)(Tensor(x)).data
        assert np.allclose(out, x.mean((2, 3), keepdims=True), rtol=0, atol=1e-15)

    def test_flatten(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_activations_match_functional(self):
        x = Tensor(np.linspace(-2, 2, 9))
        assert np.allclose(nn.ReLU()(x).data, F.relu(x).data)
        assert np.allclose(nn.SiLU()(x).data, F.silu(x).data)
        assert np.allclose(nn.Square()(x).data, x.data**2)


class TestOptim:
    def test_sgd_reduces_quadratic(self):
        param = nn.Parameter(np.array([5.0]))
        opt = nn.SGD([param], lr=0.1)
        for _ in range(50):
            opt.zero_grad()
            loss = (Tensor(1.0) * param * param).sum()
            loss.backward()
            opt.step()
        assert abs(param.data[0]) < 1e-3

    def test_sgd_momentum_accelerates(self):
        def run(momentum):
            param = nn.Parameter(np.array([5.0]))
            opt = nn.SGD([param], lr=0.02, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                (param * param).sum().backward()
                opt.step()
            return abs(param.data[0])

        assert run(0.9) < run(0.0)

    def test_adam_converges(self):
        param = nn.Parameter(np.array([3.0, -4.0]))
        opt = nn.Adam([param], lr=0.2)
        for _ in range(250):
            opt.zero_grad()
            (param * param).sum().backward()
            opt.step()
        assert np.abs(param.data).max() < 2e-2

    def test_weight_decay_shrinks(self):
        param = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([param], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (param * Tensor(0.0)).sum().backward()
        opt.step()
        assert param.data[0] == pytest.approx(0.9)


class TestEndToEndTraining:
    def test_small_cnn_learns_synthetic_mnist(self):
        """A tiny CNN must beat random accuracy by a wide margin."""
        from repro.nn import init

        init.seed_init(0)
        data = mnist_like(num_samples=256, seed=0)
        train, test = data.split(0.75)
        model = nn.Sequential(
            nn.Conv2d(1, 8, 5, stride=2, padding=2),
            nn.ReLU(),
            nn.Conv2d(8, 16, 3, stride=2, padding=1),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(16 * 7 * 7, 10),
        )
        opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        loader = DataLoader(train, batch_size=32, seed=0)
        for _ in range(6):
            for images, labels in loader:
                opt.zero_grad()
                loss = F.cross_entropy(model(Tensor(images)), labels)
                loss.backward()
                opt.step()
        model.eval()
        with no_grad():
            logits = model(Tensor(test.images)).data
        accuracy = (logits.argmax(axis=1) == test.labels).mean()
        assert accuracy > 0.6, f"accuracy {accuracy:.2f} too low"
