"""Tests for the module system, layers, optimizers, and training."""

import tracemalloc

import numpy as np
import pytest

from repro import models, nn
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.datasets import DataLoader, mnist_like
from repro.nn import init
from repro.nn.layers import Conv2d, Linear


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

    def test_zero_grad(self):
        layer = nn.Linear(3, 1)
        out = layer(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        nn.SGD(layer.parameters()).zero_grad()
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


ZOO = {
    "SecureMlp": lambda: models.SecureMlp(),
    "LolaCnn": lambda: models.LolaCnn(),
    "LeNet5": lambda: models.LeNet5(),
    "AlexNet": lambda: models.AlexNet(width=8),
    "Vgg16": lambda: models.Vgg16(width=8),
    "resnet_cifar": lambda: models.resnet_cifar(20, width=8),
    "resnet_imagenet": lambda: models.resnet_imagenet(50, width=8, classes=20),
    "MobileNetV1": lambda: models.MobileNetV1(width=8, num_blocks=4, classes=20),
    "YoloV1": lambda: models.YoloV1(grid=2, classes=4, width=8, head_width=16, fc_hidden=16),
}


@pytest.fixture
def built_layers(monkeypatch):
    """Every Conv2d / Linear built while the test runs, in construction order."""
    layers = []
    for cls in (Conv2d, Linear):
        def recording_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            layers.append(self)

        monkeypatch.setattr(cls, "__init__", recording_init)
    return layers


def eager_reference(layers, seed):
    """What drawing at build time gives: one ``uniform`` per parameter, in
    construction order, from a fresh ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    out = []
    for layer in layers:
        if isinstance(layer, Conv2d):
            kh, kw = layer.kernel_size
            fan_in = layer.in_channels // layer.groups * kh * kw
        else:
            fan_in = layer.in_features
        bound = np.sqrt(6.0 / fan_in)
        out.append((layer.weight, rng.uniform(-bound, bound, size=layer.weight.shape)))
        if layer.bias is not None:
            bound = 1.0 / np.sqrt(fan_in)
            out.append((layer.bias, rng.uniform(-bound, bound, size=layer.bias.shape)))
    return out


class TestDeferredInit:
    @pytest.mark.parametrize("order", ["construction", "reverse"])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_weights_equal_eager_draws(self, built_layers, name, order):
        """Two models built back to back from one seed_init: every
        parameter, whenever it is first read, holds the bytes an eager
        draw at build time would have given."""
        names = sorted(ZOO)
        second = names[(names.index(name) + 1) % len(names)]
        init.seed_init(11)
        ZOO[name]()
        ZOO[second]()
        expected = eager_reference(built_layers, 11)
        assert expected
        pairs = expected if order == "construction" else expected[::-1]
        drawn = [param.data for param, _ in pairs]
        for value, (param, reference) in zip(drawn, pairs):
            assert value.dtype == np.float64 and value.shape == param.shape
            assert value.tobytes() == reference.tobytes()

    def test_analyze_compile_of_resnet34_allocates_no_weight(self):
        """ResNet-34's 21.8 M float64 weights are 168 MB; an analyze-mode
        compile reads only their shapes, so building and compiling it
        stays far below that."""
        from repro.ckks.params import paper_parameters
        from repro.orion import OrionNetwork

        params = paper_parameters()
        init.seed_init(0)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            net = OrionNetwork(models.resnet_imagenet(34, act=models.silu_act(127)), (3, 224, 224))
            net.compile(params, mode="analyze")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_shape_queries_do_not_draw(self, monkeypatch):
        draws = []
        replay = init.Draw.__call__
        monkeypatch.setattr(init.Draw, "__call__", lambda self: draws.append(self) or replay(self))
        layer = nn.Conv2d(3, 8, kernel_size=3)
        weight = layer.weight
        assert (weight.shape, weight.ndim, weight.size) == ((8, 3, 3, 3), 4, 216)
        assert (layer.bias.shape, layer.bias.ndim, layer.bias.size) == ((8,), 1, 8)
        assert draws == []
        first = weight.data
        assert weight.data is first and len(draws) == 1

    def test_sgd_step_on_an_undrawn_parameter(self):
        init.seed_init(3)
        layer = nn.Linear(4, 3)
        bound = np.sqrt(6.0 / 4)
        expected = np.random.default_rng(3).uniform(-bound, bound, size=(3, 4))
        grad = np.arange(12.0).reshape(3, 4)
        layer.weight.grad = grad
        nn.SGD([layer.weight], lr=0.1).step()
        assert np.array_equal(layer.weight.data, expected - 0.1 * grad)

    def test_assignment_replaces_a_pending_draw(self):
        init.seed_init(4)
        first = nn.Linear(4, 3)
        first.weight.data = np.ones((2, 5))
        assert first.weight.shape == (2, 5) and first.weight.size == 10
        assert np.array_equal(first.weight.data, np.ones((2, 5)))
        # The stream already moved past the replaced draw at build time.
        second = nn.Linear(4, 3, bias=False)
        rng = np.random.default_rng(4)
        rng.uniform(size=12 + 3)
        bound = np.sqrt(6.0 / 4)
        assert np.array_equal(second.weight.data, rng.uniform(-bound, bound, size=(3, 4)))
