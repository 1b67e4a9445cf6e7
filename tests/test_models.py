"""Tests for the model zoo: shapes, parameter counts, traceability."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.models import (
    AlexNet,
    LeNet5,
    LolaCnn,
    MobileNetV1,
    SecureMlp,
    Vgg16,
    YoloV1,
    resnet_cifar,
    resnet_imagenet,
    square_act,
)
from repro.nn import init
from repro.trace.graph import trace_structure
from repro.trace.sese import build_region_tree


def forward_shape(net, shape):
    net.eval()
    with no_grad():
        return net(Tensor(np.zeros((2,) + shape))).shape


class TestShapes:
    def test_mnist_models(self):
        init.seed_init(0)
        assert forward_shape(SecureMlp(), (1, 28, 28)) == (2, 10)
        assert forward_shape(LolaCnn(), (1, 28, 28)) == (2, 10)
        assert forward_shape(LeNet5(), (1, 28, 28)) == (2, 10)

    def test_cifar_models(self):
        init.seed_init(0)
        assert forward_shape(AlexNet(width=8), (3, 32, 32)) == (2, 10)
        assert forward_shape(Vgg16(width=8), (3, 32, 32)) == (2, 10)
        assert forward_shape(resnet_cifar(20, width=8), (3, 32, 32)) == (2, 10)

    def test_imagenet_models(self):
        init.seed_init(0)
        for depth in (18, 34, 50):
            net = resnet_imagenet(depth, width=8, classes=20)
            assert forward_shape(net, (3, 64, 64)) == (2, 20)

    def test_mobilenet(self):
        init.seed_init(0)
        net = MobileNetV1(width=8, num_blocks=4, classes=20)
        assert forward_shape(net, (3, 64, 64)) == (2, 20)

    def test_yolo(self):
        init.seed_init(0)
        net = YoloV1(grid=2, classes=4, width=8, head_width=16, fc_hidden=16)
        assert forward_shape(net, (3, 128, 128)) == (2, 2 * 2 * (2 * 5 + 4))

    def test_cifar_resnet_depth_validation(self):
        with pytest.raises(ValueError):
            resnet_cifar(21)
        with pytest.raises(ValueError):
            resnet_imagenet(29)


class TestPaperScaleParameterCounts:
    """Table 2's Params (M) column."""

    @pytest.mark.parametrize(
        "builder, expected_m, tolerance",
        [
            (lambda: SecureMlp(), 0.12, 0.02),
            (lambda: resnet_cifar(20), 0.27, 0.03),
            (lambda: resnet_imagenet(18, classes=200), 11.3, 0.3),
            (lambda: resnet_imagenet(34), 21.8, 0.5),
            (lambda: resnet_imagenet(50), 25.6, 0.5),
            (lambda: YoloV1(), 139.0, 6.0),
        ],
    )
    def test_param_counts(self, builder, expected_m, tolerance):
        init.seed_init(0)
        net = builder()
        millions = sum(p.size for p in net.parameters()) / 1e6
        assert abs(millions - expected_m) < tolerance, f"{millions:.2f}M"


class TestTraceability:
    """Every zoo model must trace into a well-formed region tree."""

    @pytest.mark.parametrize(
        "builder, shape, regions",
        [
            (lambda: SecureMlp(64, 16), (1, 8, 8), 0),
            (lambda: resnet_cifar(20, act=square_act(), width=4), (3, 8, 8), 9),
            (lambda: MobileNetV1(width=4, num_blocks=3, act=square_act(), classes=4),
             (3, 16, 16), 0),
            (lambda: resnet_imagenet(50, act=square_act(), width=4, classes=4),
             (3, 32, 32), 16),
        ],
    )
    def test_region_tree(self, builder, shape, regions):
        init.seed_init(0)
        graph = trace_structure(builder(), shape)
        tree = build_region_tree(graph)
        assert tree.region_count() == regions
        assert len(tree.layer_nodes()) == len(graph.nodes)

    def test_yolo_decode_roundtrip(self):
        init.seed_init(0)
        net = YoloV1(grid=2, classes=3, width=4, head_width=8, fc_hidden=8)
        rng = np.random.default_rng(0)
        output = rng.normal(size=2 * 2 * (2 * 5 + 3))
        detections = net.decode(output, threshold=0.0)
        for cls, conf, cx, cy, w, h in detections:
            assert 0 <= cls < 3
            assert 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0
