"""Tests for tracing and SESE region extraction."""

import numpy as np
import pytest

import repro.orion.nn as on
from repro.autograd.tensor import Tensor, no_grad
from repro.core.ranges import estimate_ranges
from repro.models import (
    AlexNet,
    LeNet5,
    LolaCnn,
    MobileNetV1,
    SecureMlp,
    Vgg16,
    YoloV1,
    resnet_imagenet,
    square_act,
)
from repro.trace.graph import trace_structure, tracer
from repro.trace.sese import RegionItem, build_region_tree
from repro.models.resnet import BasicBlock, resnet_cifar
from repro.nn import init

from reference.numeric_trace import numeric_trace


def trace_net(net, shape=(1, 4, 4)):
    return trace_structure(net, shape)


class _ChainNet(on.Module):
    def __init__(self):
        super().__init__()
        self.conv = on.Conv2d(1, 2, 3, 1, 1)
        self.act = on.Square()
        self.flat = on.Flatten()
        self.fc = on.Linear(32, 4)

    def forward(self, x):
        return self.fc(self.flat(self.act(self.conv(x))))


class _ResidualNet(on.Module):
    def __init__(self):
        super().__init__()
        self.conv1 = on.Conv2d(1, 2, 3, 1, 1)
        self.block = BasicBlock(2, 2, 1, act=lambda: on.Square())

    def forward(self, x):
        return self.block(self.conv1(x))


class TestTracing:
    def test_chain_records_all_leaves(self):
        graph = trace_net(_ChainNet())
        kinds = [type(n.module).__name__ for n in graph.nodes]
        assert kinds == ["Conv2d", "Square", "Flatten", "Linear"]

    def test_shapes_recorded(self):
        graph = trace_net(_ChainNet())
        assert graph.nodes[0].output_shape == (2, 4, 4)
        assert graph.nodes[-1].output_shape == (4,)

    def test_uids_connect(self):
        graph = trace_net(_ChainNet())
        for prev, nxt in zip(graph.nodes, graph.nodes[1:]):
            assert nxt.inputs == (prev.output,)

    def test_fork_detection(self):
        graph = trace_net(_ResidualNet())
        forks = [uid for uid, users in graph.consumers().items() if len(users) > 1]
        assert len(forks) == 1

    def test_not_tracing_runs_plain(self):
        net = _ChainNet()
        net.eval()
        with no_grad():
            out = net(Tensor(np.zeros((1, 1, 4, 4))))
        assert out.shape == (1, 4)

    def test_raw_tensor_during_trace_raises(self):
        net = _ChainNet()
        with tracer():
            with pytest.raises(TypeError):
                net.conv(Tensor(np.zeros((1, 1, 4, 4))))


class _Wiring(on.Module):
    """conv(c_in -> 2) -> bn(bn_features) -> flatten -> fc(fc_in -> 2),
    plus an Add of the conv output with a second conv's output."""

    def __init__(self, c_in=1, bn_features=2, fc_in=32, side_out=2):
        super().__init__()
        self.conv = on.Conv2d(c_in, 2, 3, 1, 1)
        self.side = on.Conv2d(1, side_out, 3, 1, 1)
        self.bn = on.BatchNorm2d(bn_features)
        self.add = on.Add()
        self.flat = on.Flatten()
        self.fc = on.Linear(fc_in, 4)

    def forward(self, x):
        joined = self.add(self.bn(self.conv(x)), self.side(x))
        return self.fc(self.flat(joined))


class TestShapeRules:
    """A shape-only trace fails where the cleartext forward fails, with
    a message naming the module."""

    def test_wiring_traces(self):
        graph = trace_net(_Wiring())
        assert graph.nodes[-1].output_shape == (4,)

    @pytest.mark.parametrize(
        "kwargs, module",
        [
            ({"c_in": 3}, "Conv2d"),
            ({"fc_in": 31}, "Linear"),
            ({"bn_features": 3}, "BatchNorm2d"),
            ({"side_out": 3}, "Add"),
        ],
    )
    def test_mismatch_is_refused_like_the_forward(self, kwargs, module):
        init.seed_init(0)
        net = _Wiring(**kwargs)
        net.eval()
        with pytest.raises(Exception):
            with no_grad():
                net(Tensor(np.zeros((1, 1, 4, 4))))
        with pytest.raises(ValueError, match=module):
            trace_net(net)

    def test_linear_refuses_an_unflattened_input(self):
        with pytest.raises(ValueError, match="Linear"):
            trace_net(on.Linear(16, 4), (1, 4, 4))

    def test_batchnorm1d_checks_features(self):
        with pytest.raises(ValueError, match="BatchNorm1d"):
            trace_net(on.BatchNorm1d(5), (4,))

    def test_calibration_trace_checks_the_rule_against_the_forward(
        self, monkeypatch
    ):
        net = _ChainNet()
        net.eval()
        graph = trace_net(net)
        # A rule that disagrees with the forward it describes.
        monkeypatch.setattr(on.Square, "traced_shape", lambda self, shape: (1,))
        batch = np.zeros((2, 1, 4, 4))
        with pytest.raises(ValueError, match="Square.*traced_shape"):
            estimate_ranges(net, graph, [batch])

    def test_shape_trace_runs_no_forward(self, monkeypatch):
        def refuse(module, *args):
            raise AssertionError("forward ran")

        for leaf in (on.Conv2d, on.Square, on.Flatten, on.Linear):
            monkeypatch.setattr(leaf, "forward", refuse)
        assert len(trace_net(_ChainNet()).nodes) == 4


def _zoo():
    """Every model family at a test-sized width, with its input shape."""
    sq = square_act()
    return [
        ("secure_mlp", lambda: SecureMlp(64, 16), (1, 8, 8)),
        ("lenet", lambda: LeNet5(), (1, 28, 28)),
        ("lola", lambda: LolaCnn(image_size=16, channels=3), (1, 16, 16)),
        ("resnet8", lambda: resnet_cifar(8, act=sq, width=4), (3, 8, 8)),
        ("resnet20", lambda: resnet_cifar(20, act=sq, width=4), (3, 8, 8)),
        ("resnet18", lambda: resnet_imagenet(18, act=sq, width=4, classes=4),
         (3, 32, 32)),
        ("resnet50", lambda: resnet_imagenet(50, act=sq, width=4, classes=4),
         (3, 32, 32)),
        ("mobilenet", lambda: MobileNetV1(width=4, num_blocks=4, act=sq, classes=4),
         (3, 16, 16)),
        ("alexnet", lambda: AlexNet(act=sq, width=4), (3, 32, 32)),
        ("vgg16", lambda: Vgg16(act=sq, width=4), (3, 32, 32)),
        ("yolo", lambda: YoloV1(grid=2, classes=3, act=sq, width=4, head_width=8,
                                fc_hidden=8), (3, 128, 128)),
    ]


class TestShapeTraceIsTheNumericTrace:
    @pytest.mark.parametrize("name, builder, shape", _zoo(), ids=[z[0] for z in _zoo()])
    def test_node_for_node(self, name, builder, shape):
        init.seed_init(0)
        net = builder()
        got = trace_structure(net, shape)
        want = numeric_trace(net, shape)
        assert (got.input_uid, got.output_uid) == (want.input_uid, want.output_uid)
        assert len(got.nodes) == len(want.nodes)
        for a, b in zip(got.nodes, want.nodes):
            assert a.module is b.module, (a.name, b.name)
            assert (a.index, a.inputs, a.output) == (b.index, b.inputs, b.output)
            assert a.input_shapes == b.input_shapes, a.name
            assert a.output_shape == b.output_shape, a.name


class TestRegionTree:
    def test_chain_has_no_regions(self):
        tree = build_region_tree(trace_net(_ChainNet()))
        assert tree.region_count() == 0
        assert len(tree.items) == 4

    def test_residual_block_region(self):
        tree = build_region_tree(trace_net(_ResidualNet()))
        assert tree.region_count() == 1
        region = next(i for i in tree.items if isinstance(i, RegionItem))
        # Identity shortcut: one branch empty, join is the Add.
        assert type(region.join.module).__name__ == "Add"
        lens = sorted([len(region.branch_a.items), len(region.branch_b.items)])
        assert lens[0] == 0 and lens[1] >= 4

    def test_resnet20_region_count(self):
        init.seed_init(0)
        net = resnet_cifar(20, act=lambda: on.Square(), width=4)
        tree = build_region_tree(trace_net(net, (3, 8, 8)))
        # 9 residual blocks -> 9 regions.
        assert tree.region_count() == 9

    def test_layer_nodes_cover_graph(self):
        graph = trace_net(_ResidualNet())
        tree = build_region_tree(graph)
        assert len(tree.layer_nodes()) == len(graph.nodes)

    def test_projection_shortcut_region(self):
        init.seed_init(0)
        net = BasicBlock(2, 4, 2, act=lambda: on.Square())
        graph = trace_net(net, (2, 8, 8))
        tree = build_region_tree(graph)
        region = next(i for i in tree.items if isinstance(i, RegionItem))
        lens = sorted([len(region.branch_a.items), len(region.branch_b.items)])
        assert lens[0] == 2  # conv + bn shortcut
