"""Table 2: the main evaluation — every network/dataset combination.

Execution-mode rows (MNIST, CIFAR scale) train a network on the
synthetic stand-in dataset, run true FHE inference on the simulation
backend, and report rotations / depth / bootstraps / cleartext vs FHE
accuracy / output precision in bits / modeled latency.  Analysis-mode
rows (Tiny ImageNet, ImageNet scale) report the compile-time statistics
for the paper-scale architectures, exactly as the paper only runs a
handful of encrypted inferences at that scale.

Expected shapes vs the paper: MNIST nets at depth 5/5/7 with zero
bootstraps; activation depth (and hence bootstraps) roughly halves from
ReLU to SiLU; rotations grow with FLOPs, not parameters.
"""

import zlib

import numpy as np
import pytest

import repro.orion.nn as on
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.backend import SimBackend
from repro.ckks.params import paper_parameters
from repro.datasets import DataLoader, cifar_like, mnist_like
from repro.models import (
    AlexNet,
    LeNet5,
    LolaCnn,
    MobileNetV1,
    SecureMlp,
    Vgg16,
    resnet_cifar,
    resnet_imagenet,
    silu_act,
)
from repro.nn import SGD, init
from repro.orion import OrionNetwork

PARAMS = paper_parameters()


def _seed(name):
    """A network's init seed: a digest of its row name, the same in
    every process (``hash`` of a ``str`` is salted per process)."""
    return zlib.crc32(name.encode()) % 1000


def train(net, dataset, epochs=3, lr=0.05, batch=32, seed=0):
    loader = DataLoader(dataset, batch_size=batch, seed=seed)
    opt = SGD(net.parameters(), lr=lr, momentum=0.9)
    net.train()
    for _ in range(epochs):
        for images, labels in loader:
            opt.zero_grad()
            loss = F.cross_entropy(net(Tensor(images)), labels)
            loss.backward()
            opt.step()
    net.eval()


def accuracy(net, images, labels):
    with no_grad():
        logits = net(Tensor(images)).data
    return float((logits.argmax(axis=1) == labels).mean())


def fhe_accuracy(onet, compiled, images, labels, seed=0):
    backend = SimBackend(PARAMS, seed=seed)
    correct = 0
    bits = []
    for i in range(len(images)):
        fhe = compiled.run(backend, images[i])
        clear = onet.forward_cleartext(images[i])
        correct += int(fhe.argmax() == labels[i])
        bits.append(OrionNetwork.precision_bits(fhe, clear))
    return correct / len(images), float(np.mean(bits)), backend


def _row(name, act_name, compiled, clear_acc, fhe_acc, bits):
    return (
        name,
        act_name,
        compiled.total_rotations,
        compiled.multiplicative_depth,
        compiled.num_bootstraps,
        f"{clear_acc:.1%}" if clear_acc is not None else "N/A",
        f"{fhe_acc:.1%}" if fhe_acc is not None else "N/A",
        f"{bits:.1f}" if bits is not None else "N/A",
        f"{compiled.modeled_seconds:.1f}",
    )


HEADER = ("model", "act", "#rots", "depth", "#boots", "clear acc", "FHE acc",
          "prec (b)", "time (s, modeled)")


@pytest.fixture(scope="module")
def results():
    return []


def test_table2_mnist_rows(results, record_table, benchmark):
    data = mnist_like(384, seed=0)
    trainset, testset = data.split(0.8)
    test_imgs = testset.images[:16]
    test_labels = testset.labels[:16]
    configs = [
        ("MLP", lambda: SecureMlp(784, 128)),
        ("LoLA", lambda: LolaCnn(28)),
        ("LeNet-5", lambda: LeNet5(28)),
    ]
    for name, builder in configs:
        init.seed_init(_seed(name))
        net = builder()
        train(net, trainset, epochs=3)
        onet = OrionNetwork(net, (1, 28, 28))
        onet.fit([trainset.images[:64]])
        compiled = onet.compile(PARAMS)
        clear_acc = accuracy(net, testset.images, testset.labels)
        fhe_acc, bits, _ = fhe_accuracy(onet, compiled, test_imgs, test_labels)
        results.append(_row(name, "x^2", compiled, clear_acc, fhe_acc, bits))
        if name in ("MLP", "LoLA"):
            # Paper: no bootstrapping needed for MNIST networks.  (Our
            # LeNet-5 does not fuse average pools into the adjacent
            # linear layers, so its depth is 11 rather than the paper's
            # 7 and one bootstrap appears; see docs/substitutions.md.)
            assert compiled.num_bootstraps == 0
        if name == "MLP":
            assert compiled.multiplicative_depth == 5
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_table2_cifar_rows(results, record_table, benchmark):
    data = cifar_like(384, seed=1)
    trainset, testset = data.split(0.8)
    test_imgs = testset.images[:12]
    test_labels = testset.labels[:12]
    configs = [
        ("ResNet-20 (w8)", lambda a: resnet_cifar(20, act=a, width=8),
         [("ReLU", lambda: on.ReLU(degrees=(15, 15, 27))), ("SiLU", silu_act(127))]),
        ("AlexNet (w16)", lambda a: AlexNet(act=a, width=16),
         [("SiLU", silu_act(127))]),
        ("VGG-16 (w16)", lambda a: Vgg16(act=a, width=16),
         [("SiLU", silu_act(127))]),
    ]
    for name, builder, acts in configs:
        for act_name, act in acts:
            init.seed_init(_seed(name + act_name))
            net = builder(act)
            train(net, trainset, epochs=2, lr=0.02)
            onet = OrionNetwork(net, (3, 32, 32))
            onet.fit([trainset.images[:64]])
            compiled = onet.compile(PARAMS)
            clear_acc = accuracy(net, testset.images, testset.labels)
            fhe_acc, bits, _ = fhe_accuracy(onet, compiled, test_imgs, test_labels)
            results.append(_row(name, act_name, compiled, clear_acc, fhe_acc, bits))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_table2_large_rows_analysis(results, record_table, benchmark):
    """Tiny ImageNet and ImageNet scale: paper-size architectures in
    analyze mode (the paper itself reports N/A accuracy at this scale)."""
    configs = [
        ("MobileNet-v1", lambda: MobileNetV1(classes=200, act=silu_act(127)), (3, 64, 64)),
        ("ResNet-18", lambda: resnet_imagenet(18, act=silu_act(127), classes=200), (3, 64, 64)),
        ("ResNet-34", lambda: resnet_imagenet(34, act=silu_act(127)), (3, 224, 224)),
        ("ResNet-50", lambda: resnet_imagenet(50, act=silu_act(127)), (3, 224, 224)),
    ]
    for name, builder, shape in configs:
        init.seed_init(_seed(name))
        net = builder()
        onet = OrionNetwork(net, shape)
        compiled = onet.compile(PARAMS, mode="analyze")
        results.append(_row(f"{name} {shape[1]}px", "SiLU", compiled, None, None, None))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_table2_emit(results, record_table, benchmark):
    record_table("table2_main", "Table 2: main results across networks", HEADER, results)
    # Qualitative checks the paper's table supports:
    by_name = {r[0] + "/" + r[1]: r for r in results}
    relu = by_name.get("ResNet-20 (w8)/ReLU")
    silu = by_name.get("ResNet-20 (w8)/SiLU")
    if relu and silu:
        assert silu[3] < relu[3]  # SiLU halves activation depth
        assert silu[4] <= relu[4]  # and needs fewer bootstraps
    assert len(results) >= 9
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


