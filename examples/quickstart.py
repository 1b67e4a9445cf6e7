"""Quickstart: encrypted inference in ~40 lines (paper Listing 1 style).

Builds a LoLA-style CNN with orion.nn modules, trains it on the
synthetic MNIST stand-in, compiles it to an FHE program, and runs real
encrypted inferences of a fixed set of test images on the *exact*
RNS-CKKS toy backend — every rotation and rescale below is genuine
lattice arithmetic.  Each image whose encrypted prediction differs from
the cleartext one is printed with its cleartext top-2 margin next to the
run's error, so a near tie reads as one.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.backend import ToyBackend
from repro.ckks.params import toy_parameters
from repro.datasets import mnist_like
from repro.models import LolaCnn
from repro.nn import SGD, init
from repro.orion import OrionNetwork


def main():
    init.seed_init(0)
    net = LolaCnn(image_size=16, channels=3)

    print("Training on the synthetic MNIST stand-in ...")
    data = mnist_like(256, seed=0)
    # The toy backend packs a 16x16 crop (256 slots per image).
    images = data.images[:, :, 6:22, 6:22]
    train_imgs, test_imgs = images[:200], images[200:]
    train_labels, test_labels = data.labels[:200], data.labels[200:]
    opt = SGD(net.parameters(), lr=0.05, momentum=0.9)
    for epoch in range(4):
        for start in range(0, 200, 32):
            opt.zero_grad()
            loss = F.cross_entropy(
                net(Tensor(train_imgs[start : start + 32])),
                train_labels[start : start + 32],
            )
            loss.backward()
            opt.step()
        print(f"  epoch {epoch}: loss {loss.item():.3f}")
    net.eval()

    print("Compiling to an FHE program (pack + approximate + place) ...")
    onet = OrionNetwork(net, (1, 16, 16))
    onet.fit([train_imgs[:64]])
    params = toy_parameters(ring_degree=2048, max_level=6, boot_levels=1)
    compiled = onet.compile(params)
    print(f"  {compiled.summary()}")

    # A fixed set of test images: one near tie decides nothing on its own.
    count = 8
    print(f"Running {count} *exact* encrypted inferences (real RNS-CKKS) ...")
    backend = ToyBackend(params, seed=1)
    agree, bits = 0, []
    for index, image in enumerate(test_imgs[:count]):
        backend.ledger.reset()
        encrypted_logits = compiled.run(backend, image)
        clear_logits = onet.forward_cleartext(image)
        bits.append(OrionNetwork.precision_bits(encrypted_logits, clear_logits))
        if encrypted_logits.argmax() == clear_logits.argmax():
            agree += 1
            continue
        runner_up, top = np.sort(clear_logits.ravel())[-2:]
        error = np.abs(encrypted_logits - clear_logits).max()
        print(f"  image {index}: cleartext predicts {clear_logits.argmax()}, "
              f"encrypted {encrypted_logits.argmax()}; cleartext top-2 margin "
              f"{top - runner_up:.4f}, this run's largest logit error {error:.4f}")
    print(f"  predictions agree on {agree} of {count} images; agreement "
          f"{np.mean(bits):.1f} bits on average (worst {min(bits):.1f})")
    print(f"  ops per inference: {backend.ledger}")


if __name__ == "__main__":
    main()
