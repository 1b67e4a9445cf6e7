"""Synthetic dataset generators (offline stand-ins for the paper's data).

See docs/substitutions.md: the real MNIST/CIFAR/ImageNet/PASCAL-VOC files
are unavailable offline, so seeded generators produce datasets of the
same shapes with learnable class structure.  The reproducible quantity
in the paper's evaluation — agreement between FHE and cleartext outputs
(accuracy deltas, precision in bits) — is dataset-agnostic.
"""

from repro.datasets.synthetic import (
    DataLoader,
    SyntheticClassification,
    SyntheticDetection,
    cifar_like,
    mnist_like,
    voc_like,
)

__all__ = [
    "DataLoader",
    "SyntheticClassification",
    "SyntheticDetection",
    "mnist_like",
    "cifar_like",
    "voc_like",
]
