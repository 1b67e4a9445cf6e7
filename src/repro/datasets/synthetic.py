"""Seeded synthetic image datasets with learnable class structure.

Each class is defined by a smooth per-class template (random low
frequency pattern) plus instance-level geometric jitter and pixel
noise, which gives small CNNs a realistic learning problem: classes
overlap, augmentation-style variation exists, and accuracy improves
smoothly with training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


def _lowpass_template(rng, channels: int, height: int, width: int) -> np.ndarray:
    """A smooth random pattern built from a few 2D cosine modes."""
    ys, xs = np.mgrid[0:height, 0:width]
    out = np.zeros((channels, height, width))
    for c in range(channels):
        for _ in range(4):
            fy, fx = rng.uniform(0.5, 3.0, 2)
            phase_y, phase_x = rng.uniform(0, 2 * np.pi, 2)
            amp = rng.uniform(0.4, 1.0)
            out[c] += amp * np.cos(2 * np.pi * fy * ys / height + phase_y) * np.cos(
                2 * np.pi * fx * xs / width + phase_x
            )
    return out / np.abs(out).max()


@dataclass
class SyntheticClassification:
    """A fixed-size synthetic classification dataset.

    Attributes:
        images: float array (num_samples, C, H, W) in roughly [-1, 1].
        labels: int array (num_samples,).
        num_classes: label cardinality.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    def split(self, train_fraction: float = 0.8):
        cut = int(len(self) * train_fraction)
        train = SyntheticClassification(
            self.images[:cut], self.labels[:cut], self.num_classes
        )
        test = SyntheticClassification(
            self.images[cut:], self.labels[cut:], self.num_classes
        )
        return train, test


def _make_classification(
    shape: Tuple[int, int, int],
    num_classes: int,
    num_samples: int,
    seed: int,
    noise: float = 0.35,
) -> SyntheticClassification:
    channels, height, width = shape
    rng = np.random.default_rng(seed)
    templates = np.stack(
        [_lowpass_template(rng, channels, height, width) for _ in range(num_classes)]
    )
    labels = rng.integers(0, num_classes, num_samples)
    images = np.empty((num_samples, channels, height, width))
    for i, label in enumerate(labels):
        img = templates[label].copy()
        # Instance jitter: random cyclic shift plus amplitude scaling.
        shift_y = int(rng.integers(-height // 8, height // 8 + 1))
        shift_x = int(rng.integers(-width // 8, width // 8 + 1))
        img = np.roll(img, (shift_y, shift_x), axis=(1, 2))
        img *= rng.uniform(0.7, 1.3)
        img += rng.normal(0.0, noise, img.shape)
        images[i] = img
    images = np.clip(images, -2.0, 2.0) * 0.5
    return SyntheticClassification(images, labels, num_classes)


def mnist_like(num_samples: int = 512, seed: int = 0) -> SyntheticClassification:
    """28x28x1, 10 classes (stands in for MNIST [50])."""
    return _make_classification((1, 28, 28), 10, num_samples, seed)


def cifar_like(num_samples: int = 512, seed: int = 1) -> SyntheticClassification:
    """32x32x3, 10 classes (stands in for CIFAR-10 [47])."""
    return _make_classification((3, 32, 32), 10, num_samples, seed)


@dataclass
class SyntheticDetection:
    """Detection dataset: images + per-image box/class annotations.

    Boxes are (class_id, cx, cy, w, h) in normalized [0, 1] coordinates,
    matching the YOLO-v1 target convention (paper Section 8.6).
    """

    images: np.ndarray
    annotations: list

    def __len__(self) -> int:
        return len(self.images)


def voc_like(
    num_samples: int = 32,
    image_size: int = 448,
    num_classes: int = 20,
    max_objects: int = 3,
    seed: int = 4,
) -> SyntheticDetection:
    """448x448x3 detection scenes (stands in for PASCAL-VOC [26]).

    Each scene contains 1..max_objects bright square "objects" whose
    texture encodes the class, on a smooth background.
    """
    rng = np.random.default_rng(seed)
    class_textures = [
        _lowpass_template(rng, 3, 32, 32) for _ in range(num_classes)
    ]
    images = np.empty((num_samples, 3, image_size, image_size))
    annotations = []
    for i in range(num_samples):
        background = _lowpass_template(rng, 3, image_size, image_size) * 0.2
        boxes = []
        for _ in range(int(rng.integers(1, max_objects + 1))):
            cls = int(rng.integers(0, num_classes))
            side = int(rng.integers(image_size // 8, image_size // 3))
            cx = rng.uniform(0.2, 0.8)
            cy = rng.uniform(0.2, 0.8)
            x0 = int(cx * image_size - side / 2)
            y0 = int(cy * image_size - side / 2)
            x0 = max(0, min(image_size - side, x0))
            y0 = max(0, min(image_size - side, y0))
            texture = class_textures[cls]
            reps = (side // 32 + 1, side // 32 + 1)
            tile = np.tile(texture, (1,) + reps)[:, :side, :side]
            background[:, y0 : y0 + side, x0 : x0 + side] = tile
            boxes.append(
                (
                    cls,
                    (x0 + side / 2) / image_size,
                    (y0 + side / 2) / image_size,
                    side / image_size,
                    side / image_size,
                )
            )
        images[i] = background
        annotations.append(boxes)
    return SyntheticDetection(images * 0.5, annotations)


class DataLoader:
    """Minimal shuffling batch iterator over a classification dataset."""

    def __init__(
        self,
        dataset: SyntheticClassification,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int = 0,
    ):
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size
