"""Tests for the synthetic dataset generators."""

import numpy as np

from repro.datasets import (
    DataLoader,
    cifar_like,
    mnist_like,
    voc_like,
)


class TestClassificationGenerators:
    def test_shapes(self):
        assert mnist_like(8).images.shape == (8, 1, 28, 28)
        assert cifar_like(8).images.shape == (8, 3, 32, 32)

    def test_determinism(self):
        a = cifar_like(16, seed=5)
        b = cifar_like(16, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        assert not np.array_equal(
            cifar_like(16, seed=1).images, cifar_like(16, seed=2).images
        )

    def test_value_range(self):
        imgs = cifar_like(32).images
        assert np.abs(imgs).max() <= 1.0 + 1e-9

    def test_labels_cover_classes(self):
        labels = mnist_like(512).labels
        assert set(np.unique(labels)) == set(range(10))

    def test_split(self):
        data = mnist_like(100)
        train, test = data.split(0.8)
        assert len(train) == 80 and len(test) == 20

    def test_classes_are_separable_by_template_matching(self):
        """Nearest-template classification should beat chance easily —
        the datasets must be learnable for training to mean anything."""
        data = cifar_like(200, seed=0)
        train, test = data.split(0.5)
        templates = np.stack(
            [
                train.images[train.labels == c].mean(axis=0)
                for c in range(data.num_classes)
            ]
        )
        flat_test = test.images.reshape(len(test), -1)
        flat_templates = templates.reshape(data.num_classes, -1)
        distance = ((flat_test[:, None] - flat_templates[None]) ** 2).sum(axis=2)
        accuracy = (distance.argmin(axis=1) == test.labels).mean()
        assert accuracy > 0.5


class TestDetectionGenerator:
    def test_shapes_and_annotations(self):
        data = voc_like(num_samples=4, image_size=128, seed=0)
        assert data.images.shape == (4, 3, 128, 128)
        assert len(data.annotations) == 4
        for boxes in data.annotations:
            assert 1 <= len(boxes) <= 3
            for cls, cx, cy, w, h in boxes:
                assert 0 <= cls < 20
                assert 0.0 < cx < 1.0 and 0.0 < cy < 1.0
                assert 0.0 < w <= 1.0 and 0.0 < h <= 1.0

    def test_objects_brighter_than_background(self):
        data = voc_like(num_samples=2, image_size=128, seed=1)
        img = data.images[0]
        cls, cx, cy, w, h = data.annotations[0][0]
        x0 = int((cx - w / 2) * 128)
        y0 = int((cy - h / 2) * 128)
        side = int(w * 128)
        inside = np.abs(img[:, y0 : y0 + side, x0 : x0 + side]).mean()
        overall = np.abs(img).mean()
        assert inside > overall


class TestDataLoader:
    def test_batches_cover_dataset(self):
        data = mnist_like(50)
        loader = DataLoader(data, batch_size=16, shuffle=False)
        total = sum(len(labels) for _, labels in loader)
        assert total == 50
        assert len(loader) == 4

    def test_shuffling_changes_order(self):
        data = mnist_like(64)
        first = next(iter(DataLoader(data, batch_size=64, shuffle=True, seed=1)))[1]
        second = next(iter(DataLoader(data, batch_size=64, shuffle=True, seed=2)))[1]
        assert not np.array_equal(first, second)
