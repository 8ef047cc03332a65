"""Tests for repro.clustering.kmeans."""

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.utils.rng import ensure_rng


def blobs(rng, centers, per_blob=30, noise=0.05):
    """Well-separated Gaussian blobs around the given centres."""
    points = []
    for center in centers:
        points.append(center + rng.normal(0, noise, (per_blob, len(center))))
    return np.vstack(points)


class TestKMeans:
    def test_k1_is_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (40, 3))
        result = kmeans(data, 1)
        assert np.allclose(result.centers[0], data.mean(axis=0))
        assert result.converged
        assert set(result.labels) == {0}

    def test_separates_two_blobs(self):
        rng = np.random.default_rng(1)
        data = blobs(rng, [np.array([0.0, 0.0]), np.array([5.0, 5.0])])
        result = kmeans(data, 2, seed=1)
        # Each blob must map to a single cluster.
        first = set(result.labels[:30])
        second = set(result.labels[30:])
        assert len(first) == 1 and len(second) == 1
        assert first != second

    def test_separates_four_blobs(self):
        rng = np.random.default_rng(2)
        centers = [np.array(c, dtype=float) for c in
                   [(0, 0), (8, 0), (0, 8), (8, 8)]]
        data = blobs(rng, centers)
        result = kmeans(data, 4, seed=3)
        for blob_index in range(4):
            chunk = result.labels[blob_index * 30 : (blob_index + 1) * 30]
            assert len(set(chunk)) == 1

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, (120, 4))
        inertias = [kmeans(data, k, seed=0).inertia for k in (1, 2, 4, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_rows(self):
        rng = np.random.default_rng(4)
        data = rng.normal(0, 1, (7, 2))
        result = kmeans(data, 7, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-16)
        assert sorted(result.labels) == list(range(7))

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, (60, 3))
        a = kmeans(data, 3, seed=11)
        b = kmeans(data, 3, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centers, b.centers)

    def test_identical_points(self):
        data = np.ones((10, 3))
        result = kmeans(data, 2, seed=0)
        # Degenerate but valid: all points coincide, inertia 0.
        assert result.inertia == pytest.approx(0.0, abs=1e-16)
        assert len(result.labels) == 10

    def test_no_empty_clusters(self):
        # An adversarial configuration that tends to produce empty
        # clusters: many coincident points plus a single outlier.
        data = np.vstack([np.zeros((20, 2)), [[10.0, 10.0]], [[10.5, 10.0]]])
        result = kmeans(data, 3, seed=2)
        counts = np.bincount(result.labels, minlength=3)
        assert (counts > 0).all()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_repair_fills_every_empty_cluster(self, k):
        """Several clusters empty at once each get their own donor, and no
        repair empties the donor's cluster."""
        rng = ensure_rng(k)
        duplicates = np.repeat(rng.normal(0, 1, (3, 4)), [12, 5, 1], axis=0)
        outlier = np.vstack([np.zeros((15, 4)), np.full((1, 4), 50.0)])
        for data in (np.ones((10, 3)), duplicates, outlier):
            for seed in range(6):
                result = kmeans(data, k, seed=seed)
                counts = np.bincount(result.labels, minlength=k)
                assert result.labels.min() >= 0
                assert result.labels.max() < k
                assert (counts > 0).all(), (seed, counts)

    def test_labels_within_range(self):
        rng = np.random.default_rng(6)
        result = kmeans(rng.normal(0, 1, (50, 2)), 5, seed=0)
        assert result.labels.min() >= 0
        assert result.labels.max() < 5

    def test_inertia_matches_labels(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0, 1, (80, 3))
        result = kmeans(data, 4, seed=0)
        manual = sum(
            float(np.sum((data[result.labels == c] - result.centers[c]) ** 2))
            for c in range(4)
        )
        assert result.inertia == pytest.approx(manual, rel=1e-9)

    def test_k_property(self):
        rng = np.random.default_rng(8)
        assert kmeans(rng.normal(0, 1, (10, 2)), 3, seed=0).k == 3

    def test_invalid_k(self):
        data = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans(data, 0)
        with pytest.raises(ValueError):
            kmeans(data, 6)
        with pytest.raises(TypeError):
            kmeans(data, 2.0)

    def test_invalid_max_iter(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 2, max_iter=0)
