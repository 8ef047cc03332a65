"""Bit-identity oracle for the clustering fast path.

``repro.clustering`` computes each k-means run's row norms once, reuses
the matrix that scores one Lloyd iteration's centres as the next
iteration's assignment matrix, calls the ufunc reductions directly
instead of ``mean``/``std``/``np.linalg.norm``/``np.clip``, and runs the
Lloyd loop inside ``Generate_Clusters`` without re-validating rows of the
frame matrix it already validated.  None of that may move a bit of a
summary: ViTri positions, radii and counts decide keys, pages, goldens
and bytes on disk.

The ``reference_*`` functions below are the straightforward
implementation the fast path replaced, frozen here for these tests to
compare against (as ``_estimate_from_scalars`` is for the geometry
kernel).  The one addition is a flag on the reference's empty-cluster
repair: it reports a pass that reused a donor or emptied the donor's
cluster — the defect the library's repair fixes — and only such runs are
excluded from the k-means comparison.  ``Generate_Clusters`` (k = 2) can
never hit it.
"""

import importlib

import numpy as np
import pytest

from repro.clustering.bisecting import FrameCluster, generate_clusters
from repro.clustering.kmeans import KMeansResult, kmeans
from repro.core.summarize import summarize_video
from repro.datasets import DatasetConfig, generate_dataset
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_matrix, check_positive

# The package re-exports the ``kmeans`` function under the submodule's name.
kmeans_module = importlib.import_module("repro.clustering.kmeans")
summarize_module = importlib.import_module("repro.core.summarize")

# --------------------------------------------------------------------------
# Frozen reference implementation.
# --------------------------------------------------------------------------


def reference_squared_distances(data, centers):
    cross = data @ centers.T
    sq = (
        np.sum(data * data, axis=1)[:, None]
        - 2.0 * cross
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.clip(sq, 0.0, None)


def reference_kmeanspp_init(data, k, rng):
    rows = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(rows))
    centers[0] = data[first]
    closest_sq = reference_squared_distances(data, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            pick = int(rng.integers(rows))
        else:
            pick = int(rng.choice(rows, p=closest_sq / total))
        centers[i] = data[pick]
        new_sq = reference_squared_distances(data, centers[i : i + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centers


def reference_repair_empty_clusters(data, centers, labels, distances_sq):
    """The replaced repair; returns True when a pass was degenerate."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    degenerate = False
    moved = set()
    for cluster in np.flatnonzero(counts == 0):
        assigned_sq = distances_sq[np.arange(data.shape[0]), labels]
        donor = int(np.argmax(assigned_sq))
        degenerate |= donor in moved or counts[labels[donor]] == 1
        moved.add(donor)
        centers[cluster] = data[donor]
        labels[donor] = cluster
        counts = np.bincount(labels, minlength=k)
    return degenerate


def reference_kmeans(data, k, *, max_iter=100, tol=1e-8, seed=None):
    """The replaced ``kmeans``; returns ``(result, degenerate_repair)``."""
    data = check_matrix(data, "data", min_rows=1)
    rng = ensure_rng(seed)
    if k == 1:
        center = data.mean(axis=0, keepdims=True)
        sq = reference_squared_distances(data, center).ravel()
        result = KMeansResult(
            centers=center,
            labels=np.zeros(data.shape[0], dtype=np.int64),
            inertia=float(sq.sum()),
            iterations=0,
            converged=True,
        )
        return result, False

    centers = reference_kmeanspp_init(data, k, rng)
    labels = np.zeros(data.shape[0], dtype=np.int64)
    previous_inertia = np.inf
    converged = False
    degenerate = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        distances_sq = reference_squared_distances(data, centers)
        labels = np.argmin(distances_sq, axis=1).astype(np.int64)
        degenerate |= reference_repair_empty_clusters(
            data, centers, labels, distances_sq
        )
        for cluster in range(k):
            members = data[labels == cluster]
            if members.shape[0]:
                centers[cluster] = members.mean(axis=0)
        inertia = float(
            reference_squared_distances(data, centers)[
                np.arange(data.shape[0]), labels
            ].sum()
        )
        if previous_inertia - inertia <= tol:
            converged = True
            previous_inertia = inertia
            break
        previous_inertia = inertia

    result = KMeansResult(
        centers=centers,
        labels=labels,
        inertia=float(previous_inertia),
        iterations=iteration,
        converged=converged,
    )
    return result, degenerate


def reference_describe(frames, indices):
    members = frames[indices]
    center = members.mean(axis=0)
    distances = np.linalg.norm(members - center, axis=1)
    max_distance = float(distances.max())
    mean_distance = float(distances.mean())
    std_distance = float(distances.std())
    radius = min(max_distance, mean_distance + std_distance)
    return FrameCluster(
        center=center,
        radius=radius,
        count=int(indices.shape[0]),
        member_indices=np.sort(indices),
        mean_distance=mean_distance,
        std_distance=std_distance,
        max_distance=max_distance,
    )


def reference_median_split(frames, indices):
    members = frames[indices]
    variances = members.var(axis=0)
    axis = int(np.argmax(variances))
    if variances[axis] <= 0.0:
        return None
    values = members[:, axis]
    median = np.median(values)
    left_mask = values <= median
    if left_mask.all() or not left_mask.any():
        left_mask = values < median
        if left_mask.all() or not left_mask.any():
            return None
    return indices[left_mask], indices[~left_mask]


def reference_split_in_two(frames, indices, rng):
    members = frames[indices]
    result, _ = reference_kmeans(members, 2, seed=rng)
    left = indices[result.labels == 0]
    right = indices[result.labels == 1]
    if left.shape[0] and right.shape[0]:
        return left, right
    return reference_median_split(frames, indices)


def reference_generate_clusters(frames, epsilon, *, max_depth=48, seed=None):
    frames = check_matrix(frames, "frames", min_rows=1)
    epsilon = check_positive(epsilon, "epsilon")
    rng = ensure_rng(seed)
    accepted = []
    stack = [(np.arange(frames.shape[0], dtype=np.int64), 0)]
    threshold = epsilon / 2.0
    while stack:
        indices, depth = stack.pop()
        cluster = reference_describe(frames, indices)
        if cluster.radius <= threshold or cluster.count == 1 or depth >= max_depth:
            accepted.append(cluster)
            continue
        split = reference_split_in_two(frames, indices, rng)
        if split is None:
            accepted.append(cluster)
            continue
        left, right = split
        stack.append((left, depth + 1))
        stack.append((right, depth + 1))
    accepted.sort(key=lambda c: int(c.member_indices[0]))
    return accepted


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------

DIMS = (1, 3, 64)
EPSILONS = (1e-9, 0.05, 0.22, 0.6, 2.0, 100.0)
MAX_DEPTHS = (48, 48, 3, 1)
SWEEP_SIZE = 240


def frame_matrix(case: int) -> np.ndarray:
    """The ``case``-th matrix of the sweep: shapes and degeneracies the
    bisecting loop meets, cycled over dims 1 / 3 / 64."""
    rng = ensure_rng(1000 + case)
    dim = DIMS[case % len(DIMS)]
    kind = case % 8
    if kind == 0:
        return rng.normal(0.0, 1.0, (1, dim))
    if kind == 1:
        return rng.normal(0.0, 1.0, (2, dim))
    if kind == 2:
        return np.repeat(rng.normal(0.0, 1.0, (1, dim)), int(rng.integers(3, 40)), axis=0)
    if kind == 3:
        duplicates = np.repeat(rng.normal(0.0, 0.1, (3, dim)), [20, 7, 2], axis=0)
        return np.vstack([duplicates, rng.normal(5.0, 0.1, (1, dim))])
    if kind == 4:
        shots = rng.normal(0.0, 1.0, (int(rng.integers(2, 6)), dim))
        per_shot = int(rng.integers(5, 40))
        return np.repeat(shots, per_shot, axis=0) + rng.normal(
            0.0, 0.02, (shots.shape[0] * per_shot, dim)
        )
    if kind == 5:
        return rng.uniform(-1.0, 1.0, (int(rng.integers(3, 150)), dim))
    if kind == 6:
        # Two coincident heaps: identical points on each side of a split.
        return np.vstack([np.zeros((9, dim)), np.ones((6, dim))])
    return rng.normal(0.0, 0.3, (131, dim)) * rng.uniform(0.1, 3.0)


def e2e_style_dataset(num_videos: int):
    """Videos drawn with the end-to-end benchmark corpus's generator
    configuration (64-d, ~100-150 frames per video)."""
    config = DatasetConfig.indexing_preset(
        num_distractors=num_videos,
        scene_weight=9.0,
        palette_weight=12.0,
        duration_classes=((150, 0.6), (100, 0.4)),
    )
    return generate_dataset(config, seed=2005)


# --------------------------------------------------------------------------
# Comparisons.
# --------------------------------------------------------------------------


def assert_kmeans_identical(got: KMeansResult, want: KMeansResult) -> None:
    assert got.centers.dtype == want.centers.dtype
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got.inertia.hex() == want.inertia.hex()
    assert got.iterations == want.iterations
    assert got.converged == want.converged


def assert_clusters_identical(got, want) -> None:
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.center.tobytes() == theirs.center.tobytes()
        assert mine.radius.hex() == theirs.radius.hex()
        assert mine.count == theirs.count
        assert mine.member_indices.dtype == theirs.member_indices.dtype
        assert np.array_equal(mine.member_indices, theirs.member_indices)
        assert mine.mean_distance.hex() == theirs.mean_distance.hex()
        assert mine.std_distance.hex() == theirs.std_distance.hex()
        assert mine.max_distance.hex() == theirs.max_distance.hex()


def summary_bits(summary):
    return [
        (vitri.position.tobytes(), float(vitri.radius).hex(), vitri.count)
        for vitri in summary.vitris
    ]


class TestKMeansOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sweep_matches_reference(self, k):
        compared = 0
        for case in range(SWEEP_SIZE):
            data = frame_matrix(case)
            if data.shape[0] < k:
                continue
            seed = case * 7 + k
            want, degenerate = reference_kmeans(data, k, seed=seed)
            if degenerate:
                continue
            assert_kmeans_identical(kmeans(data, k, seed=seed), want)
            compared += 1
        assert compared >= SWEEP_SIZE // 3

    def test_generator_state_matches_reference(self):
        """Seeding draws the same numbers, so a generator threaded through
        many runs (as ``Generate_Clusters`` does) stays in step."""
        mine = np.random.default_rng(3)
        theirs = np.random.default_rng(3)
        for case in range(40):
            data = frame_matrix(case)
            if data.shape[0] < 2:
                continue
            want, _ = reference_kmeans(data, 2, seed=theirs)
            assert_kmeans_identical(kmeans(data, 2, seed=mine), want)
        assert mine.random() == theirs.random()

    def test_one_distance_matrix_per_iteration(self, monkeypatch):
        """k seeding columns, the seeded centres' matrix, then exactly one
        matrix per Lloyd iteration (which also scores it)."""
        calls = []
        original = kmeans_module._squared_distances

        def counting(data, centers, data_sq):
            calls.append(centers.shape[0])
            return original(data, centers, data_sq)

        monkeypatch.setattr(kmeans_module, "_squared_distances", counting)
        rng = np.random.default_rng(11)
        data = rng.normal(0.0, 1.0, (131, 64))
        for k in (2, 3, 5):
            calls.clear()
            result = kmeans(data, k, seed=k)
            assert result.iterations >= 2
            assert calls == [1] * k + [k] * (1 + result.iterations)
        calls.clear()
        kmeans(data, 1)
        assert calls == [1]

    def test_generate_clusters_validates_once(self, monkeypatch):
        """The split runs the Lloyd loop on rows of the validated frame
        matrix; the public ``kmeans`` still checks its input."""
        checks = []
        original = kmeans_module.check_matrix

        def counting(value, name, **kwargs):
            checks.append(name)
            return original(value, name, **kwargs)

        monkeypatch.setattr(kmeans_module, "check_matrix", counting)
        clusters = generate_clusters(frame_matrix(4), 0.05, seed=0)
        assert len(clusters) > 1
        assert checks == []
        with pytest.raises(ValueError):
            kmeans(np.array([[0.0, np.nan], [1.0, 1.0]]), 2, seed=0)
        assert checks == ["data"]


class TestGenerateClustersOracle:
    def test_sweep_matches_reference(self):
        for case in range(SWEEP_SIZE):
            frames = frame_matrix(case)
            epsilon = EPSILONS[case % len(EPSILONS)]
            max_depth = MAX_DEPTHS[(case // 3) % len(MAX_DEPTHS)]
            got = generate_clusters(frames, epsilon, max_depth=max_depth, seed=case)
            want = reference_generate_clusters(
                frames, epsilon, max_depth=max_depth, seed=case
            )
            assert_clusters_identical(got, want)

    def test_max_depth_hit_matches_reference(self):
        """Clusters accepted at the depth bound keep their unrefined
        statistics bit for bit."""
        frames = frame_matrix(7)
        got = generate_clusters(frames, 1e-9, max_depth=2, seed=1)
        want = reference_generate_clusters(frames, 1e-9, max_depth=2, seed=1)
        assert any(cluster.radius > 1e-9 for cluster in got)
        assert_clusters_identical(got, want)


class TestSummaryOracle:
    def test_e2e_style_videos_match_reference(self, monkeypatch):
        dataset = e2e_style_dataset(320)
        epsilon = 0.22
        got = [
            summary_bits(summarize_video(i, dataset.frames(i), epsilon, seed=i))
            for i in range(dataset.num_videos)
        ]
        monkeypatch.setattr(
            summarize_module, "generate_clusters", reference_generate_clusters
        )
        want = [
            summary_bits(summarize_video(i, dataset.frames(i), epsilon, seed=i))
            for i in range(dataset.num_videos)
        ]
        assert len(got) >= 300
        assert sum(len(bits) for bits in got) > len(got)
        assert got == want
