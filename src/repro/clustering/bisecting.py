"""``Generate_Clusters`` — the paper's recursive bisecting algorithm (Fig. 3).

A video's frames are recursively split with 2-means until every cluster's
*refined* radius ``min(R_max, mu + sigma)`` is at most ``epsilon / 2``,
where ``R_max`` is the largest member-to-centre distance and ``mu``/``sigma``
are the mean and (population) standard deviation of those distances.  The
refinement trims the influence of outlier frames: a 10% radius increase
inflates a 64-dimensional hypersphere's volume ~445x, so a tight radius is
what makes the density representation meaningful.

Termination guards beyond the paper
-----------------------------------
* A cluster whose points are all (numerically) identical is accepted with
  radius 0 regardless of ``epsilon`` — it cannot be split.
* If 2-means fails to separate the points (one side empty), the cluster is
  split at the median of the highest-variance coordinate.
* ``max_depth`` bounds the recursion; on hitting it the cluster is accepted
  as-is with its refined radius (which may exceed ``epsilon / 2``).  The
  default depth (48) is far beyond what real data reaches because each
  2-means split at least halves the frame count along some direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.kmeans import _lloyd
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_matrix, check_positive

__all__ = ["FrameCluster", "generate_clusters"]


@dataclass(frozen=True)
class FrameCluster:
    """One cluster of similar frames produced by ``Generate_Clusters``.

    Attributes
    ----------
    center:
        Cluster centroid ``O``, shape ``(n,)``.
    radius:
        Refined radius ``min(R_max, mu + sigma)``.
    count:
        Number of member frames ``|C|``.
    member_indices:
        Indices of the member frames in the original sequence.
    mean_distance, std_distance:
        ``mu`` and ``sigma`` of the member-to-centre distances.
    max_distance:
        Unrefined radius ``R_max``.
    """

    center: np.ndarray
    radius: float
    count: int
    member_indices: np.ndarray
    mean_distance: float
    std_distance: float
    max_distance: float


def _describe(members: np.ndarray, indices: np.ndarray) -> FrameCluster:
    """Build a :class:`FrameCluster` for the member rows ``members``
    (``frames[indices]``, with ``indices`` ascending).

    The reductions are the ufunc calls ``mean``, ``np.linalg.norm`` and
    ``std`` make, in their order, so the statistics keep their bits.
    """
    count = indices.shape[0]
    center = np.add.reduce(members, axis=0) / count
    diff = members - center
    distances = np.sqrt(np.add.reduce(diff * diff, axis=1))
    max_distance = float(np.maximum.reduce(distances))
    mean = np.add.reduce(distances) / count
    deviations = distances - mean
    variance = np.add.reduce(deviations * deviations) / count
    mean_distance = float(mean)
    std_distance = float(np.sqrt(variance))
    radius = min(max_distance, mean_distance + std_distance)
    return FrameCluster(
        center=center,
        radius=radius,
        count=count,
        member_indices=indices,
        mean_distance=mean_distance,
        std_distance=std_distance,
        max_distance=max_distance,
    )


def _median_split(
    members: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fallback split at the median of the highest-variance coordinate.

    Returns ``None`` when the points cannot be separated (all identical).
    """
    variances = members.var(axis=0)
    axis = int(np.argmax(variances))
    if variances[axis] <= 0.0:
        return None
    values = members[:, axis]
    median = np.median(values)
    left_mask = values <= median
    if left_mask.all() or not left_mask.any():
        # Median coincides with the max; fall back to a strict comparison.
        left_mask = values < median
        if left_mask.all() or not left_mask.any():
            return None
    return indices[left_mask], indices[~left_mask]


def generate_clusters(
    frames,
    epsilon: float,
    *,
    max_depth: int = 48,
    seed=None,
) -> list[FrameCluster]:
    """Summarise a frame sequence into clusters of similar frames.

    Parameters
    ----------
    frames:
        Matrix of shape ``(f, n)``: the video's frame feature vectors.
    epsilon:
        Frame similarity threshold; clusters are accepted once their refined
        radius is at most ``epsilon / 2``, which guarantees any two member
        frames are within ``epsilon`` of each other.
    max_depth:
        Recursion bound (safety guard; see module docstring).
    seed:
        Seed / generator for the 2-means initialisation.

    Returns
    -------
    list[FrameCluster]
        The accepted clusters, in deterministic order of their smallest
        member frame index.  Every frame belongs to exactly one cluster.
    """
    frames = check_matrix(frames, "frames", min_rows=1)
    epsilon = check_positive(epsilon, "epsilon")
    if not isinstance(max_depth, int) or max_depth < 1:
        raise ValueError(f"max_depth must be a positive int, got {max_depth}")
    rng = ensure_rng(seed)

    accepted: list[FrameCluster] = []
    # Iterative worklist instead of recursion: (indices, depth).  Every
    # split selects with a boolean mask, so indices stay ascending.
    stack: list[tuple[np.ndarray, int]] = [
        (np.arange(frames.shape[0], dtype=np.int64), 0)
    ]
    threshold = epsilon / 2.0
    while stack:
        indices, depth = stack.pop()
        members = frames[indices]
        cluster = _describe(members, indices)
        if (
            cluster.radius <= threshold
            or cluster.count == 1
            or depth >= max_depth
        ):
            accepted.append(cluster)
            continue
        split = _split_in_two(members, indices, rng)
        if split is None:
            # All member frames identical: nothing to gain by splitting.
            accepted.append(cluster)
            continue
        left, right = split
        stack.append((left, depth + 1))
        stack.append((right, depth + 1))

    accepted.sort(key=lambda c: int(c.member_indices[0]))
    return accepted


def _split_in_two(
    members: np.ndarray, indices: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray] | None:
    """Split the member set with 2-means, falling back to a median split.

    ``members`` are rows of the frame matrix :func:`generate_clusters`
    validated, so the Lloyd loop runs without :func:`kmeans`'s checks.
    """
    result = _lloyd(members, 2, rng)
    left = indices[result.labels == 0]
    right = indices[result.labels == 1]
    if left.shape[0] and right.shape[0]:
        return left, right
    return _median_split(members, indices)
