"""Lloyd's k-means with k-means++ seeding, from scratch on numpy.

The bisecting clusters-generation algorithm of the paper only ever calls
``k-means(X, 2)``, but the implementation is a general k-means so it can
also back the keyframe baseline (which summarises a video into ``k``
representatives) and any future extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_matrix

__all__ = ["KMeansResult", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run.

    Attributes
    ----------
    centers:
        Cluster centres, shape ``(k, n)``.
    labels:
        Cluster assignment per row of the input, shape ``(rows,)``.
    inertia:
        Sum of squared distances of points to their assigned centre.
    iterations:
        Number of Lloyd iterations performed.
    converged:
        Whether the assignment stopped changing before ``max_iter``.
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centers.shape[0]


def _squared_distances(
    data: np.ndarray, centers: np.ndarray, data_sq: np.ndarray
) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(rows, k)``.

    ``data_sq`` is ``np.add.reduce(data * data, axis=1)``: the row norms
    do not change within a run, so the caller computes them once.
    """
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped against round-off.
    cross = data @ centers.T
    sq = (
        data_sq[:, None]
        - 2.0 * cross
        + np.add.reduce(centers * centers, axis=1)[None, :]
    )
    # np.clip(sq, 0.0, None) is this very call, signed zeros included.
    return np.maximum(sq, 0.0, out=sq)


def _kmeanspp_init(
    data: np.ndarray, data_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: iteratively sample centres proportional to the
    squared distance from the nearest centre chosen so far."""
    rows = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(rows))
    centers[0] = data[first]
    closest_sq = _squared_distances(data, centers[:1], data_sq).ravel()
    for i in range(1, k):
        total = np.add.reduce(closest_sq)
        if total <= 0.0:
            # All remaining points coincide with an existing centre; any
            # choice gives the same (degenerate) clustering.
            pick = int(rng.integers(rows))
        else:
            pick = int(rng.choice(rows, p=closest_sq / total))
        centers[i] = data[pick]
        new_sq = _squared_distances(data, centers[i : i + 1], data_sq).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centers


def _repair_empty_clusters(
    data: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    distances_sq: np.ndarray,
) -> None:
    """Re-seed every empty cluster with a point moved from another cluster.

    Each empty cluster takes the point farthest from its assigned centre
    among the points whose cluster keeps at least one other member.  A
    moved point is then alone in its new cluster, so no point moves twice
    and no repair empties a cluster: one pass fills every empty cluster.
    """
    counts = np.bincount(labels, minlength=centers.shape[0])
    if np.minimum.reduce(counts) > 0:
        return
    assigned_sq = distances_sq[np.arange(labels.shape[0]), labels]
    for cluster in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[labels] > 1, assigned_sq, -np.inf)))
        counts[labels[donor]] -= 1
        counts[cluster] = 1
        centers[cluster] = data[donor]
        labels[donor] = cluster


def _lloyd(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> KMeansResult:
    """Lloyd's algorithm on an already validated float64 matrix.

    The body of :func:`kmeans`, which validates its arguments and calls
    this; ``Generate_Clusters`` calls it directly on row subsets of the
    frame matrix it validated once.
    """
    rows = data.shape[0]
    data_sq = np.add.reduce(data * data, axis=1)
    if k == 1:
        center = np.add.reduce(data, axis=0, keepdims=True) / rows
        sq = _squared_distances(data, center, data_sq).ravel()
        return KMeansResult(
            centers=center,
            labels=np.zeros(rows, dtype=np.int64),
            inertia=float(np.add.reduce(sq)),
            iterations=0,
            converged=True,
        )

    centers = _kmeanspp_init(data, data_sq, k, rng)
    all_rows = np.arange(rows)
    # The matrix that scores one iteration's centres is the next
    # iteration's assignment matrix: one matrix per iteration.
    distances_sq = _squared_distances(data, centers, data_sq)
    labels = np.zeros(rows, dtype=np.int64)
    previous_inertia = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        labels = np.argmin(distances_sq, axis=1).astype(np.int64, copy=False)
        _repair_empty_clusters(data, centers, labels, distances_sq)
        for cluster in range(k):
            members = data[labels == cluster]
            if members.shape[0]:
                centers[cluster] = np.add.reduce(members, axis=0) / members.shape[0]
        distances_sq = _squared_distances(data, centers, data_sq)
        inertia = float(np.add.reduce(distances_sq[all_rows, labels]))
        if previous_inertia - inertia <= tol:
            converged = True
            previous_inertia = inertia
            break
        previous_inertia = inertia

    return KMeansResult(
        centers=centers,
        labels=labels,
        inertia=float(previous_inertia),
        iterations=iteration,
        converged=converged,
    )


def kmeans(
    data,
    k: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
    seed=None,
) -> KMeansResult:
    """Cluster *data* into ``k`` groups with Lloyd's algorithm.

    Parameters
    ----------
    data:
        Matrix of shape ``(rows, n)``; rows are the points to cluster.
    k:
        Number of clusters; must satisfy ``1 <= k <= rows``.
    max_iter:
        Maximum number of Lloyd iterations.
    tol:
        Convergence threshold on the decrease of inertia.
    seed:
        ``None``, int, or :class:`numpy.random.Generator` for the k-means++
        seeding.

    Returns
    -------
    KMeansResult
    """
    data = check_matrix(data, "data", min_rows=1)
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("k must be an int")
    if k < 1 or k > data.shape[0]:
        raise ValueError(
            f"k must be in [1, number of rows = {data.shape[0]}], got {k}"
        )
    if not isinstance(max_iter, int) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive int, got {max_iter}")
    return _lloyd(data, k, ensure_rng(seed), max_iter=max_iter, tol=tol)
