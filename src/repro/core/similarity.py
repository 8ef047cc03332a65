"""ViTri and video similarity (paper Section 4.2).

The similarity of two ViTris is the *estimated number of similar frames*
they share: the volume of intersection of their hyperspheres multiplied by
the smaller density,

    sim(V1, V2) = V_intersection * min(D1, D2).

Numerical form
--------------
With ``D_i = |C_i| / V_i`` this equals

    min(|C_1| * V_int / V_1,  |C_2| * V_int / V_2)

and both volume ratios are at most 1, so the whole computation can be done
on the intersection *fraction* of the smaller sphere (always in ``[0, 1]``)
and the radius ratio ``(r_small / r_big)^n`` (computed in log space).  No
quantity ever leaves float range, for any dimensionality.  The estimate is
additionally clipped to ``min(|C_1|, |C_2|)`` — two clusters cannot share
more frames than the smaller one has.

Degenerate (point-mass) clusters
--------------------------------
The paper never produces radius-0 clusters (and :func:`summarize_video`
floors the radius), but the public API accepts them: a point mass inside
the other sphere is taken to share ``min(|C_1|, |C_2|)`` frames, outside
it zero.

Video similarity
----------------
The video-level measure stays in "number of similar frames" units, per the
paper.  With pairwise estimates ``n_ij`` between the clusters of ``X`` and
``Y``, the number of frames of ``X`` with a similar frame in ``Y`` is
estimated as ``sum_i min(|C_i|, sum_j n_ij)`` (a frame cannot be counted
more than once), symmetrically for ``Y``, and

    sim(X, Y) = (count_X + count_Y) / (|X| + |Y|).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.core.vitri import ViTri, VideoSummary
from repro.utils.counters import CostCounters
from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "estimated_shared_frames",
    "estimated_shared_frames_many",
    "video_similarity",
    "vitri_similarity",
]


def estimated_shared_frames(a: ViTri, b: ViTri) -> float:
    """Estimated number of similar frames shared by two ViTris.

    This is ``V_intersection * min(D1, D2)`` evaluated in the stable ratio
    form described in the module docstring, clipped to
    ``min(a.count, b.count)``.
    """
    if not isinstance(a, ViTri) or not isinstance(b, ViTri):
        raise TypeError("estimated_shared_frames expects two ViTri instances")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    # sqrt-of-sum-of-squares rather than np.linalg.norm on the 1-D
    # difference: the latter routes through BLAS ``nrm2``/``dot`` whose
    # accumulation order differs from the batched axis-1 norm, and the
    # scalar path is the bit-exactness oracle for the batch kernel.
    diff = a.position - b.position
    distance = float(np.sqrt(np.sum(diff * diff)))
    return _estimate_from_scalars(
        a.dim, a.radius, a.count, b.radius, b.count, distance
    )


def _estimate_from_scalars(
    dim: int,
    radius_a: float,
    count_a: int,
    radius_b: float,
    count_b: int,
    distance: float,
) -> float:
    """Scalar oracle for :func:`_estimate_batch`.

    Same case analysis *and the same elementwise primitives* (numpy
    ``log``/``exp``/``logaddexp`` and the regularised incomplete beta) as
    the batch kernel, evaluated one candidate at a time with Python
    control flow.  Because every numpy elementwise kernel produces
    batch-size-independent results, this function is bit-identical to
    one lane of :func:`_estimate_batch` — which is what the vectorized
    equivalence suite asserts.  Keep the two in lockstep: any arithmetic
    change here must be mirrored there and vice versa.
    """
    if radius_a >= radius_b:
        r_big, c_big = radius_a, float(count_a)
        r_small, c_small = radius_b, float(count_b)
    else:
        r_big, c_big = radius_b, float(count_b)
        r_small, c_small = radius_a, float(count_a)

    ceiling = float(min(count_a, count_b))
    if r_small <= 0.0:
        # Point mass: all its frames coincide with its centre.
        return ceiling if distance <= r_big else 0.0

    if distance >= r_big + r_small:
        return 0.0
    if distance <= r_big - r_small or distance <= 0.0:
        log_fraction = 0.0
    else:
        # Lens case: two hyperspherical caps, summed in log space.
        x1 = (distance * distance + r_big * r_big - r_small * r_small) / (
            2.0 * distance
        )
        cos_alpha = np.clip(x1 / r_big, -1.0, 1.0)
        cos_beta = np.clip((distance - x1) / r_small, -1.0, 1.0)
        log_ratio = dim * (np.log(r_big) - np.log(r_small))
        log_cap_big = (
            float(_log_cap_fraction_batch(dim, np.asarray([cos_alpha]))[0])
            + log_ratio
        )
        log_cap_small = float(
            _log_cap_fraction_batch(dim, np.asarray([cos_beta]))[0]
        )
        log_fraction = np.minimum(
            np.logaddexp(log_cap_big, log_cap_small), 0.0
        )
    with np.errstate(over="ignore"):
        fraction = np.exp(log_fraction)
    # min(D1, D2) in ratio form; r_small/r_big <= 1 so the power never
    # overflows.
    big_limit = c_big * np.exp(dim * (np.log(r_small) - np.log(r_big)))
    estimate = fraction * np.minimum(c_small, big_limit)
    return float(np.minimum(estimate, ceiling))


def vitri_similarity(a: ViTri, b: ViTri) -> float:
    """Alias for :func:`estimated_shared_frames` (the paper's
    ``sim(ViTri_1, ViTri_2)``)."""
    return estimated_shared_frames(a, b)


def _log_cap_fraction_batch(n: int, cos_angle: np.ndarray) -> np.ndarray:
    """Vectorised ``log cap_fraction(n, arccos(cos_angle))``.

    ``cos_angle`` may be negative (obtuse caps).  Entries whose fraction
    underflows come back as ``-inf`` (their contribution is genuinely
    negligible at that point).
    """
    sin2 = np.clip(1.0 - cos_angle * cos_angle, 0.0, 1.0)
    half_i = 0.5 * special.betainc((n + 1) / 2.0, 0.5, sin2)
    with np.errstate(divide="ignore"):
        log_acute = np.log(half_i)
        # Obtuse: fraction = 1 - half_i.
        log_obtuse = np.log1p(-half_i)
    return np.where(cos_angle >= 0.0, log_acute, log_obtuse)


def _estimate_batch(
    dim: int,
    radius_q: float,
    count_q: int,
    radii: np.ndarray,
    counts: np.ndarray,
    distances: np.ndarray,
) -> np.ndarray:
    """Vectorised core of :func:`estimated_shared_frames`.

    Same case analysis, in the same order, and the same elementwise
    arithmetic as :func:`_estimate_from_scalars`, over arrays of
    candidates.  Point masses and disjoint pairs (estimate exactly 0) are
    decided on the full arrays; every later step — the count selects, the
    containment/lens split, the cap fractions and the density ratio —
    runs only on the ``near`` pairs that can share frames, which on a
    key-range candidate set is a minority.
    """
    big = np.maximum(radii, radius_q)
    small = np.minimum(radii, radius_q)
    out = np.zeros(distances.shape[0], dtype=np.float64)

    # Point-mass candidates (or query): covered iff the centre is inside.
    point_mass = small <= 0.0
    if np.any(point_mass):
        pm = np.flatnonzero(point_mass)
        out[pm] = np.where(
            distances[pm] <= big[pm],
            np.minimum(counts[pm], float(count_q)),
            0.0,
        )
    near = np.flatnonzero(~(point_mass | (distances >= big + small)))
    if not near.size:
        return out
    d = distances[near]
    b = big[near]
    s = small[near]
    c = counts[near]
    candidate_big = radii[near] >= radius_q
    cb = np.where(candidate_big, c, float(count_q))
    cs = np.where(candidate_big, float(count_q), c)

    # Intersection fraction of the smaller sphere, in log space:
    # 0 (contained) or the lens value.
    log_fraction = np.zeros(near.size)
    lens = ~((d <= b - s) | (d <= 0.0))
    if np.any(lens):
        dl, bl, sl = d[lens], b[lens], s[lens]
        x1 = (dl * dl + bl * bl - sl * sl) / (2.0 * dl)
        cos_alpha = np.clip(x1 / bl, -1.0, 1.0)
        cos_beta = np.clip((dl - x1) / sl, -1.0, 1.0)
        log_ratio = dim * (np.log(bl) - np.log(sl))
        log_cap_big = _log_cap_fraction_batch(dim, cos_alpha) + log_ratio
        log_cap_small = _log_cap_fraction_batch(dim, cos_beta)
        log_fraction[lens] = np.minimum(
            np.logaddexp(log_cap_big, log_cap_small), 0.0
        )

    with np.errstate(over="ignore"):
        fraction = np.exp(log_fraction)
    # min(D1, D2) in ratio form: the larger sphere's limit never overflows
    # because s <= b.
    big_limit = cb * np.exp(dim * (np.log(s) - np.log(b)))
    estimate = fraction * np.minimum(cs, big_limit)
    out[near] = np.minimum(estimate, np.minimum(c, float(count_q)))
    return out


def estimated_shared_frames_many(
    query: ViTri,
    positions,
    radii,
    counts,
) -> np.ndarray:
    """Vectorised :func:`estimated_shared_frames` of one query ViTri against
    many candidate ViTris.

    Parameters
    ----------
    query:
        The query ViTri.
    positions:
        Candidate centres, shape ``(m, n)``.
    radii:
        Candidate radii, shape ``(m,)``.
    counts:
        Candidate frame counts, shape ``(m,)``.

    Returns
    -------
    numpy.ndarray
        Estimated shared frames per candidate, shape ``(m,)``.
    """
    positions = check_matrix(positions, "positions", cols=query.dim)
    radii = check_vector(radii, "radii", dim=positions.shape[0])
    counts = check_vector(counts, "counts", dim=positions.shape[0])
    if np.any(radii < 0.0):
        raise ValueError("radii must be non-negative")
    distances = np.linalg.norm(positions - query.position, axis=1)
    return _estimate_batch(
        query.dim, query.radius, query.count, radii, counts, distances
    )


def shared_frames_matrix(
    x: VideoSummary, y: VideoSummary, counters: CostCounters | None = None
) -> np.ndarray:
    """Pairwise estimated-shared-frames matrix between two summaries.

    Shape ``(len(x), len(y))``; entry ``(i, j)`` is the estimate for
    ``x.vitris[i]`` vs ``y.vitris[j]``.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} != {y.dim}")
    matrix = np.empty((len(x), len(y)), dtype=np.float64)
    y_positions = y.positions()
    y_radii = y.radii()
    y_counts = y.counts()
    for i, vitri in enumerate(x.vitris):
        matrix[i] = estimated_shared_frames_many(
            vitri, y_positions, y_radii, y_counts
        )
    if counters is not None:
        counters.similarity_computations += matrix.size
        counters.distance_computations += matrix.size
    return matrix


def video_similarity(
    x: VideoSummary, y: VideoSummary, counters: CostCounters | None = None
) -> float:
    """Similarity of two videos from their ViTri summaries, in ``[0, 1]``.

    Estimates the paper's frame-level measure (Section 3.1): the fraction
    of frames in either video that have a similar frame in the other.
    """
    matrix = shared_frames_matrix(x, y, counters)
    count_x = float(np.minimum(x.counts(), matrix.sum(axis=1)).sum())
    count_y = float(np.minimum(y.counts(), matrix.sum(axis=0)).sum())
    similarity = (count_x + count_y) / (x.num_frames + y.num_frames)
    return min(similarity, 1.0)
