"""The threshold query as a caller writes it over ``knn``.

Every video scoring at least ``t`` is ``knn(query, k=N)`` over the ``N``
stored videos, with the ranking cut at the first score below ``t``
(scores come out descending).  The tests that pinned the old
``similarity_range`` method pin this recipe at each layer instead.
"""

from __future__ import annotations


def at_least(result, min_similarity: float):
    """``(videos, scores)`` of *result* scoring at least the threshold,
    in rank order."""
    kept = [
        (video, score)
        for video, score in zip(result.videos, result.scores)
        if score >= min_similarity
    ]
    return (
        tuple(video for video, _ in kept),
        tuple(score for _, score in kept),
    )
