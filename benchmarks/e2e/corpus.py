"""The shared corpus, the ingest stream and the correctness oracle.

The corpus is frozen (``corpus_seed`` in calibration.json): between two
seeds the synthetic generator redraws its four content axes, and with
them the key distribution, which moves pages read per query by several
percent and would swamp every bound.  The run's ``--seed`` drives
everything issued against the corpus instead: which videos are queried
and in what order, the Zipf draws, the clones that are ingested and
their jitter, and the sample of answers compared against a from-scratch
in-memory index.  Generating the frames is load generation: it is
reported as ``datasets.generate_s`` and kept out of ``setup_s``.
"""

from __future__ import annotations

import math

import numpy as np

import repro
from repro.core.vitri import VideoSummary, ViTri
from repro.datasets import DatasetConfig, generate_dataset

__all__ = [
    "DIM",
    "EPSILON",
    "K",
    "clone_stream",
    "generate_corpus",
    "oracle_mismatches",
    "summarize_corpus",
]

DIM = 64
EPSILON = 0.22
K = 10
# Relative score difference still counted as rounding (an ulp is 1.1e-16).
SCORE_TOLERANCE = 1e-12


def generate_corpus(num_videos: int, seed: int):
    """The first ``num_videos`` videos of the corpus drawn from ``seed``.

    The generator draws videos in order from one stream, so a smaller
    count is exactly the prefix of a larger one ("the 4k prefix").
    """
    config = DatasetConfig.indexing_preset(
        num_distractors=num_videos,
        scene_weight=9.0,
        palette_weight=12.0,
        duration_classes=((150, 0.6), (100, 0.4)),
    )
    return generate_dataset(config, seed=seed)


def summarize_corpus(dataset, num_videos: int) -> list[VideoSummary]:
    """ViTri summaries of the first ``num_videos`` videos, seeded by id."""
    return [
        repro.summarize_video(video_id, dataset.frames(video_id), EPSILON, seed=video_id)
        for video_id in range(num_videos)
    ]


def clone_stream(
    summaries: list[VideoSummary],
    first_id: int,
    count: int,
    rng: np.random.Generator,
    *,
    sigma: float = 0.002,
    rotation: np.ndarray | None = None,
) -> list[VideoSummary]:
    """``count`` jittered clones of corpus summaries under new ids.

    Each clone copies a seeded pick's ViTris with ``N(0, sigma)`` noise
    on the positions; ``rotation`` (an axis permutation) moves the whole
    stream off the fitted principal axis, which is what makes the drift
    monitor trigger online cutovers.
    """
    picks = rng.integers(0, len(summaries), size=count)
    clones = []
    for offset, pick in enumerate(picks):
        source = summaries[int(pick)]
        vitris = []
        for vitri in source.vitris:
            position = vitri.position + rng.normal(0.0, sigma, vitri.position.shape)
            if rotation is not None:
                position = rotation @ position
            vitris.append(ViTri(position, vitri.radius, vitri.count))
        clones.append(VideoSummary(first_id + offset, tuple(vitris), source.num_frames))
    return clones


def oracle_mismatches(committed: list[VideoSummary], checks) -> tuple[int, int]:
    """Compare ``(query, k, videos, scores)`` answers with a from-scratch
    in-memory ``VitriIndex.build`` over the same committed summaries.

    Returns ``(wrong, last_bit)``.  An answer is wrong when its videos
    differ or a score differs beyond rounding.  It is counted under
    ``last_bit`` when the videos agree and the scores agree to
    ``SCORE_TOLERANCE`` but not bit for bit: a video matched by several
    ViTris sums its score in B+-tree key order, and a shard's (or a
    rebuilt generation's) reference point orders the keys differently
    from the oracle's, so the seed is not bit-identical there.
    """
    oracle = repro.VitriIndex.build(committed, EPSILON)
    wrong = last_bit = 0
    for query, k, videos, scores in checks:
        expected = oracle.knn(query, k)
        if tuple(videos) == expected.videos and tuple(scores) == expected.scores:
            continue
        if tuple(videos) == expected.videos and all(
            math.isclose(got, want, rel_tol=SCORE_TOLERANCE, abs_tol=0.0)
            for got, want in zip(scores, expected.scores)
        ):
            last_bit += 1
        else:
            wrong += 1
    return wrong, last_bit
