"""The paper's primary contribution: the ViTri model, its similarity
measure, the 1-D transformation and the B+-tree-backed ViTri index.

Typical flow::

    from repro.core import summarize_video, VitriIndex

    summaries = [summarize_video(vid, frames, epsilon=0.3, seed=0)
                 for vid, frames in enumerate(videos)]
    index = VitriIndex.build(summaries, epsilon=0.3, reference="optimal")
    result = index.knn(query_summary, k=50)
"""

from __future__ import annotations

from repro.core.composition import compose_ranges
from repro.core.database import VideoDatabase
from repro.core.engine import QueryEngine, query_fingerprint
from repro.core.frames import frame_similarity, frames_with_match
from repro.core.index import KNNResult, QueryStats, VitriIndex
from repro.core.reference import (
    DataCenter,
    OptimalReference,
    ReferenceStrategy,
    SpaceCenter,
    make_reference_strategy,
)
from repro.core.similarity import (
    estimated_shared_frames,
    estimated_shared_frames_many,
    video_similarity,
    vitri_similarity,
)
from repro.core.summarize import summarize_video
from repro.core.summary_io import load_summaries, save_summaries
from repro.core.transform import OneDimensionalTransform, key_variance
from repro.core.vitri import VideoSummary, ViTri

__all__ = [
    "compose_ranges",
    "VideoDatabase",
    "QueryEngine",
    "query_fingerprint",
    "frame_similarity",
    "frames_with_match",
    "KNNResult",
    "QueryStats",
    "VitriIndex",
    "DataCenter",
    "OptimalReference",
    "ReferenceStrategy",
    "SpaceCenter",
    "make_reference_strategy",
    "estimated_shared_frames",
    "estimated_shared_frames_many",
    "video_similarity",
    "vitri_similarity",
    "summarize_video",
    "load_summaries",
    "save_summaries",
    "OneDimensionalTransform",
    "key_variance",
    "VideoSummary",
    "ViTri",
]
