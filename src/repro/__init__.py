"""repro — reproduction of "Towards Effective Indexing for Very Large
Video Sequence Database" (Shen, Ooi, Zhou; SIGMOD 2005).

The package implements the paper's full stack from scratch:

* :mod:`repro.core` — the ViTri model, its density-weighted similarity,
  the PCA-based one-dimensional transformation and the B+-tree-backed
  :class:`~repro.core.index.VitriIndex`;
* :mod:`repro.geometry` — n-dimensional hypersphere/cap/sector/cone
  volumes and sphere-intersection volumes;
* :mod:`repro.pca`, :mod:`repro.clustering` — the analytical substrates;
* :mod:`repro.storage`, :mod:`repro.btree` — a paged storage engine and a
  disk-paged B+-tree with deterministic I/O accounting;
* :mod:`repro.baselines` — keyframe, video-signature and sequential-scan
  comparators;
* :mod:`repro.datasets`, :mod:`repro.eval` — a synthetic TV-ad dataset
  generator and the precision/cost evaluation harness.

Quickstart::

    import repro

    dataset = repro.generate_dataset(seed=7)
    summaries = [
        repro.summarize_video(i, dataset.frames(i), epsilon=0.3, seed=i)
        for i in range(dataset.num_videos)
    ]
    index = repro.VitriIndex.build(summaries, epsilon=0.3)
    result = index.knn(summaries[0], k=10)
"""

from __future__ import annotations

from repro.core import (
    KNNResult,
    QueryEngine,
    VideoDatabase,
    OneDimensionalTransform,
    QueryStats,
    VideoSummary,
    ViTri,
    VitriIndex,
    estimated_shared_frames,
    frame_similarity,
    summarize_video,
    video_similarity,
    vitri_similarity,
)
from repro.datasets import (
    DatasetConfig,
    VideoDataset,
    generate_dataset,
    video_histograms,
)
from repro.shard import (
    HashPartitioner,
    KeyRangePartitioner,
    Partitioner,
    ScatterStats,
    Shard,
    ShardedKNNResult,
    ShardedVideoDatabase,
    make_partitioner,
)
from repro.temporal import temporal_video_similarity

__version__ = "0.1.0"

__all__ = [
    "KNNResult",
    "QueryEngine",
    "VideoDatabase",
    "OneDimensionalTransform",
    "QueryStats",
    "VideoSummary",
    "ViTri",
    "VitriIndex",
    "estimated_shared_frames",
    "frame_similarity",
    "summarize_video",
    "video_similarity",
    "vitri_similarity",
    "DatasetConfig",
    "VideoDataset",
    "generate_dataset",
    "video_histograms",
    "HashPartitioner",
    "KeyRangePartitioner",
    "Partitioner",
    "ScatterStats",
    "Shard",
    "ShardedKNNResult",
    "ShardedVideoDatabase",
    "make_partitioner",
    "temporal_video_similarity",
    "__version__",
]
