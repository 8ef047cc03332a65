"""Baseline methods the paper compares against.

* :mod:`repro.baselines.keyframe` — the keyframe method of Chang et al.
  [reference 5]: summarise each video into ``k`` representative frames and
  measure similarity as the percentage of similar keyframes.
* :mod:`repro.baselines.visig` — the video-signature method of Cheung &
  Zakhor [reference 6]: shared random seed vectors, each video represented
  by its closest frame to every seed.
* :mod:`repro.baselines.seqscan` — sequential scan over a flat heap of
  the index's ViTris: the same similarity model as the index, with every
  data page read and every pair evaluated (the I/O / CPU upper bound in
  Figures 17-19).
* :mod:`repro.baselines.pyramid` — the Pyramid technique [Berchtold et
  al., reference 2]: the other classic high-dimensional-to-1-D mapping,
  over the same B+-tree substrate.
* :mod:`repro.baselines.gaussian` — the statistical-distribution category
  [references 8, 14]: one diagonal Gaussian per video with Bhattacharyya
  similarity.
* :mod:`repro.baselines.idistance` — the original multi-partition
  iDistance [reference 15], whose single-reference simplification the
  paper adopts.
"""

from __future__ import annotations

from repro.baselines.gaussian import (
    GaussianSummary,
    bhattacharyya_similarity,
    summarize_gaussian,
)
from repro.baselines.idistance import MultiRefIndex
from repro.baselines.keyframe import (
    KeyframeSummary,
    keyframe_similarity,
    summarize_keyframes,
)
from repro.baselines.pyramid import PyramidIndex, pyramid_value
from repro.baselines.seqscan import SequentialScan
from repro.baselines.visig import VideoSignature, VideoSignatureIndex

__all__ = [
    "GaussianSummary",
    "bhattacharyya_similarity",
    "summarize_gaussian",
    "KeyframeSummary",
    "MultiRefIndex",
    "keyframe_similarity",
    "summarize_keyframes",
    "PyramidIndex",
    "pyramid_value",
    "SequentialScan",
    "VideoSignature",
    "VideoSignatureIndex",
]
