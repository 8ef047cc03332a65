"""The Pyramid technique as an alternative 1-D transformation.

The paper's related work names two typical high-dimensional-to-1-D
mappings: iDistance (which the paper's transform generalises) and the
Pyramid technique of Berchtold, Boehm and Kriegel (SIGMOD 1998).  This
module implements the latter over the same B+-tree substrate, as an extra
comparator for the Figure 17/18-style studies.

Mapping
-------
The unit data space ``[0, 1]^d`` is split into ``2d`` pyramids meeting at
the centre.  For a point ``v`` with centred coordinates
``v_hat = v - 0.5``, the pyramid number is determined by the coordinate
of largest magnitude (``j_max``): pyramid ``j_max`` when that coordinate
is negative, ``j_max + d`` otherwise.  The *pyramid value* is

    pv(v) = pyramid_number + |v_hat[j_max]|

and is indexed in a B+-tree.

Range queries
-------------
A KNN query's per-ViTri search sphere is enclosed in an axis-aligned box;
for each of the ``2d`` pyramids the box maps to at most one interval of
heights (the original paper's Lemma), giving at most ``2d`` B+-tree range
searches whose union is a superset of the true candidates.  Exactness is
preserved the same way as in the distance transform: pruned points are
provably outside the search sphere, and surviving candidates are scored
with the full similarity measure.
"""

from __future__ import annotations

import numpy as np

from repro.btree.tree import BPlusTree
from repro.core.composition import compose_ranges
from repro.core.index import KNNResult, QueryStats, VitriIndex
from repro.core.scoring import ScoreAccumulator
from repro.core.vitri import VideoSummary
from repro.utils.counters import CostCounters, Timer
from repro.utils.validation import check_vector
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

__all__ = ["PyramidIndex", "pyramid_value", "query_ranges"]


def pyramid_value(point: np.ndarray) -> float:
    """The Pyramid-technique 1-D key of a point in ``[0, 1]^d``."""
    point = check_vector(point, "point")
    centred = point - 0.5
    j_max = int(np.argmax(np.abs(centred)))
    dim = centred.shape[0]
    pyramid = j_max if centred[j_max] < 0.0 else j_max + dim
    return float(pyramid) + float(abs(centred[j_max]))


def _interval_min_max(low: float, high: float) -> tuple[float, float]:
    """MIN/MAX of |t| over t in [low, high] (centred coordinates)."""
    if low <= 0.0 <= high:
        minimum = 0.0
    else:
        minimum = min(abs(low), abs(high))
    return minimum, max(abs(low), abs(high))


def query_ranges(
    box_low: np.ndarray, box_high: np.ndarray
) -> list[tuple[float, float]]:
    """Pyramid-value intervals intersecting an axis-aligned query box.

    Parameters
    ----------
    box_low, box_high:
        Box corners in data coordinates (clipped to ``[0, 1]`` internally).

    Returns
    -------
    list[tuple[float, float]]
        At most ``2d`` key ranges ``[pyramid + h_low, pyramid + h_high]``.
    """
    box_low = check_vector(box_low, "box_low")
    box_high = check_vector(box_high, "box_high", dim=box_low.shape[0])
    low = np.clip(box_low, 0.0, 1.0) - 0.5
    high = np.clip(box_high, 0.0, 1.0) - 0.5
    if np.any(high < low):
        raise ValueError("box_high must dominate box_low")
    dim = low.shape[0]
    mins = np.empty(dim)
    for j in range(dim):
        mins[j], _ = _interval_min_max(float(low[j]), float(high[j]))

    ranges: list[tuple[float, float]] = []
    for j in range(dim):
        other_min = float(np.max(np.delete(mins, j))) if dim > 1 else 0.0
        # Negative-side pyramid j: points with v_hat[j] <= 0 dominating.
        if low[j] < 0.0:
            height_high = float(-low[j])
            height_low = max(float(max(0.0, -high[j])), other_min, mins[j])
            if height_low <= height_high:
                ranges.append((j + height_low, j + height_high))
        # Positive-side pyramid j + d.
        if high[j] > 0.0:
            height_high = float(high[j])
            height_low = max(float(max(0.0, low[j])), other_min, mins[j])
            if height_low <= height_high:
                ranges.append((dim + j + height_low, dim + j + height_high))
    return ranges


class PyramidIndex:
    """Pyramid-technique index over the ViTris of a :class:`VitriIndex`.

    Reuses the source index's records and epsilon; builds
    its own B+-tree keyed by pyramid values.  Query results are identical
    to the source index's — only the I/O profile differs.

    Parameters
    ----------
    source:
        A built :class:`VitriIndex` supplying records and metadata.
    buffer_capacity:
        LRU capacity of the pyramid tree's buffer pool.
    """

    def __init__(self, source: VitriIndex, *, buffer_capacity: int = 256) -> None:
        if not isinstance(source, VitriIndex):
            raise TypeError("source must be a VitriIndex")
        self._source = source
        self._codec = source._codec
        self._epsilon = source.epsilon
        self._dim = source.dim
        self._video_frames = source.video_frames

        _, records = source.records()
        positions = self._codec.columns_from_struct(records).positions
        entries = [
            (pyramid_value(position), record.tobytes())
            for position, record in zip(positions, records)
        ]
        entries.sort(key=lambda item: item[0])
        self._btree = BPlusTree.create(
            BufferPool(Pager(), capacity=buffer_capacity),
            payload_size=self._codec.record_size,
        )
        self._btree.bulk_load(entries)

    @property
    def btree(self) -> BPlusTree:
        """The underlying B+-tree over pyramid values."""
        return self._btree

    @property
    def num_vitris(self) -> int:
        """Number of indexed ViTris."""
        return self._btree.num_entries

    def clear_caches(self) -> None:
        """Drop the buffer pool (cold-start a measurement)."""
        self._btree.buffer_pool.clear()

    def knn(self, query: VideoSummary, k: int, *, cold: bool = False) -> KNNResult:
        """Top-``k`` most similar videos via pyramid-value range searches."""
        if not isinstance(query, VideoSummary):
            raise TypeError("query must be a VideoSummary")
        if query.dim != self._dim:
            raise ValueError(
                f"query dimension {query.dim} != index dimension {self._dim}"
            )
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be a positive int, got {k}")
        if cold:
            self.clear_caches()

        # Per-query bundle: costs are attributed to this query alone,
        # never derived from global pool-counter deltas.
        counters = CostCounters()
        accumulator = ScoreAccumulator(query, self._video_frames)
        candidates = 0
        with Timer() as timer:
            # Per query ViTri: its search sphere's bounding box -> pyramid
            # ranges.  Then compose all ranges and evaluate candidates
            # against every query ViTri whose sphere could reach them
            # (determined exactly by centre distance below).
            all_ranges: list[tuple[float, float]] = []
            gammas = [
                vitri.radius + self._epsilon / 2.0 for vitri in query.vitris
            ]
            for vitri, gamma in zip(query.vitris, gammas):
                all_ranges.extend(
                    query_ranges(
                        vitri.position - gamma, vitri.position + gamma
                    )
                )
            seen_vitri_pairs: set[tuple[int, int]] = set()
            for low, high in compose_ranges(all_ranges):
                for _, payload in self._btree.range_search(
                    low, high, counters=counters
                ):
                    candidates += 1
                    record = self._codec.decode(payload)
                    relevant = []
                    for index, (vitri, gamma) in enumerate(
                        zip(query.vitris, gammas)
                    ):
                        pair = (index, record.vitri_id)
                        if pair in seen_vitri_pairs:
                            continue
                        distance = float(
                            np.linalg.norm(record.position - vitri.position)
                        )
                        if distance <= gamma:
                            relevant.append(index)
                            seen_vitri_pairs.add(pair)
                    accumulator.evaluate(record, relevant)
            ranked = accumulator.ranked(k)

        stats = QueryStats(
            page_requests=counters.page_requests,
            physical_reads=counters.page_reads,
            node_visits=counters.btree_node_visits,
            similarity_computations=accumulator.evaluations,
            candidates=candidates,
            ranges=len(compose_ranges(all_ranges)),
            wall_time=timer.elapsed,
        )
        return KNNResult(
            videos=tuple(video for video, _ in ranked),
            scores=tuple(score for _, score in ranked),
            stats=stats,
        )
