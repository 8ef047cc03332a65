"""Multi-reference iDistance over the ViTri records.

The paper adopts iDistance's distance-to-reference-point mapping but uses
a *single* reference point chosen by Theorem 1.  The original iDistance
(Yu, Ooi, Tan, Jagadish; VLDB 2001) instead partitions the data and gives
every partition its own reference point:

    key(O) = partition_id * SEPARATION + d(O, ref_partition)

so each partition occupies a disjoint key band and the per-partition
distances are measured from a nearby point (far tighter than one global
reference in clustered data).  A query sphere is answered by one range
search per *intersecting* partition:

    partition i can contain candidates iff
        d(q, ref_i) - gamma <= radius_i
    and then its key range is
        [i * S + max(0, d(q, ref_i) - gamma),
         i * S + min(radius_i, d(q, ref_i) + gamma)]

Partitions are built with k-means over the ViTri positions; reference
points are the cluster centroids.  Results are identical to the source
index's (the filter is lossless for the same triangle-inequality reason);
only the cost profile differs, which ``bench_ext_mappings`` measures.
"""

from __future__ import annotations

import numpy as np

from repro.btree.tree import BPlusTree
from repro.clustering.kmeans import kmeans
from repro.core.composition import compose_ranges
from repro.core.index import KNNResult, QueryStats, VitriIndex
from repro.core.scoring import ScoreAccumulator
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.utils.counters import CostCounters, Timer

__all__ = ["MultiRefIndex"]


class MultiRefIndex:
    """Classic multi-partition iDistance over a :class:`VitriIndex`'s
    records.

    Parameters
    ----------
    source:
        A built :class:`VitriIndex` supplying records and metadata.
    num_partitions:
        Number of k-means partitions / reference points.
    buffer_capacity:
        LRU capacity of the B+-tree's buffer pool.
    seed:
        k-means seeding for the partitioning.
    """

    def __init__(
        self,
        source: VitriIndex,
        num_partitions: int = 8,
        *,
        buffer_capacity: int = 256,
        seed=0,
    ) -> None:
        if not isinstance(source, VitriIndex):
            raise TypeError("source must be a VitriIndex")
        if not isinstance(num_partitions, int) or num_partitions < 1:
            raise ValueError(
                f"num_partitions must be a positive int, got {num_partitions}"
            )
        self._source = source
        self._codec = source._codec
        self._epsilon = source.epsilon
        self._dim = source.dim
        self._video_frames = source.video_frames

        _, records = source.records()
        if not records.size:
            raise ValueError("the source index holds no records")
        positions = self._codec.columns_from_struct(records).positions
        num_partitions = min(num_partitions, positions.shape[0])
        clustering = kmeans(positions, num_partitions, seed=seed)
        self._references = clustering.centers
        assignments = clustering.labels

        distances = np.linalg.norm(
            positions - self._references[assignments], axis=1
        )
        self._partition_radii = np.zeros(num_partitions)
        for partition in range(num_partitions):
            members = distances[assignments == partition]
            if members.size:
                self._partition_radii[partition] = float(members.max())
        # Disjoint key bands: anything comfortably above the largest
        # in-partition distance works as the separation constant.
        self._separation = float(self._partition_radii.max()) * 2.0 + 1.0

        entries = []
        for record, partition, distance in zip(records, assignments, distances):
            key = partition * self._separation + float(distance)
            entries.append((key, record.tobytes()))
        entries.sort(key=lambda item: item[0])
        self._btree = BPlusTree.create(
            BufferPool(Pager(), capacity=buffer_capacity),
            payload_size=self._codec.record_size,
        )
        self._btree.bulk_load(entries)

    @property
    def num_partitions(self) -> int:
        """Number of partitions / reference points."""
        return self._references.shape[0]

    @property
    def num_vitris(self) -> int:
        """Number of indexed ViTris."""
        return self._btree.num_entries

    @property
    def btree(self) -> BPlusTree:
        """The underlying B+-tree over partitioned keys."""
        return self._btree

    def clear_caches(self) -> None:
        """Drop the buffer pool (cold-start a measurement)."""
        self._btree.buffer_pool.clear()

    def _ranges_for(self, position: np.ndarray, gamma: float):
        """Key ranges of the partitions a search sphere intersects."""
        distances = np.linalg.norm(self._references - position, axis=1)
        ranges = []
        for partition in range(self.num_partitions):
            if distances[partition] - gamma > self._partition_radii[partition]:
                continue
            low = max(0.0, distances[partition] - gamma)
            high = min(
                self._partition_radii[partition], distances[partition] + gamma
            )
            if low > high:
                continue
            base = partition * self._separation
            ranges.append((base + low, base + high))
        return ranges

    def knn(self, query: VideoSummary, k: int, *, cold: bool = False) -> KNNResult:
        """Top-``k`` most similar videos via partitioned range searches."""
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
            gammas = [
                vitri.radius + self._epsilon / 2.0 for vitri in query.vitris
            ]
            all_ranges = []
            for vitri, gamma in zip(query.vitris, gammas):
                all_ranges.extend(self._ranges_for(vitri.position, gamma))
            composed = compose_ranges(all_ranges)
            seen: set[tuple[int, int]] = set()
            for low, high in composed:
                entries = self._btree.range_search(low, high, counters=counters)
                if not entries:
                    continue
                candidates += len(entries)
                records = [self._codec.decode(p) for _, p in entries]
                positions = np.stack([r.position for r in records])
                video_ids = np.array([r.video_id for r in records])
                vitri_ids = np.array([r.vitri_id for r in records])
                counts = np.array([r.count for r in records])
                radii = np.array([r.radius for r in records])
                for index, (vitri, gamma) in enumerate(
                    zip(query.vitris, gammas)
                ):
                    distances = np.linalg.norm(
                        positions - vitri.position, axis=1
                    )
                    mask = distances <= gamma
                    fresh = np.array(
                        [
                            mask[t] and (index, int(vitri_ids[t])) not in seen
                            for t in range(len(records))
                        ]
                    )
                    if not fresh.any():
                        continue
                    for t in np.flatnonzero(fresh):
                        seen.add((index, int(vitri_ids[t])))
                    accumulator.evaluate_arrays(
                        index,
                        video_ids[fresh],
                        vitri_ids[fresh],
                        counts[fresh],
                        radii[fresh],
                        positions[fresh],
                    )
            ranked = accumulator.ranked(k)

        stats = QueryStats(
            page_requests=counters.page_requests,
            physical_reads=counters.page_reads,
            node_visits=counters.btree_node_visits,
            similarity_computations=accumulator.evaluations,
            candidates=candidates,
            ranges=len(composed),
            wall_time=timer.elapsed,
        )
        return KNNResult(
            videos=tuple(video for video, _ in ranked),
            scores=tuple(score for _, score in ranked),
            stats=stats,
        )
