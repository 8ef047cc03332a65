"""The ViTri index (paper Section 5): a B+-tree over 1-D-transformed
ViTri positions, with KNN query processing and dynamic insertion.

Architecture
------------
One page store backs the index: a **B+-tree** whose leaves hold
``(key, full ViTri record)`` entries, where ``key = d(position, O')`` is
the 1-D transform of the ViTri position — the paper's design ("inserting
the key into the B+-tree and ViTri into leaf node"), which keeps records
key-clustered even under dynamic insertion.  The leaf chain is the only
copy of a record: queries read it by key range, and everything that
needs every record (reopening, rebuilds, removal, the baselines) reads
it in one walk (:meth:`VitriIndex.records`).

A KNN query summarises the query video into ``M`` query ViTris.  Each
query ViTri ``(O^Q, R^Q, ...)`` can only share frames with database ViTris
within centre distance ``R^Q + eps/2`` (database radii are at most
``eps/2``), so by the triangle inequality its candidates lie in the key
range ``[key(O^Q) - gamma, key(O^Q) + gamma]`` with ``gamma = R^Q + eps/2``.
The ``naive`` method runs one B+-tree range search per query ViTri; the
``composed`` method (query composition) first merges overlapping ranges so
every leaf page is accessed at most once.  Both produce identical results.

Every page access flows through counted buffer pools, and every ViTri
similarity evaluation bumps a CPU counter, so each query returns a
:class:`QueryStats` with the exact cost breakdown the paper's figures plot.

Cost accounting is strictly per query: each :meth:`VitriIndex.knn` call
threads its own :class:`~repro.utils.counters.CostCounters` bundle down
through the B+-tree traversal and buffer pool, and :class:`QueryStats`
is built from that bundle alone.  (An earlier implementation derived
stats from before/after deltas of the *global* pool counters, which
silently corrupted both queries' stats whenever two queries interleaved
— the per-query bundle is also what lets the concurrent
:class:`~repro.core.engine.QueryEngine` report exact costs per query.)
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.btree.tree import BPlusTree
from repro.core.reference import ReferenceStrategy
from repro.core.scoring import ScoreAccumulator
from repro.core.transform import OneDimensionalTransform
from repro.core.vitri import VideoSummary, ViTri
from repro.core.composition import query_key_ranges
from repro.pca.incremental import IncrementalMoments
from repro.pca.pca import PCA, principal_angle
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap_file import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialization import ViTriRecord, ViTriRecordCodec
from repro.utils.counters import CostCounters, StageTimer, Timer
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["KNNResult", "QueryStats", "TOMBSTONE_VIDEO_ID", "VitriIndex"]

TOMBSTONE_VIDEO_ID = 0xFFFFFFFF
"""Reserved video id (the unsigned 32-bit maximum): no video may use it."""



def _check_radii(summary: VideoSummary, epsilon: float) -> None:
    """Indexed radii must respect the clustering bound ``R <= eps/2``.

    The KNN search radius ``gamma = R^Q + eps/2`` is only a lossless
    filter under that bound; a summary built with a different epsilon
    could otherwise be silently missed by range searches.
    """
    limit = epsilon / 2.0 + 1e-12
    worst = max(vitri.radius for vitri in summary.vitris)
    if worst > limit:
        raise ValueError(
            f"video {summary.video_id} has a ViTri radius {worst:.6g} "
            f"> epsilon/2 = {epsilon / 2.0:.6g}; summarise with the "
            "index's epsilon"
        )


@dataclass(frozen=True)
class QueryStats:
    """Cost breakdown of one KNN query.

    Attributes
    ----------
    page_requests:
        Logical page accesses — B+-tree nodes: the leaves hold the full
        ViTri records; the paper's I/O-cost unit.
    physical_reads:
        Buffer-pool misses that reached the pager.
    node_visits:
        B+-tree nodes traversed.
    similarity_computations:
        ViTri-pair similarity evaluations; the paper's CPU-cost unit.
    candidates:
        Leaf entries pulled out of the B+-tree (with repeats, for the
        naive method).
    ranges:
        Number of range searches executed.
    wall_time:
        Elapsed seconds.
    """

    page_requests: int
    physical_reads: int
    node_visits: int
    similarity_computations: int
    candidates: int
    ranges: int
    wall_time: float


@dataclass(frozen=True)
class KNNResult:
    """Outcome of a KNN query: ranked videos plus the query's cost.

    ``pruned`` is set only by a shard whose key bounds the query's
    composed ranges cannot reach: the empty answer is then a proof of
    zero similarity, not a search that found nothing.
    """

    videos: tuple[int, ...]
    scores: tuple[float, ...]
    stats: QueryStats
    pruned: bool = False

    def __len__(self) -> int:
        return len(self.videos)


def _check_query_args(query: VideoSummary, k: int, dim: int) -> None:
    """Shared argument validation for query entry points (index and engine)."""
    if not isinstance(query, VideoSummary):
        raise TypeError("query must be a VideoSummary")
    check_positive_int(k, "k")
    if query.dim != dim:
        raise ValueError(
            f"query dimension {query.dim} != index dimension {dim}"
        )


def _check_options(method: str, impl: str) -> None:
    if method not in ("composed", "naive"):
        raise ValueError(f"method must be 'composed' or 'naive', got {method!r}")
    if impl not in ("vectorized", "scalar"):
        raise ValueError(
            f"impl must be 'vectorized' or 'scalar', got {impl!r}"
        )


def _rank(
    scores: dict[int, float], k: int
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Top-``k`` videos score-descending, video-id tie-break."""
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    return (
        tuple(video for video, _ in ranked),
        tuple(score for _, score in ranked),
    )


class _Ranking(NamedTuple):
    """One query's ranking of every scored video, with its stats.

    The arrays are in :func:`_rank` order (score-descending, video-id
    tie-break), a total order, so the top-``k`` answer for any ``k`` is
    their first ``k`` entries.  Nothing a query computes depends on
    ``k``: its range searches, candidates and similarity evaluations,
    hence its stats, are the same for every cut.
    """

    video_ids: np.ndarray
    scores: np.ndarray
    stats: QueryStats

    def top(self, k: int) -> KNNResult:
        """The top-``k`` answer: the ranking's first ``k`` entries."""
        return KNNResult(
            videos=tuple(self.video_ids[:k].tolist()),
            scores=tuple(self.scores[:k].tolist()),
            stats=self.stats,
        )


def _execute_query(
    query: VideoSummary,
    method: str,
    *,
    btree: BPlusTree,
    codec: ViTriRecordCodec,
    transform: OneDimensionalTransform,
    epsilon: float,
    video_frames: dict[int, int],
    counters: CostCounters,
    impl: str = "vectorized",
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Run one KNN candidate pass and return ``(video_ids, scores,
    candidates, ranges)`` — the scored videos as id-ascending arrays,
    ready for :func:`_run_query`'s stable sort.

    This is the candidate pass under :func:`_run_query`: every page
    access, node visit and similarity evaluation it performs is recorded
    in the caller's per-query ``counters`` bundle, so costs are exact
    even when many queries run interleaved over shared storage.

    ``impl`` selects the inner-loop implementation:

    * ``"vectorized"`` (default) — run-at-a-time leaf reads viewed as
      structured arrays, one-view columnar record decode, batched
      sphere-intersection geometry over each query ViTri's contiguous
      slice of the key-sorted candidates, and an array-native score fold;
    * ``"scalar"`` — the per-record oracle: one ``range_search`` per
      composed range, per-record ``codec.decode``, per-pair
      ``accumulator.evaluate``, per-video Python fold.

    Both produce bit-identical scores and identical logical cost
    signatures (``similarity_computations``, ``records_scanned``,
    ``records_decoded``, ``candidates``, ``ranges``).  The naive method
    makes one ``range_search_many`` call per range, so every range pays
    its own root-to-leaf descent, exactly as the scalar path does.  For
    the composed method the vectorized path reads the same leaves but
    may report *fewer* ``page_requests``/``node_visits`` where it skips
    a redundant descent, or one more per level-1 node a range runs on
    into.  The equivalence suite asserts both properties.

    Per-stage wall time (I/O / deserialize / geometry / merge) is
    accumulated into ``counters.extra["stage_*_s"]`` for the latency
    benchmark's breakdown.
    """
    per_vitri_ranges, search_ranges = query_key_ranges(
        query, transform, epsilon, method
    )
    accumulator = ScoreAccumulator(query, video_frames)
    candidates = 0

    if impl == "vectorized":
        # The leaves hold the full ViTri records (the paper's layout),
        # so the bulk range search is the only I/O a query performs.
        with StageTimer(counters, "io"):
            # Naive searches each range on its own: one bulk call would
            # skip the descent of a range that starts inside the last
            # one's run, which is composition's saving, not naive's.
            if method == "naive":
                batches = [[search_range] for search_range in search_ranges]
            else:
                batches = [search_ranges]
            blocks = []
            for batch in batches:
                blocks.extend(
                    btree.range_search_many(
                        batch,
                        payload_dtype=codec.record_dtype,
                        counters=counters,
                    )
                )
        with StageTimer(counters, "deserialize"):
            if method == "composed" and len(blocks) > 1:
                # One block: every query ViTri slices the same candidates.
                # The composed ranges are disjoint and ascending, so the
                # concatenation stays key-sorted.  A lone block (the
                # common case) is decoded as is: columns_from_struct
                # already makes the one copy.
                blocks = [
                    (
                        np.concatenate([keys for keys, _ in blocks]),
                        np.concatenate([records for _, records in blocks]),
                    )
                ]
            parts = [
                (keys, codec.columns_from_struct(records, counters=counters))
                for keys, records in blocks
            ]
        candidates = sum(int(keys.size) for keys, _ in parts)
        with StageTimer(counters, "geometry"):
            every_vitri = range(len(per_vitri_ranges))
            for block_index, (keys, columns) in enumerate(parts):
                # A naive block holds one query ViTri's own range.
                for i in [block_index] if method == "naive" else every_vitri:
                    # Keys are non-decreasing, so the inclusive interval
                    # is one contiguous run: its columns are views.
                    vlow, vhigh = per_vitri_ranges[i]
                    start = int(np.searchsorted(keys, vlow, side="left"))
                    stop = int(np.searchsorted(keys, vhigh, side="right"))
                    if stop <= start:
                        continue
                    selected = columns.take(slice(start, stop))
                    counters.similarity_computations += (
                        accumulator.evaluate_arrays(
                            i,
                            selected.video_ids,
                            selected.vitri_ids,
                            selected.counts,
                            selected.radii,
                            selected.positions,
                        )
                    )
    else:
        for range_index, (low, high) in enumerate(search_ranges):
            with StageTimer(counters, "io"):
                entries = btree.range_search(low, high, counters=counters)
            if not entries:
                continue
            candidates += len(entries)
            counters.records_scanned += len(entries)
            with StageTimer(counters, "deserialize"):
                records = [codec.decode(payload) for _, payload in entries]
                counters.records_decoded += len(records)
            if method == "naive":
                relevant = [range_index]
            else:
                relevant = range(len(per_vitri_ranges))
            with StageTimer(counters, "geometry"):
                for (key, _), record in zip(entries, records):
                    indices = [
                        i
                        for i in relevant
                        if per_vitri_ranges[i][0]
                        <= key
                        <= per_vitri_ranges[i][1]
                    ]
                    if indices:
                        counters.similarity_computations += (
                            accumulator.evaluate(record, indices)
                        )

    with StageTimer(counters, "merge"):
        video_ids, scores = accumulator.score_arrays()
    # Range-search count rides in the bundle's extra dict so aggregators
    # (the shard router) can rebuild every QueryStats field from bundles
    # alone, never from other QueryStats objects.
    counters.extra["range_searches"] = (
        counters.extra.get("range_searches", 0) + len(search_ranges)
    )
    return video_ids, scores, candidates, len(search_ranges)


def _run_query(
    query: VideoSummary,
    method: str,
    *,
    out_counters: CostCounters | None = None,
    **read_path,
) -> _Ranking:
    """The one query executor: candidate pass, ranking, stats.

    Everything that answers a query — :meth:`VitriIndex.knn` and the
    serving :class:`~repro.core.engine.QueryEngine` — ends here and cuts
    the returned :class:`_Ranking` with :meth:`_Ranking.top`.
    ``read_path`` is :func:`_execute_query`'s keyword set (which tree,
    codec, transform, ... to read through).

    Cost accounting is strictly per query: the pass runs against a fresh
    :class:`CostCounters` bundle, the returned :class:`QueryStats` is
    built from that bundle and a wall timer covering the pass *and* the
    ranking, and the bundle is folded into ``out_counters`` (the shard
    router's aggregation seam) when one is given.
    """
    counters = CostCounters()
    with Timer() as timer:
        video_ids, scores, candidates, ranges = _execute_query(
            query, method, counters=counters, **read_path
        )
        # `_rank` over arrays: the ids are ascending, so a stable
        # sort on the negated scores breaks ties by video id.
        order = np.argsort(-scores, kind="stable")
    stats = QueryStats(
        page_requests=counters.page_requests,
        physical_reads=counters.page_reads,
        node_visits=counters.btree_node_visits,
        similarity_computations=counters.similarity_computations,
        candidates=candidates,
        ranges=ranges,
        wall_time=timer.elapsed,
    )
    if out_counters is not None:
        out_counters.add(counters)
    return _Ranking(video_ids[order], scores[order], stats)


class VitriIndex:
    """B+-tree index over 1-D-transformed ViTri positions.

    Build with :meth:`build` (bulk, one-off construction) and extend with
    :meth:`insert_video` (dynamic maintenance).  Query with :meth:`knn`.
    """

    def __init__(self, *, _opened: bool = False) -> None:
        if not _opened:
            raise RuntimeError("use VitriIndex.build(...) to construct an index")
        self._dim = 0
        self._epsilon = 0.0
        self._transform: OneDimensionalTransform | None = None
        self._codec: ViTriRecordCodec | None = None
        self._btree: BPlusTree | None = None
        self._heap: HeapFile | None = None
        self._video_frames: dict[int, int] = {}
        self._next_vitri_id = 0
        self._built_component: np.ndarray | None = None
        self._moments: IncrementalMoments | None = None
        # Memoised content_token().  insert_video / remove_video, the only
        # mutators of the state it hashes, reset it before their first
        # change and again after their last, so a token computed by a
        # concurrent reader halfway through cannot outlive the mutation.
        self._content_token: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        summaries: list[VideoSummary],
        epsilon: float,
        *,
        reference: ReferenceStrategy | str = "optimal",
        btree_path: str | None = None,
        heap_path: str | None = None,
        buffer_capacity: int = 256,
        btree_pool: BufferPool | None = None,
    ) -> "VitriIndex":
        """Bulk-build an index from video summaries.

        The B+-tree is bulk-loaded with packed leaves holding the full
        ViTri records in key order (the paper's layout), numbered
        ``vitri_id`` 0, 1, ... in that order.

        Parameters
        ----------
        summaries:
            The database videos' ViTri summaries.
        epsilon:
            Frame similarity threshold used when summarising; needed at
            query time to derive search radii (``gamma = R^Q + eps/2``).
        reference:
            Reference-point strategy (instance or name) for the 1-D
            transform.
        btree_path:
            Optional backing file, for measuring file I/O; in-memory
            when omitted.  Nothing reopens it: storage that survives a
            restart is :class:`~repro.core.database.VideoDatabase`.
        heap_path:
            Optional file to write a flat copy of the records to, once,
            at build (:attr:`heap`).  Nothing reads it; it keeps the
            file-backed cold-scan benchmark's directory as it was.
        buffer_capacity:
            LRU buffer-pool capacity (pages) of each file's pool.
        btree_pool:
            A pre-built buffer pool to use instead of one over
            ``btree_path`` — the seam the crash-safe database directory
            uses to route the tree through its write-ahead log.
        """
        if not summaries:
            raise ValueError("cannot build an index from zero summaries")
        epsilon = check_positive(epsilon, "epsilon")
        dims = {summary.dim for summary in summaries}
        if len(dims) != 1:
            raise ValueError(f"summaries have inconsistent dimensions: {dims}")
        video_ids = [summary.video_id for summary in summaries]
        if len(set(video_ids)) != len(video_ids):
            raise ValueError("summaries contain duplicate video ids")
        if any(vid >= TOMBSTONE_VIDEO_ID for vid in video_ids):
            raise ValueError(
                f"video ids must be below {TOMBSTONE_VIDEO_ID} (reserved)"
            )
        for summary in summaries:
            _check_radii(summary, epsilon)

        index = cls(_opened=True)
        index._dim = dims.pop()
        index._epsilon = epsilon
        index._codec = ViTriRecordCodec(index._dim)
        index._transform = OneDimensionalTransform(reference)

        flat: list[tuple[int, ViTri]] = [
            (summary.video_id, vitri)
            for summary in summaries
            for vitri in summary.vitris
        ]
        positions = np.stack([vitri.position for _, vitri in flat])
        index._transform.fit(positions)
        index._built_component = PCA(n_components=1).fit(positions).first_component
        index._moments = IncrementalMoments(index._dim)
        index._moments.update(positions)
        keys = index._transform.keys(positions)

        if btree_pool is not None and btree_path is not None:
            raise ValueError("pass btree_path or btree_pool, not both")

        order = np.argsort(keys, kind="stable")
        index._btree = BPlusTree.create(
            btree_pool
            if btree_pool is not None
            else BufferPool(Pager(btree_path), capacity=buffer_capacity),
            payload_size=index._codec.record_size,
        )

        entries: list[tuple[float, bytes]] = []
        for position_in_key_order in order:
            video_id, vitri = flat[position_in_key_order]
            record = ViTriRecord(
                video_id=video_id,
                vitri_id=index._next_vitri_id,
                count=vitri.count,
                radius=vitri.radius,
                position=vitri.position,
            )
            index._next_vitri_id += 1
            payload = index._codec.encode(record)
            entries.append((float(keys[position_in_key_order]), payload))
        index._btree.bulk_load(entries)
        if heap_path is not None:
            index._heap = HeapFile.create(
                BufferPool(Pager(heap_path), capacity=buffer_capacity),
                index._codec.record_size,
            )
            for _, payload in entries:
                index._heap.append(payload)
            index._heap.flush()
            index._heap.buffer_pool.pager.sync()

        index._video_frames = {
            summary.video_id: summary.num_frames for summary in summaries
        }
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Feature-space dimensionality."""
        return self._dim

    @property
    def epsilon(self) -> float:
        """Frame similarity threshold the database was summarised with."""
        return self._epsilon

    @property
    def num_vitris(self) -> int:
        """Number of indexed ViTris."""
        return self._btree.num_entries

    @property
    def num_videos(self) -> int:
        """Number of indexed videos."""
        return len(self._video_frames)

    @property
    def transform(self) -> OneDimensionalTransform:
        """The fitted 1-D transform."""
        return self._transform

    @property
    def codec(self) -> ViTriRecordCodec:
        """The ViTri record codec (shared with baselines and the engine)."""
        return self._codec

    @property
    def btree(self) -> BPlusTree:
        """The underlying B+-tree (exposed for tests and benchmarks)."""
        return self._btree

    @property
    def heap(self) -> HeapFile | None:
        """The flat copy :meth:`build` wrote to ``heap_path``; ``None``
        without one.  Written once and never read or updated."""
        return self._heap

    @property
    def video_frames(self) -> dict[int, int]:
        """Frame count per indexed video id (copy)."""
        return dict(self._video_frames)

    def has_video(self, video_id: int) -> bool:
        """Whether *video_id* is indexed (constant time, no copy)."""
        return video_id in self._video_frames

    def content_token(self) -> str:
        """Hash identifying this index's *content snapshot*.

        Changes whenever a video is inserted or removed (and across
        distinct indexes/shards), so result caches keyed on it can never
        serve a ranking computed over different content.  Cheap: hashes
        only in-memory metadata (no page I/O), once per content state —
        a shard asks for it several times per query.
        """
        if self._content_token is not None:
            return self._content_token
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            struct.pack(
                "<IdQQ",
                self._dim,
                self._epsilon,
                self._next_vitri_id,
                self._btree.num_entries,
            )
        )
        digest.update(self._transform.reference_point_.tobytes())
        for video_id in sorted(self._video_frames):
            digest.update(
                struct.pack("<QQ", video_id, self._video_frames[video_id])
            )
        self._content_token = digest.hexdigest()
        return self._content_token

    def clear_caches(self) -> None:
        """Flush and drop the buffer pool (cold-start a measurement)."""
        self._btree.buffer_pool.clear()

    def flush(self) -> None:
        """Write all dirty pages and sync the backing file (no-op for an
        in-memory pager)."""
        self._btree.flush()
        self._btree.buffer_pool.pager.sync()

    def flush_pages(self) -> None:
        """Push dirty pages down to the pagers *without* syncing.

        Used by a crash-safe database checkpoint: the page images land in
        the shared write-ahead log, and the owning
        :class:`~repro.core.database.VideoDatabase` commits them together
        with its metadata in one atomic step.
        """
        self._btree.flush()

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def insert_video(self, summary: VideoSummary) -> None:
        """Insert one video with standard B+-tree insertions.

        The reference point is *not* refitted (the paper's dynamic
        scenario); as insertions drift the data's correlation structure,
        key variance degrades — monitor with :meth:`drift_angle` and
        rebuild with :meth:`rebuild` when it exceeds a threshold.
        """
        if not isinstance(summary, VideoSummary):
            raise TypeError("summary must be a VideoSummary")
        if summary.dim != self._dim:
            raise ValueError(
                f"summary dimension {summary.dim} != index dimension {self._dim}"
            )
        if summary.video_id in self._video_frames:
            raise ValueError(f"video id {summary.video_id} already indexed")
        if summary.video_id >= TOMBSTONE_VIDEO_ID:
            raise ValueError(
                f"video ids must be below {TOMBSTONE_VIDEO_ID} (reserved)"
            )
        _check_radii(summary, self._epsilon)
        moments = self._streaming_moments()
        self._content_token = None
        for vitri in summary.vitris:
            record = ViTriRecord(
                video_id=summary.video_id,
                vitri_id=self._next_vitri_id,
                count=vitri.count,
                radius=vitri.radius,
                position=vitri.position,
            )
            self._next_vitri_id += 1
            payload = self._codec.encode(record)
            key = self._transform.key(vitri.position)
            self._btree.insert(key, payload)
        moments.update(summary.positions())
        self._video_frames[summary.video_id] = summary.num_frames
        self._content_token = None

    def insert_many(self, summaries) -> int:
        """Insert a batch of videos; returns how many were inserted.

        Every summary is validated (type, dimension, epsilon radius
        bound, id unused — in the index and within the batch) before the
        first B+-tree insertion, so a bad element cannot leave a
        half-inserted batch behind.  This is the invariant the ingest
        pipeline's WAL-batched commits rely on: a batch either lands
        whole or not at all.
        """
        batch = list(summaries)
        seen: set[int] = set()
        for summary in batch:
            if not isinstance(summary, VideoSummary):
                raise TypeError("summaries must be VideoSummary instances")
            if summary.dim != self._dim:
                raise ValueError(
                    f"summary dimension {summary.dim} != index "
                    f"dimension {self._dim}"
                )
            if summary.video_id in self._video_frames or summary.video_id in seen:
                raise ValueError(f"video id {summary.video_id} already indexed")
            if summary.video_id >= TOMBSTONE_VIDEO_ID:
                raise ValueError(
                    f"video ids must be below {TOMBSTONE_VIDEO_ID} (reserved)"
                )
            _check_radii(summary, self._epsilon)
            seen.add(summary.video_id)
        for summary in batch:
            self.insert_video(summary)
        return len(batch)

    def remove_video(self, video_id: int) -> int:
        """Remove a video's ViTris from the index; returns how many.

        B+-tree entries are removed with lazy deletion (underflowing
        leaves remain until a rebuild).
        """
        if video_id not in self._video_frames:
            raise ValueError(f"video id {video_id} is not indexed")
        self._content_token = None
        keys, records = self.records()
        moments = self._streaming_moments(records)
        mine = np.flatnonzero(records["video_id"] == video_id)
        positions = self._codec.columns_from_struct(records[mine]).positions
        removed = 0
        for row, position in zip(mine, positions):
            removed += self._btree.delete(float(keys[row]), records[row].tobytes())
            moments.downdate(position[None, :])
        del self._video_frames[video_id]
        self._content_token = None
        return removed

    def drift_angle(self) -> float:
        """Angle (radians) between the build-time first principal component
        and the current one (Section 6.3.3's rebuild trigger).

        Computed from exact streaming moments maintained across inserts
        and removals, so the check performs **no page I/O** — except
        the first one on a reopened index, which folds the moments from
        one leaf-chain walk.
        """
        current = self._streaming_moments().first_component()
        return principal_angle(self._built_component, current)

    def _streaming_moments(self, records: np.ndarray | None = None):
        """The exact streaming moments of every indexed position.

        A reopened index folds them on first use from the leaf chain's
        records (``records``, or a fresh :meth:`records` walk), in
        ``vitri_id`` order: the order a live index folded them in, so
        they carry the same bits.  Mutators call this before their first
        change, so the walk never sees a half-applied one; opening the
        index reads no leaf.
        """
        if self._moments is None:
            if records is None:
                records = self.records()[1]
            moments = IncrementalMoments(self._dim)
            positions = self._codec.columns_from_struct(records).positions
            if positions.shape[0] > 0:
                moments.update(positions)
            self._moments = moments
        return self._moments

    def rebuild(
        self,
        *,
        reference: ReferenceStrategy | str | None = None,
        buffer_capacity: int = 256,
    ) -> "VitriIndex":
        """Return a freshly built index over the current content.

        Re-fits the reference point on all present ViTri positions; used
        when :meth:`drift_angle` exceeds the allowed degree.
        """
        return VitriIndex.build(
            self.summaries(),
            self._epsilon,
            reference=reference if reference is not None else self._transform.strategy,
            buffer_capacity=buffer_capacity,
        )

    def records(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, records)`` of every indexed ViTri, ``vitri_id``
        ascending: one walk of the leaf chain, the records' only copy.

        ``records`` is a :attr:`ViTriRecordCodec.record_dtype` array.
        The ids grow in the order the records were added (key order at
        :meth:`build`, then one per inserted ViTri), so this is the
        order everything derived from the full record set is folded in.
        Meant for the streaming moments of a reopened index, rebuilds,
        removal and the baselines, not queries.
        """
        ((keys, records),) = self._btree.range_search_many(
            [(-math.inf, math.inf)], payload_dtype=self._codec.record_dtype
        )
        order = np.argsort(records["vitri_id"], kind="stable")
        return keys[order], records[order]

    def summaries(self) -> list[VideoSummary]:
        """Reconstruct every indexed video's summary from the leaf chain
        (video-id ascending, each video's ViTris in ``vitri_id`` order).
        A full walk — intended for rebuilds, re-growing a fleet and
        ``check``, not queries."""
        columns = self._codec.columns_from_struct(self.records()[1])
        by_video: dict[int, list[ViTri]] = defaultdict(list)
        for video_id, position, radius, count in zip(
            columns.video_ids.tolist(),
            columns.positions,
            columns.radii.tolist(),
            columns.counts.tolist(),
        ):
            by_video[video_id].append(
                ViTri(position=position, radius=radius, count=count)
            )
        return [
            VideoSummary(
                video_id=video_id,
                vitris=tuple(vitris),
                num_frames=self._video_frames[video_id],
            )
            for video_id, vitris in sorted(by_video.items())
        ]

    # ------------------------------------------------------------------
    # KNN query processing
    # ------------------------------------------------------------------
    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        method: str = "composed",
        impl: str = "vectorized",
        cold: bool = False,
        out_counters: CostCounters | None = None,
    ) -> KNNResult:
        """Find the top-``k`` most similar database videos.

        Parameters
        ----------
        query:
            ViTri summary of the query video (summarised with the same
            ``epsilon`` as the database).
        k:
            Number of results.
        method:
            ``"composed"`` (query composition, the default) or ``"naive"``
            (one independent range search per query ViTri).  Both return
            identical results; they differ only in cost.
        impl:
            ``"vectorized"`` (page-batched reads + numpy geometry, the
            default) or ``"scalar"`` (the per-record oracle).  Results
            are bit-identical; ``"scalar"`` exists as the equivalence
            baseline and for debugging.
        cold:
            Clear the buffer pools first so the reported I/O reflects a
            cold cache.
        out_counters:
            Optional caller-owned bundle the query's events are folded
            into (in addition to the returned stats) — the seam the
            shard router uses to aggregate per-shard costs.
        """
        _check_query_args(query, k, self._dim)
        _check_options(method, impl)
        if cold:
            self.clear_caches()
        return _run_query(
            query,
            method,
            out_counters=out_counters,
            btree=self._btree,
            codec=self._codec,
            transform=self._transform,
            epsilon=self._epsilon,
            video_frames=self._video_frames,
            impl=impl,
        ).top(k)

    # ------------------------------------------------------------------
    # Metadata persistence
    # ------------------------------------------------------------------
    def meta_dict(self) -> dict:
        """The index's non-paged metadata as a JSON-serialisable dict
        (epsilon, reference point, video frame counts, ...)."""
        return {
            "dim": self._dim,
            "epsilon": self._epsilon,
            "reference_point": self._transform.reference_point_.tolist(),
            "built_component": self._built_component.tolist(),
            "video_frames": {str(k): v for k, v in self._video_frames.items()},
            "next_vitri_id": self._next_vitri_id,
        }

    @classmethod
    def from_storage(
        cls,
        btree_pool: BufferPool,
        meta: dict,
        *,
        reference: ReferenceStrategy | str = "optimal",
    ) -> "VitriIndex":
        """Re-attach an index to already-open storage plus a meta dict.

        The inverse of :meth:`meta_dict` over pools the caller controls —
        this is how the crash-safe database reopens a recovered directory
        whose pager writes through its write-ahead log.  Reads only the
        tree's metadata page: the streaming moments are folded from the
        leaves when first needed (:meth:`_streaming_moments`).
        """
        index = cls(_opened=True)
        index._dim = int(meta["dim"])
        index._epsilon = float(meta["epsilon"])
        index._codec = ViTriRecordCodec(index._dim)
        index._transform = OneDimensionalTransform(reference)
        index._transform.reference_point_ = np.asarray(
            meta["reference_point"], dtype=np.float64
        )
        index._built_component = np.asarray(
            meta["built_component"], dtype=np.float64
        )
        index._video_frames = {
            int(k): int(v) for k, v in meta["video_frames"].items()
        }
        index._next_vitri_id = int(meta["next_vitri_id"])
        index._btree = BPlusTree.open(btree_pool)
        return index

    def __repr__(self) -> str:
        return (
            f"VitriIndex(videos={self.num_videos}, vitris={self.num_vitris}, "
            f"dim={self._dim}, epsilon={self._epsilon})"
        )

    def __len__(self) -> int:
        return self.num_vitris
