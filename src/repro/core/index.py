"""The ViTri index (paper Section 5): a B+-tree over 1-D-transformed
ViTri positions, with KNN query processing and dynamic insertion.

Architecture
------------
Two page stores back the index:

* a **B+-tree** whose leaves hold ``(key, full ViTri record)`` entries,
  where ``key = d(position, O')`` is the 1-D transform of the ViTri
  position — the paper's design ("inserting the key into the B+-tree and
  ViTri into leaf node"), which keeps records key-clustered even under
  dynamic insertion;
* an append-only **heap file** holding the same records as a flat file,
  which is what the sequential-scan baseline reads.

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
import struct
from collections import defaultdict
from dataclasses import dataclass

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
"""Video-id sentinel marking a removed record in the heap file."""



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
        Logical page accesses — B+-tree nodes only: the leaves hold the
        full ViTri records, so a query never touches the heap file; the
        paper's I/O-cost unit.
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


def _check_query_args(
    query: VideoSummary, k: int, method: str, dim: int
) -> None:
    """Shared argument validation for query entry points (index and engine)."""
    if not isinstance(query, VideoSummary):
        raise TypeError("query must be a VideoSummary")
    check_positive_int(k, "k")
    if query.dim != dim:
        raise ValueError(
            f"query dimension {query.dim} != index dimension {dim}"
        )
    if method not in ("composed", "naive"):
        raise ValueError(f"method must be 'composed' or 'naive', got {method!r}")


def _check_impl(impl: str) -> None:
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


def _top_k(
    video_ids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """:func:`_rank` over score arrays: *video_ids* must be ascending,
    so a stable sort on the negated scores breaks ties by video id."""
    order = np.argsort(-scores, kind="stable")[:k]
    return tuple(video_ids[order].tolist()), tuple(scores[order].tolist())


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
    ready for :func:`_top_k`.

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
    k: int,
    *,
    out_counters: CostCounters | None = None,
    **read_path,
) -> KNNResult:
    """The one query executor: candidate pass, top-``k``, stats.

    Everything that answers a query — :meth:`VitriIndex.knn` and the
    serving :class:`~repro.core.engine.QueryEngine` — ends here.
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
        videos, kept_scores = _top_k(video_ids, scores, k)
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
    return KNNResult(videos=videos, scores=kept_scores, stats=stats)


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
        self._summaries_seen = 0
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
        heap_pool: BufferPool | None = None,
    ) -> "VitriIndex":
        """Bulk-build an index from video summaries.

        The B+-tree is bulk-loaded with packed leaves holding the full
        ViTri records in key order (the paper's layout); the parallel
        heap file — the sequential-scan baseline's flat input — is
        written in the same order.

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
        btree_path, heap_path:
            Optional backing files, for measuring file I/O; in-memory
            when omitted.  Nothing reopens them: storage that survives
            a restart is :class:`~repro.core.database.VideoDatabase`.
        buffer_capacity:
            LRU buffer-pool capacity (pages) for each of the two stores.
        btree_pool, heap_pool:
            Pre-built buffer pools to use instead of constructing fresh
            ones from the path arguments — the seam the crash-safe
            database directory uses to route both stores through one
            shared write-ahead log.  Mutually exclusive with the
            corresponding path argument.
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
        if heap_pool is not None and heap_path is not None:
            raise ValueError("pass heap_path or heap_pool, not both")

        order = np.argsort(keys, kind="stable")
        index._btree = BPlusTree.create(
            btree_pool
            if btree_pool is not None
            else BufferPool(Pager(btree_path), capacity=buffer_capacity),
            payload_size=index._codec.record_size,
        )
        index._heap = HeapFile.create(
            heap_pool
            if heap_pool is not None
            else BufferPool(Pager(heap_path), capacity=buffer_capacity),
            index._codec.record_size,
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
            index._heap.append(payload)
            entries.append((float(keys[position_in_key_order]), payload))
        index._btree.bulk_load(entries)

        index._video_frames = {
            summary.video_id: summary.num_frames for summary in summaries
        }
        index._summaries_seen = len(summaries)
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
    def heap(self) -> HeapFile:
        """The underlying ViTri heap (exposed for tests and benchmarks)."""
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
        """Flush and drop both buffer pools (cold-start a measurement)."""
        self._btree.buffer_pool.clear()
        self._heap.buffer_pool.clear()

    def flush(self) -> None:
        """Write all dirty pages and sync both backing files (no-op for
        in-memory pagers)."""
        self._btree.flush()
        self._heap.flush()
        self._btree.buffer_pool.pager.sync()
        self._heap.buffer_pool.pager.sync()

    def flush_pages(self) -> None:
        """Push dirty pages down to the pagers *without* syncing.

        Used by a crash-safe database checkpoint: the page images land in
        the shared write-ahead log, and the owning
        :class:`~repro.core.database.VideoDatabase` commits them together
        with its metadata in one atomic step.
        """
        self._btree.flush()
        self._heap.flush()

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
            self._heap.append(payload)
            key = self._transform.key(vitri.position)
            self._btree.insert(key, payload)
        self._moments.update(summary.positions())
        self._video_frames[summary.video_id] = summary.num_frames
        self._summaries_seen += 1
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
        leaves remain until a rebuild); the heap records are overwritten
        with tombstones so the sequential-scan baseline skips them.
        """
        if video_id not in self._video_frames:
            raise ValueError(f"video id {video_id} is not indexed")
        self._content_token = None
        removed = 0
        for record_id, payload in list(self._heap.scan()):
            record = self._codec.decode(payload)
            if record.video_id != video_id:
                continue
            key = self._transform.key(record.position)
            deleted = self._btree.delete(key, payload)
            if deleted == 0:
                raise RuntimeError(
                    f"index out of sync: ViTri {record.vitri_id} of video "
                    f"{video_id} is in the heap but not in the B+-tree"
                )
            removed += deleted
            tombstone = ViTriRecord(
                video_id=TOMBSTONE_VIDEO_ID,
                vitri_id=record.vitri_id,
                count=record.count,
                radius=record.radius,
                position=record.position,
            )
            self._heap.overwrite(record_id, self._codec.encode(tombstone))
            self._moments.downdate(record.position[None, :])
        del self._video_frames[video_id]
        self._content_token = None
        return removed

    def drift_angle(self) -> float:
        """Angle (radians) between the build-time first principal component
        and the current one (Section 6.3.3's rebuild trigger).

        Computed from exact streaming moments maintained across inserts
        and removals, so the check performs **no page I/O**.
        """
        current = self._moments.first_component()
        return principal_angle(self._built_component, current)

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
        summaries = self._reconstruct_summaries()
        return VitriIndex.build(
            summaries,
            self._epsilon,
            reference=reference if reference is not None else self._transform.strategy,
            buffer_capacity=buffer_capacity,
        )

    def _all_positions(self) -> np.ndarray:
        positions = [
            record.position
            for record in (
                self._codec.decode(payload) for _, payload in self._heap.scan()
            )
            if record.video_id != TOMBSTONE_VIDEO_ID
        ]
        if not positions:
            # Every record tombstoned: a legal state for a reopened index.
            return np.zeros((0, self._dim))
        return np.stack(positions)

    def summaries(self) -> list[VideoSummary]:
        """Reconstruct every indexed video's summary from the heap
        (video-id ascending).  Full heap scan — intended for rebuilds,
        shard rebalancing and manifest reconciliation, not queries."""
        return self._reconstruct_summaries()

    def _reconstruct_summaries(self) -> list[VideoSummary]:
        by_video: dict[int, list[ViTri]] = defaultdict(list)
        for _, payload in self._heap.scan():
            record = self._codec.decode(payload)
            if record.video_id == TOMBSTONE_VIDEO_ID:
                continue
            by_video[record.video_id].append(
                ViTri(
                    position=record.position,
                    radius=record.radius,
                    count=record.count,
                )
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
        _check_query_args(query, k, method, self._dim)
        _check_impl(impl)
        if cold:
            self.clear_caches()
        return _run_query(
            query,
            method,
            k,
            out_counters=out_counters,
            btree=self._btree,
            codec=self._codec,
            transform=self._transform,
            epsilon=self._epsilon,
            video_frames=self._video_frames,
            impl=impl,
        )

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
        heap_pool: BufferPool,
        meta: dict,
        *,
        reference: ReferenceStrategy | str = "optimal",
    ) -> "VitriIndex":
        """Re-attach an index to already-open storage plus a meta dict.

        The inverse of :meth:`meta_dict` over pools the caller controls —
        this is how the crash-safe database reopens a recovered directory
        whose pagers share one write-ahead log.
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
        index._summaries_seen = len(index._video_frames)
        index._btree = BPlusTree.open(btree_pool)
        index._heap = HeapFile.open(heap_pool)
        index._moments = IncrementalMoments(index._dim)
        positions = index._all_positions()
        if positions.shape[0] > 0:
            index._moments.update(positions)
        return index

    def __repr__(self) -> str:
        return (
            f"VitriIndex(videos={self.num_videos}, vitris={self.num_vitris}, "
            f"dim={self._dim}, epsilon={self._epsilon})"
        )

    def __len__(self) -> int:
        return self.num_vitris
