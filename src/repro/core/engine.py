"""KNN serving over a read-only index snapshot, with two cache tiers.

The paper measures one query at a time; a deployment serves a *stream*
of queries.  :class:`QueryEngine` is that serving layer:

* **Snapshot semantics.**  The engine flushes the index's dirty pages at
  construction and from then on reads the B+-tree pager through its own
  :class:`~repro.storage.buffer_pool.BufferPool` view.  Index mutations
  made after the engine is built are not visible to it until
  :meth:`QueryEngine.refresh`.
* **One executor.**  Every query goes through
  :func:`repro.core.index._run_query`, the function
  :class:`~repro.core.index.VitriIndex` itself answers with, so each
  query threads its own :class:`~repro.utils.counters.CostCounters`
  bundle and its :class:`~repro.core.index.QueryStats` are exact under
  arbitrary interleaving.  Any number of threads may call the engine:
  the tree's read path keeps no per-call state and the pool is
  lock-guarded.
* **Result cache.**  A size-bounded LRU keyed on
  ``(snapshot token, query fingerprint, k, method)`` memoises whole
  results.  The fingerprint hashes the query's *content* (dimension,
  frame count and every ViTri's position/radius/count), so equal
  queries hit regardless of object identity; the snapshot token is the
  index's :meth:`~repro.core.index.VitriIndex.content_token`, so a cache
  carried across :meth:`QueryEngine.refresh` can never return a ranking
  computed over different content.  A cache hit returns the memoised result,
  including its original stats.
* **Page tier.**  ``range_cache_size > 0`` gives the engine's pool a
  spill segment of that many pages
  (:meth:`~repro.storage.buffer_pool.BufferPool.with_spill`): leaves
  the ``buffer_capacity`` segment evicts wait there, and a pool miss
  looks there before it reads.  The two segments are one LRU of
  ``buffer_capacity + range_cache_size`` pages, so the tier holds each
  leaf once whichever composed ranges cover it, and its memory is
  bounded by its page count.  Tier hits are memory hits: rankings and
  logical cost signatures are unchanged, only ``page_reads`` drops.
  :meth:`QueryEngine.hot_pages` exports the pool's working set and
  :meth:`QueryEngine.warm` replays one — the replica-attach warming
  path.
* **One snapshot object.**  The served state (content token, tree,
  pool, codec, transform, epsilon, dimension, frame counts) is one
  immutable :class:`_Snapshot`, swapped by :meth:`QueryEngine.refresh`
  in a single assignment and read once per query, so a query that
  overlaps a refresh computes and caches entirely under one snapshot.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import NamedTuple

from repro.btree.tree import BPlusTree
from repro.core.index import (
    KNNResult,
    VitriIndex,
    _check_query_args,
    _run_query,
)
from repro.core.transform import OneDimensionalTransform
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
from repro.storage.serialization import ViTriRecordCodec
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["QueryEngine", "query_fingerprint"]

_FP_HEADER = struct.Struct("<IQI")
_FP_VITRI = struct.Struct("<dI")


def query_fingerprint(query: VideoSummary) -> str:
    """Content hash of a query summary (cache key component).

    Two summaries with the same dimension, frame count and ViTris (same
    positions, radii and counts, in order) fingerprint identically.
    """
    if not isinstance(query, VideoSummary):
        raise TypeError("query must be a VideoSummary")
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_FP_HEADER.pack(query.dim, query.num_frames, len(query.vitris)))
    for vitri in query.vitris:
        digest.update(vitri.position.tobytes())
        digest.update(_FP_VITRI.pack(vitri.radius, vitri.count))
    return digest.hexdigest()


class _Snapshot(NamedTuple):
    """Everything one query reads of the served index, taken together."""

    token: str
    tree: BPlusTree
    pool: BufferPool
    codec: ViTriRecordCodec
    transform: OneDimensionalTransform
    epsilon: float
    dim: int
    video_frames: dict[int, int]


class QueryEngine:
    """Cached KNN serving over a :class:`VitriIndex` snapshot.

    Parameters
    ----------
    index:
        A built index.  Its dirty pages are flushed at construction; the
        engine then treats the B+-tree pager as a read-only snapshot.
    buffer_capacity:
        LRU capacity of the engine's private buffer pool.
    cache_size:
        Maximum number of memoised results; ``0`` disables the cache.
    range_cache_size:
        Pages in the pool's spill segment, the second cache tier; ``0``
        (default) disables the tier.  The engine holds at most
        ``buffer_capacity + range_cache_size`` pages.
    """

    def __init__(
        self,
        index: VitriIndex,
        *,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        range_cache_size: int = 0,
    ) -> None:
        if not isinstance(index, VitriIndex):
            raise TypeError("index must be a VitriIndex")
        if not isinstance(buffer_capacity, int) or isinstance(buffer_capacity, bool):
            raise TypeError("buffer_capacity must be an int")
        if buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1, got {buffer_capacity}"
            )
        if not isinstance(cache_size, int) or isinstance(cache_size, bool):
            raise TypeError("cache_size must be an int")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if not isinstance(range_cache_size, int) or isinstance(
            range_cache_size, bool
        ):
            raise TypeError("range_cache_size must be an int")
        if range_cache_size < 0:
            raise ValueError(
                f"range_cache_size must be >= 0, got {range_cache_size}"
            )

        self._index = index
        self._buffer_capacity = buffer_capacity
        self._range_cache_size = range_cache_size
        self._cache_size = cache_size
        self._cache: OrderedDict[
            tuple[str, str, int, str], KNNResult
        ] = OrderedDict()
        self._cache_lock = make_lock("QueryEngine._cache_lock")
        self.cache_hits = 0
        self.cache_misses = 0
        # Tier lookups of the pools retired by refresh().
        self._retired_range_hits = 0
        self._retired_range_misses = 0
        self._snapshot = self._take_snapshot()

    def _take_snapshot(self) -> _Snapshot:
        """Snapshot the served index: push the index's dirty pages down
        so a fresh pool sees the committed tree (the pager itself is
        thread-safe), and stamp the snapshot's content token into the
        cache key space."""
        index = self._index
        index.flush_pages()
        # Fresh pool: a stale one could hold pre-refresh page images.
        pool = BufferPool.with_spill(
            index.btree.buffer_pool.pager,
            self._buffer_capacity,
            self._range_cache_size,
        )
        return _Snapshot(
            token=index.content_token(),
            tree=BPlusTree.open(pool),
            pool=pool,
            codec=index.codec,
            transform=index.transform,
            epsilon=index.epsilon,
            dim=index.dim,
            video_frames=index.video_frames,
        )

    def refresh(self) -> None:
        """Re-snapshot after the underlying index was mutated.

        Memoised results stay in the cache but become unreachable (their
        keys carry the old snapshot token) and age out of the LRU — a
        query can never be answered from a stale snapshot's ranking.
        Queries already running finish on the snapshot they started on.
        """
        snapshot = self._take_snapshot()
        retired = self._snapshot.pool
        self._snapshot = snapshot
        self._retired_range_hits += retired.spill_hits
        self._retired_range_misses += retired.spill_misses

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Feature-space dimensionality of the served index."""
        return self._snapshot.dim

    @property
    def snapshot_token(self) -> str:
        """Content token of the snapshot currently served (cache key part)."""
        return self._snapshot.token

    @property
    def cache_size(self) -> int:
        """Maximum number of memoised results (0 = caching disabled)."""
        return self._cache_size

    @property
    def cache_len(self) -> int:
        """Number of results currently memoised."""
        with self._cache_lock:
            return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every memoised result (hit/miss tallies are kept)."""
        with self._cache_lock:
            self._cache.clear()

    @property
    def range_cache_size(self) -> int:
        """Page-tier capacity in pages (0 = tier disabled)."""
        return self._range_cache_size

    @property
    def range_cache_hits(self) -> int:
        """Page-tier hits since construction: pool requests the
        ``buffer_capacity`` segment missed and the tier held."""
        return self._retired_range_hits + self._snapshot.pool.spill_hits

    @property
    def range_cache_misses(self) -> int:
        """Page-tier misses since construction: pool requests neither
        segment held (0 with the tier disabled)."""
        return self._retired_range_misses + self._snapshot.pool.spill_misses

    def hot_pages(self) -> list[int]:
        """Page ids the pool holds, least-recently-used first; empty when
        the page tier is disabled.

        A primary exports this as the warm set handed to a freshly
        attached replica; replaying it through :meth:`warm` on the other
        side reproduces the pool's state, because WAL-shipped copies are
        byte-identical, page ids included.
        """
        if self._range_cache_size == 0:
            return []
        return self._snapshot.pool.page_ids()

    def warm(self, page_ids: list[int]) -> int:
        """Read pages into the pool, in order; returns the count.

        The reads are charged to no query.  A no-op when the page tier
        is disabled.
        """
        if self._range_cache_size == 0 or not page_ids:
            return 0
        self._snapshot.pool.fetch_run(page_ids)
        return len(page_ids)

    # ------------------------------------------------------------------
    # Query paths
    # ------------------------------------------------------------------
    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        method: str = "composed",
        cold: bool = False,
        out_counters: CostCounters | None = None,
    ) -> KNNResult:
        """Serve one KNN query.

        Identical semantics to :meth:`VitriIndex.knn`, but over the
        engine's snapshot, with its result cache, and with ``cold``
        clearing only the engine's private pool.  ``out_counters``
        receives the query's event bundle (a cache hit contributes
        nothing: no work was done) — the shard router's aggregation seam.
        """
        snapshot = self._snapshot
        _check_query_args(query, k, method, snapshot.dim)
        key = (snapshot.token, query_fingerprint(query), k, method)
        if self._cache_size > 0:
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    return cached
                self.cache_misses += 1

        if cold:
            snapshot.pool.clear()
        result = _run_query(
            query,
            method,
            k,
            out_counters=out_counters,
            btree=snapshot.tree,
            codec=snapshot.codec,
            transform=snapshot.transform,
            epsilon=snapshot.epsilon,
            video_frames=snapshot.video_frames,
        )

        if self._cache_size > 0:
            with self._cache_lock:
                self._cache[key] = result
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return result

    def __repr__(self) -> str:
        return (
            f"QueryEngine(dim={self.dim}, "
            f"buffer_capacity={self._buffer_capacity}, "
            f"cache_size={self._cache_size}, "
            f"range_cache_size={self._range_cache_size})"
        )
