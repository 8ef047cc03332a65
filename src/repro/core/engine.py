"""KNN serving over a read-only index snapshot, with two cache tiers.

The paper measures one query at a time; a deployment serves a *stream*
of queries.  :class:`QueryEngine` is that serving layer:

* **Snapshot semantics.**  The engine flushes the index's dirty pages at
  construction and from then on reads the B+-tree pager through its own
  :class:`~repro.storage.buffer_pool.BufferPool` view.  Index mutations
  made after the engine is built are not visible to it until
  :meth:`QueryEngine.refresh`.
* **One executor.**  Both query forms — top-``k`` and score threshold —
  go through :func:`repro.core.index._run_query`, the function
  :class:`~repro.core.index.VitriIndex` itself answers with, so each
  query threads its own :class:`~repro.utils.counters.CostCounters`
  bundle and its :class:`~repro.core.index.QueryStats` are exact under
  arbitrary interleaving.  Any number of threads may call the engine:
  the tree's read path keeps no per-call state and the pool is
  lock-guarded.
* **Result cache.**  A size-bounded LRU keyed on
  ``(snapshot token, query fingerprint, selection, method)`` memoises
  whole results.  The fingerprint hashes the query's *content*
  (dimension, frame count and every ViTri's position/radius/count), so
  equal queries hit regardless of object identity; the selection is the
  tagged ``k`` or ``min_similarity``, so the two forms never share an
  entry; the snapshot token is the index's
  :meth:`~repro.core.index.VitriIndex.content_token`, so a cache carried
  across :meth:`QueryEngine.refresh` can never return a ranking computed
  over different content.  A cache hit returns the memoised result,
  including its original stats.
* **Range-block tier.**  ``range_cache_size > 0`` adds a second tier
  below the result cache: a :class:`~repro.core.range_cache.RangeCache`
  of raw composed-range B+-tree blocks, scoped on the same content
  token.  Queries that miss the result cache (different selection,
  aged-out entry) still skip the tree for any range another query
  already pulled; the blocks are pre-decode, so logical cost signatures
  are unchanged.  :meth:`QueryEngine.hot_ranges` exports the tier's
  working set and :meth:`QueryEngine.warm` replays one — the
  replica-attach warming path.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict

from repro.btree.tree import BPlusTree
from repro.core.index import (
    KNNResult,
    VitriIndex,
    _check_query_args,
    _run_query,
    _select_at_least,
    _select_top,
)
from repro.core.range_cache import RangeCache
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
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


class QueryEngine:
    """Cached KNN / threshold serving over a :class:`VitriIndex` snapshot.

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
        Maximum number of composed-range blocks in the second cache
        tier; ``0`` (default) disables the tier.
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
        self._cache_size = cache_size
        self._cache: OrderedDict[
            tuple[str, str, tuple[str, float], str], KNNResult
        ] = OrderedDict()
        self._cache_lock = make_lock("QueryEngine._cache_lock")
        self.cache_hits = 0
        self.cache_misses = 0
        self._range_cache = (
            RangeCache(range_cache_size) if range_cache_size > 0 else None
        )
        self._take_snapshot()

    def _take_snapshot(self) -> None:
        """(Re-)snapshot the served index: push the index's dirty pages
        down so a fresh pool sees the committed tree (the pager itself
        is thread-safe), and stamp the snapshot's content token into the
        cache key space."""
        index = self._index
        index.flush_pages()
        self._codec = index.codec
        self._transform = index.transform
        self._epsilon = index.epsilon
        self._dim = index.dim
        self._video_frames = index.video_frames
        self._snapshot_token = index.content_token()
        # Fresh pool: a stale one could hold pre-refresh page images.
        self._pool = BufferPool(
            index.btree.buffer_pool.pager, capacity=self._buffer_capacity
        )
        self._tree = BPlusTree.open(self._pool)

    def refresh(self) -> None:
        """Re-snapshot after the underlying index was mutated.

        Memoised results stay in the cache but become unreachable (their
        keys carry the old snapshot token) and age out of the LRU — a
        query can never be answered from a stale snapshot's ranking.
        """
        self._take_snapshot()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Feature-space dimensionality of the served index."""
        return self._dim

    @property
    def snapshot_token(self) -> str:
        """Content token of the snapshot currently served (cache key part)."""
        return self._snapshot_token

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
        """Range-tier capacity in blocks (0 = tier disabled)."""
        return (
            self._range_cache.capacity if self._range_cache is not None else 0
        )

    @property
    def range_cache_len(self) -> int:
        """Number of range blocks currently cached."""
        return len(self._range_cache) if self._range_cache is not None else 0

    @property
    def range_cache_hits(self) -> int:
        """Range-tier hits since construction."""
        return self._range_cache.hits if self._range_cache is not None else 0

    @property
    def range_cache_misses(self) -> int:
        """Range-tier misses since construction."""
        return self._range_cache.misses if self._range_cache is not None else 0

    def hot_ranges(self) -> list[tuple[float, float]]:
        """Ranges cached under the current snapshot token, LRU first.

        A primary exports this as the warm set handed to a freshly
        attached replica; replaying it through :meth:`warm` on the other
        side reproduces the tier's state, because WAL-shipped copies
        share content tokens byte-for-byte.
        """
        if self._range_cache is None:
            return []
        return self._range_cache.hot_ranges(self._snapshot_token)

    def warm(self, ranges: list[tuple[float, float]]) -> int:
        """Pre-load composed ranges into the range tier; returns the count.

        The fetch runs under the current snapshot token; its I/O is
        charged to no query.  A no-op when the tier is disabled.
        """
        if self._range_cache is None or not ranges:
            return 0
        counters = CostCounters()
        self._range_cache.fetch(
            self._snapshot_token,
            [(float(low), float(high)) for low, high in ranges],
            lambda missing: self._tree.range_search_many(
                missing,
                payload_dtype=self._codec.record_dtype,
                counters=counters,
            ),
            counters,
        )
        return len(ranges)

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
        return self._serve(query, _select_top(k), method, cold, out_counters)

    def similarity_range(
        self,
        query: VideoSummary,
        min_similarity: float,
        *,
        method: str = "composed",
        cold: bool = False,
        out_counters: CostCounters | None = None,
    ) -> KNNResult:
        """Serve one threshold query: :meth:`knn`'s snapshot, caches and
        accounting, :meth:`VitriIndex.similarity_range`'s answer."""
        selection = _select_at_least(min_similarity)
        return self._serve(query, selection, method, cold, out_counters)

    def _serve(
        self,
        query: VideoSummary,
        selection: tuple[str, float],
        method: str,
        cold: bool,
        out_counters: CostCounters | None,
    ) -> KNNResult:
        _check_query_args(query, method, self._dim)
        key = (self._snapshot_token, query_fingerprint(query), selection, method)
        if self._cache_size > 0:
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    return cached
                self.cache_misses += 1

        if cold:
            self._pool.clear()
        result = _run_query(
            query,
            method,
            selection,
            out_counters=out_counters,
            btree=self._tree,
            codec=self._codec,
            transform=self._transform,
            epsilon=self._epsilon,
            video_frames=self._video_frames,
            # Cold mode promises physical reads equal to a solo cold
            # run, so it bypasses the range tier along with the pool.
            range_cache=None if cold else self._range_cache,
            cache_token=self._snapshot_token,
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
            f"QueryEngine(dim={self._dim}, "
            f"buffer_capacity={self._buffer_capacity}, "
            f"cache_size={self._cache_size}, "
            f"range_cache_size={self.range_cache_size})"
        )
