"""Concurrent batched KNN serving over a read-only index snapshot.

The paper measures one query at a time; a production deployment serves a
*stream* of queries.  :class:`QueryEngine` is that serving layer:

* **Snapshot semantics.**  The engine flushes the index's dirty pages at
  construction and from then on reads the B+-tree pager directly.  Index
  mutations made after the engine is built are not visible to it — build a
  fresh engine after inserting or removing videos.
* **Per-worker buffer pools.**  Every worker thread opens its own
  :class:`~repro.storage.buffer_pool.BufferPool` view over the shared
  (thread-safe) pager, so concurrent queries never evict each other's hot
  pages and per-worker hit rates are meaningful.
* **Per-query cost bundles.**  Each query threads its own
  :class:`~repro.utils.counters.CostCounters` through the tree traversal,
  exactly as :meth:`~repro.core.index.VitriIndex.knn` does, so the
  :class:`~repro.core.index.QueryStats` attached to every result is exact
  even under arbitrary interleaving.  Worker totals are aggregated with
  :meth:`CostCounters.add`, never read from global pool counters.
* **Result cache.**  A size-bounded LRU keyed on
  ``(snapshot token, query fingerprint, k, method)`` memoises whole
  results.  The fingerprint hashes the query's *content* (dimension,
  frame count and every ViTri's position/radius/count), so equal queries
  hit regardless of object identity; the snapshot token is the index's
  :meth:`~repro.core.index.VitriIndex.content_token`, so a cache carried
  across :meth:`QueryEngine.refresh` (or shared between shards) can never
  return a ranking computed over different content.  A cache hit returns
  the memoised result, including its original stats.
* **Range-block tier.**  ``range_cache_size > 0`` adds a second tier
  below the result cache: a :class:`~repro.core.range_cache.RangeCache`
  of raw composed-range B+-tree blocks, shared by every worker view and
  scoped on the same content token.  Queries that miss the result cache
  (different ``k``, aged-out entry) still skip the tree for any range
  another query already pulled; the blocks are pre-decode, so logical
  cost signatures are unchanged.  :meth:`QueryEngine.hot_ranges` exports
  the tier's working set and :meth:`QueryEngine.warm` replays one — the
  replica-attach warming path.

Throughput scaling comes from overlapping simulated disk waits: build the
index over a ``Pager(read_latency=...)`` and each physical read sleeps
*outside* the pager lock, so N workers overlap N reads — the paper's
disk-bound cost model, served concurrently.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.core.index import (
    KNNResult,
    QueryStats,
    VitriIndex,
    _check_impl,
    _check_query_args,
    _execute_query,
    _top_k,
)
from repro.core.range_cache import RangeCache
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
from repro.utils.counters import CostCounters, Timer
from repro.utils.locks import make_lock
from repro.utils.stats import percentile

__all__ = ["BatchResult", "QueryEngine", "ServingMetrics", "query_fingerprint"]

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


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate outcome of one :meth:`QueryEngine.knn_many` batch.

    Latency percentiles are computed over per-query wall times (cache
    hits included); I/O tuples hold one entry per worker, aggregated from
    that worker's per-query counter bundles.
    """

    queries: int
    workers: int
    wall_time: float
    qps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    worker_page_requests: tuple[int, ...]
    worker_physical_reads: tuple[int, ...]
    total_page_requests: int
    total_physical_reads: int

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "queries": self.queries,
            "workers": self.workers,
            "wall_time": self.wall_time,
            "qps": self.qps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_page_requests": list(self.worker_page_requests),
            "worker_physical_reads": list(self.worker_physical_reads),
            "total_page_requests": self.total_page_requests,
            "total_physical_reads": self.total_physical_reads,
        }


@dataclass(frozen=True)
class BatchResult:
    """Results of a batch, in query order, plus the batch's metrics."""

    results: tuple[KNNResult, ...]
    metrics: ServingMetrics

    def __len__(self) -> int:
        return len(self.results)


class _WorkerView:
    """One worker's private read path: own pool, own tree handle."""

    def __init__(self, engine: "QueryEngine") -> None:
        self.pool = BufferPool(engine._pager, capacity=engine._buffer_capacity)
        self.tree = BPlusTree.open(self.pool)
        self.counters = CostCounters()
        self.queries_served = 0


class QueryEngine:
    """Batched, thread-parallel KNN serving over a :class:`VitriIndex`.

    Parameters
    ----------
    index:
        A built index.  Its dirty pages are flushed at construction; the
        engine then treats the B+-tree pager as a read-only snapshot.
    buffer_capacity:
        LRU capacity of each worker's private buffer pool.
    cache_size:
        Maximum number of memoised results; ``0`` disables the cache.
    range_cache_size:
        Maximum number of composed-range blocks in the second cache
        tier; ``0`` (default) disables the tier.  Only the vectorized
        implementation consults it.
    """

    def __init__(
        self,
        index: VitriIndex,
        *,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        range_cache_size: int = 0,
        impl: str = "vectorized",
    ) -> None:
        if not isinstance(index, VitriIndex):
            raise TypeError("index must be a VitriIndex")
        _check_impl(impl)
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
        # Inner-loop implementation for every served query.  Rankings
        # are bit-identical across impls (the equivalence suite asserts
        # it), so impl is deliberately NOT part of the cache key.
        self._impl = impl
        self._cache: OrderedDict[
            tuple[str, str, int, str], KNNResult
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
        down so fresh pools see the committed tree (the pager itself is
        thread-safe), and stamp the snapshot's content token into the
        cache key space."""
        index = self._index
        index.flush_pages()
        self._pager = index.btree.buffer_pool.pager
        self._codec = index.codec
        self._transform = index.transform
        self._epsilon = index.epsilon
        self._dim = index.dim
        self._video_frames = index.video_frames
        self._snapshot_token = index.content_token()
        # Dedicated view for the single-query path (fresh pool: a stale
        # pool could hold pre-refresh page images).
        self._serial_view = _WorkerView(self)

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

        The fetch runs on the serial view (its counters absorb the I/O),
        under the current snapshot token.  A no-op when the tier is
        disabled.
        """
        if self._range_cache is None or not ranges:
            return 0
        view = self._serial_view
        counters = CostCounters()
        self._range_cache.fetch(
            self._snapshot_token,
            [(float(low), float(high)) for low, high in ranges],
            lambda missing: view.tree.range_search_many(
                missing,
                payload_dtype=self._codec.record_dtype,
                counters=counters,
            ),
            counters,
        )
        view.counters.add(counters)
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
        """Serve one KNN query on the engine's serial view.

        Identical semantics to :meth:`VitriIndex.knn`, but over the
        engine's snapshot, with its result cache, and with ``cold``
        clearing only this view's private pool.  ``out_counters``
        receives the query's event bundle (a cache hit contributes
        nothing: no work was done) — the shard router's aggregation seam.
        """
        _check_query_args(query, k, method, self._dim)
        result, _ = self._serve(
            self._serial_view, query, k, method, cold, out_counters
        )
        return result

    def knn_many(
        self,
        queries: list[VideoSummary],
        k: int,
        *,
        method: str = "composed",
        workers: int | None = None,
        cold: bool = False,
    ) -> BatchResult:
        """Serve a batch of queries across ``workers`` threads.

        Parameters
        ----------
        queries:
            The query summaries; results come back in the same order.
        k:
            Number of results per query.
        method:
            ``"composed"`` or ``"naive"`` (see :meth:`VitriIndex.knn`).
        workers:
            Worker-thread count (default 1).  Each worker owns a private
            buffer pool; queries are pulled from a shared cursor.
        cold:
            Clear the serving worker's pool before *each* query, making
            every query's ``physical_reads`` equal to its solo cold run —
            the mode the exactness tests and acceptance criteria use.
        """
        if workers is None:
            workers = 1
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise TypeError("workers must be an int")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        queries = list(queries)
        for query in queries:
            _check_query_args(query, k, method, self._dim)

        views = [_WorkerView(self) for _ in range(workers)]
        results: list[KNNResult | None] = [None] * len(queries)
        latencies: list[float] = [0.0] * len(queries)
        cache_hits = [0] * workers
        cursor_lock = threading.Lock()
        cursor = [0]
        errors: list[BaseException] = []

        def run(worker_index: int) -> None:
            view = views[worker_index]
            try:
                while True:
                    with cursor_lock:
                        position = cursor[0]
                        if position >= len(queries):
                            return
                        cursor[0] += 1
                    result, hit = self._serve(
                        view, queries[position], k, method, cold
                    )
                    results[position] = result
                    latencies[position] = result.stats.wall_time
                    if hit:
                        cache_hits[worker_index] += 1
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)

        with Timer() as batch_timer:
            if workers == 1:
                run(0)
            else:
                threads = [
                    threading.Thread(
                        target=run, args=(i,), name=f"knn-worker-{i}"
                    )
                    for i in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        if errors:
            raise errors[0]

        hits = sum(cache_hits)
        misses = len(queries) - hits
        ordered = sorted(latencies)
        wall = batch_timer.elapsed
        metrics = ServingMetrics(
            queries=len(queries),
            workers=workers,
            wall_time=wall,
            qps=len(queries) / wall if wall > 0.0 else 0.0,
            latency_p50=percentile(ordered, 0.50, default=0.0),
            latency_p95=percentile(ordered, 0.95, default=0.0),
            latency_p99=percentile(ordered, 0.99, default=0.0),
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / len(queries) if queries else 0.0,
            worker_page_requests=tuple(
                view.counters.page_requests for view in views
            ),
            worker_physical_reads=tuple(
                view.counters.page_reads for view in views
            ),
            total_page_requests=sum(
                view.counters.page_requests for view in views
            ),
            total_physical_reads=sum(
                view.counters.page_reads for view in views
            ),
        )
        return BatchResult(results=tuple(results), metrics=metrics)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(
        self,
        view: _WorkerView,
        query: VideoSummary,
        k: int,
        method: str,
        cold: bool,
        out_counters: CostCounters | None = None,
    ) -> tuple[KNNResult, bool]:
        """Serve one query on a worker view; returns (result, cache_hit)."""
        key = (self._snapshot_token, query_fingerprint(query), k, method)
        if self._cache_size > 0:
            with self._cache_lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    view.queries_served += 1
                    return cached, True
                self.cache_misses += 1

        if cold:
            view.pool.clear()
        # Cold mode promises physical reads equal to a solo cold run, so
        # it bypasses the range tier along with the pool.
        range_cache = None if cold else self._range_cache
        counters = CostCounters()
        with Timer() as timer:
            video_ids, scores, candidates, ranges = _execute_query(
                query,
                method,
                btree=view.tree,
                codec=self._codec,
                transform=self._transform,
                epsilon=self._epsilon,
                video_frames=self._video_frames,
                counters=counters,
                impl=self._impl,
                range_cache=range_cache,
                cache_token=self._snapshot_token,
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
        result = KNNResult(videos=videos, scores=kept_scores, stats=stats)
        view.counters.add(counters)
        if out_counters is not None:
            out_counters.add(counters)
        view.queries_served += 1

        if self._cache_size > 0:
            with self._cache_lock:
                self._cache[key] = result
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return result, False

    def __repr__(self) -> str:
        return (
            f"QueryEngine(dim={self._dim}, "
            f"buffer_capacity={self._buffer_capacity}, "
            f"cache_size={self._cache_size}, "
            f"range_cache_size={self.range_cache_size})"
        )
