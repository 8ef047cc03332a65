"""One shard of a sharded ViTri database.

A :class:`Shard` owns a :class:`~repro.core.database.VideoDatabase`
(durable directory or in-memory) plus the :class:`~repro.core.engine.QueryEngine`
that serves it.  The engine is maintained lazily: before every query the
shard compares the engine's snapshot token against the index's current
:meth:`~repro.core.index.VitriIndex.content_token` and refreshes only
when the shard's content actually changed, so read-heavy fleets pay no
per-query snapshot cost while writes can never be served stale.

Every sub-query first proves or refutes that it can match anything here,
from two pieces of routing metadata:

* :meth:`key_bounds` — the ``[min, max]`` key interval the shard's
  B+-tree currently covers (cached per content token);
* :meth:`composed_ranges` — a query's composed search ranges *in this
  shard's key space* (each shard fits its own reference point, so the
  same query maps to different key ranges on different shards).

A query whose composed ranges miss the shard's key bounds cannot match
any of its ViTris (the key filter is lossless), so :meth:`Shard.knn`
answers it with an empty ``pruned`` result without touching the engine
or its caches.  The proof rides in
the same request as the query, so pruning costs the router no round-trip.
"""

from __future__ import annotations

import os

from repro.core.composition import query_key_ranges
from repro.core.database import VideoDatabase
from repro.core.engine import QueryEngine
from repro.core.index import KNNResult, QueryStats, VitriIndex
from repro.core.vitri import VideoSummary
from repro.shard.resilience import ShardTimeout
from repro.utils.clock import Deadline
from repro.utils.counters import CostCounters

__all__ = ["Shard"]

# What a sub-query the key bounds rule out returns (frozen, so shared).
_PRUNED = KNNResult(
    videos=(), scores=(), stats=QueryStats(0, 0, 0, 0, 0, 0, 0.0), pruned=True
)


class Shard:
    """A :class:`VideoDatabase` plus its serving engine, as one fleet member
    (the reference :class:`~repro.shard.contract.WritableShard`).

    Parameters
    ----------
    shard_id:
        This shard's index in the fleet's shard list (its position in the
        partitioner's output space).
    epsilon, reference, summarize_seed, buffer_capacity, fault_injector:
        Forwarded to :class:`VideoDatabase`; the router passes the same
        values to every shard so summaries are interchangeable.
    path:
        Shard directory (durable fleet) or ``None`` (in-memory fleet).
    cache_size:
        Result-cache capacity of the shard's query engine.
    range_cache_size:
        Pages in the engine pool's spill segment, its second cache tier
        (``0`` disables it; see :class:`~repro.core.engine.QueryEngine`).
    """

    def __init__(
        self,
        shard_id: int,
        *,
        epsilon: float,
        reference: str = "optimal",
        summarize_seed: int = 0,
        path: str | os.PathLike | None = None,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        range_cache_size: int = 0,
        fault_injector=None,
    ) -> None:
        self._shard_id = shard_id
        self._db = VideoDatabase(
            epsilon,
            reference=reference,
            summarize_seed=summarize_seed,
            path=path,
            buffer_capacity=buffer_capacity,
            fault_injector=fault_injector,
        )
        self._buffer_capacity = buffer_capacity
        self._cache_size = cache_size
        self._range_cache_size = range_cache_size
        self._engine: QueryEngine | None = None
        self._engine_index: VitriIndex | None = None
        self._bounds_token: str | None = None
        self._bounds: tuple[float, float] | None = None
        self.queries_served = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        """Position of this shard in the fleet's shard list."""
        return self._shard_id

    @property
    def database(self) -> VideoDatabase:
        """The underlying database (exposed for tests and tooling)."""
        return self._db

    @property
    def path(self) -> str | None:
        """Backing directory; ``None`` for an in-memory shard."""
        return self._db.path

    @property
    def epsilon(self) -> float:
        """Frame similarity threshold (identical across the fleet)."""
        return self._db.epsilon

    def __len__(self) -> int:
        return len(self._db)

    def video_ids(self) -> set[int]:
        """Ids of the videos this shard owns."""
        return self._db.video_ids()

    def summaries(self) -> list[VideoSummary]:
        """Summaries of the videos this shard owns (heap scan)."""
        return self._db.summaries()

    def content_token(self) -> str | None:
        """The index's :meth:`~repro.core.index.VitriIndex.content_token`;
        ``None`` while the index is unbuilt (the first query builds it,
        and nothing computed before that can match what it serves)."""
        index = self._db.index
        return index.content_token() if index is not None else None

    def status(self) -> dict:
        """The contract's status report; a plain shard has no replicas."""
        return {
            "shard_id": self._shard_id,
            "videos": len(self._db),
            "queries_served": self.queries_served,
            "replication": None,
        }

    # ------------------------------------------------------------------
    # Mutation (delegated; the router decides placement)
    # ------------------------------------------------------------------
    def add_summary(self, summary: VideoSummary) -> int:
        """Store one routed summary."""
        return self._db.add_summary(summary)

    def remove(self, video_id: int) -> None:
        """Remove one of this shard's videos."""
        self._db.remove(video_id)

    def adopt_database(self, database: VideoDatabase) -> None:
        """Swap in a freshly reopened database (online-rebuild cutover).

        Drops the serving engine and every cached routing artefact: the
        new generation carries a new content token, so the next query
        rebuilds the engine (and with it the L1 result cache, L2 range
        cache and key-bounds cache) against the new epoch — the
        cache-invalidation half of the atomic cutover.
        """
        if not isinstance(database, VideoDatabase):
            raise TypeError("database must be a VideoDatabase")
        self._db = database
        self._engine = None
        self._engine_index = None
        self._bounds_token = None
        self._bounds = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def engine(self) -> QueryEngine:
        """The shard's serving engine over its *current* content.

        Builds the index on first use; re-snapshots the engine only when
        the index's content token moved (insert/remove since the last
        query).  Raises on an empty shard — the router never scatters to
        one.
        """
        if self._db.index is None:
            self._db.build()
        index = self._db.index
        if self._engine is None or self._engine_index is not index:
            self._engine = QueryEngine(
                index,
                buffer_capacity=self._buffer_capacity,
                cache_size=self._cache_size,
                range_cache_size=self._range_cache_size,
            )
            self._engine_index = index
        elif self._engine.snapshot_token != index.content_token():
            self._engine.refresh()
        return self._engine

    def _check_deadline(self, deadline: Deadline | None) -> None:
        """Refuse to start work whose budget is already spent.

        The budget-aware half of the deadline contract: the attempt loop
        (and, over the wire, the shard server) passes the sub-query's
        shared :class:`~repro.utils.clock.Deadline`, and an expired one
        raises :class:`ShardTimeout` *before* any page is read — the
        shard never computes an answer nobody is waiting for.
        """
        if deadline is not None and deadline.expired():
            raise ShardTimeout(
                f"shard {self._shard_id} budget spent "
                f"{-deadline.remaining():.6f}s ago; refusing to start"
            )

    def _ruled_out(
        self, query: VideoSummary, out_counters: CostCounters | None
    ) -> bool:
        """Whether the key bounds prove the query matches nothing here.

        The bounds are cached per content token, like the engine's
        snapshot.  Reading them is charged to ``out_counters`` only when
        the proof prunes, because it is then the sub-query's whole cost.
        Before a search, the one-off read is upkeep of that cache (as
        the index build and the snapshot refresh are) and stays out of
        the bundle: it goes through the copy's own buffer pool, whose
        warmth differs between byte-identical copies that must report
        identical costs.
        """
        proof = CostCounters()
        if self.may_contain(query, counters=proof):
            return False
        if out_counters is not None:
            out_counters.add(proof)
        return True

    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        out_counters: CostCounters | None = None,
        deadline: Deadline | None = None,
        attempt: int = 0,
    ) -> KNNResult:
        """This shard's local top-``k`` for the query (engine-served);
        a single copy has nowhere else to send a retry, so the
        contract's ``attempt`` is accepted and unused.

        A query :meth:`may_contain` rules out returns an empty ``pruned``
        result and leaves the engine's caches, their hit/miss tallies
        and ``queries_served`` untouched.  The engine's result cache is
        looked in before that proof runs: an entry under the current
        snapshot's token exists only because the proof passed under that
        token, so a hit's answer, ``pruned`` flag and (empty) cost bundle
        are the ones the proof-first order gives.
        """
        self._check_deadline(deadline)
        result = self.engine().cached(query, k) if len(self._db) else None
        if result is None:
            if self._ruled_out(query, out_counters):
                return _PRUNED
            result = self.engine().knn(query, k, out_counters=out_counters)
        self.queries_served += 1
        return result

    # ------------------------------------------------------------------
    # Routing metadata (what every sub-query prunes with)
    # ------------------------------------------------------------------
    def key_bounds(
        self, *, counters: CostCounters | None = None
    ) -> tuple[float, float] | None:
        """``(min_key, max_key)`` of this shard's B+-tree, or ``None``
        when the shard holds no ViTris.

        Cached per content token: computing the bounds costs a handful of
        page reads (charged to ``counters``), repeat queries against
        unchanged content get them for free.
        """
        if self._db.index is None:
            if len(self._db) == 0:
                return None
            self._db.build()
        index = self._db.index
        token = index.content_token()
        if token != self._bounds_token:
            self._bounds = index.btree.key_bounds(counters=counters)
            self._bounds_token = token
        return self._bounds

    def composed_ranges(
        self, query: VideoSummary
    ) -> list[tuple[float, float]]:
        """The query's composed search ranges in *this shard's* key space
        (:func:`~repro.core.composition.query_key_ranges`, the derivation
        the index itself searches with)."""
        if self._db.index is None:
            self._db.build()
        _, composed = query_key_ranges(
            query, self._db.index.transform, self._db.epsilon
        )
        return composed

    def may_contain(
        self, query: VideoSummary, *, counters: CostCounters | None = None
    ) -> bool:
        """Whether any of the query's ranges overlaps this shard's keys.

        ``False`` is a *proof* of zero-similarity (the key filter is
        lossless), so a sub-query can skip the search without changing
        any ranking.
        """
        bounds = self.key_bounds(counters=counters)
        if bounds is None:
            return False
        low, high = bounds
        return any(
            range_high >= low and range_low <= high
            for range_low, range_high in self.composed_ranges(query)
        )

    # ------------------------------------------------------------------
    # Durability (delegated)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Atomically commit this shard's changes (durable shards)."""
        self._db.checkpoint()

    def close(self) -> None:
        """Checkpoint (if durable and not crashed) and release files."""
        self._db.close()

    def crash(self) -> None:
        """Testing seam: drop file handles without checkpointing."""
        self._db.crash()

    def __repr__(self) -> str:
        return (
            f"Shard(id={self._shard_id}, videos={len(self)}, "
            f"path={self.path!r})"
        )
