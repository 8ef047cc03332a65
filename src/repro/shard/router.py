"""Scatter-gather query routing over a fleet of ViTri shards.

:class:`ShardedVideoDatabase` presents the :class:`~repro.core.database.VideoDatabase`
surface over many shards.  Placement, fan-out and aggregation all live
here; the shards themselves are ordinary single-node databases.

Exactness
---------
Every video lives *entirely* on one shard (the partitioner routes whole
summaries), so a video's similarity score is computed shard-locally and
is identical to what an unsharded index would compute — scores depend
only on the query and the video's own ViTris, never on the shard's
transform.  A global top-``k`` therefore is an exact merge of per-shard
top-``k`` lists: any video in the global top-``k`` is necessarily in its
own shard's top-``k``.  The merge reuses the index's ranking rule
(score-descending, video-id tie-break), so a sharded and an unsharded
database return *identical* rankings for the same content.

Pruning
-------
The router sends exactly one sub-query to every populated shard, and
each shard proves inside that sub-query whether the query's composed key
ranges (in its own key space) overlap its B+-tree key bounds
(:meth:`~repro.shard.shard.Shard.knn`).  The key filter is lossless, so
a miss proves the shard contributes zero-similarity videos only: it
answers an empty result marked ``pruned``, which the router counts as
pruned rather than queried.  The proof travels in the query's own
request, so over the wire pruning costs no extra round-trip.  A shard
that cannot be reached never proved anything, so it counts as failed,
never as pruned.  Under a
:class:`~repro.shard.partitioner.KeyRangePartitioner` nearby videos
share shards, so selective queries typically search one or two shards.

Scatter
-------
The legs of one query run in parallel: the calling thread runs the first
leg itself and hands the rest to a thread pool the router owns for its
whole life.  The pool never has fewer workers than shards - 1, so no leg
waits for another; :meth:`ShardedVideoDatabase.rebalance`, the one
operation that adds a shard, swaps in a larger pool.  Each leg runs in
its own copy of the caller's :mod:`contextvars` context, so per-leg
state (a :class:`~repro.utils.clock.VirtualClock`'s sleeps) starts from
the caller's and never leaks into a later leg that reuses the worker.

Cost accounting
---------------
Each scattered sub-query folds its events — a pruned shard's proof I/O
included — into a per-shard :class:`~repro.utils.counters.CostCounters`
bundle (the ``out_counters`` seam); the router sums the bundles into one
bundle and builds the global :class:`~repro.core.index.QueryStats` from
that bundle alone, never by re-aggregating per-shard ``QueryStats``
objects (enforced by the ``counter-discipline`` lint rule).  Wall time
is the router's own scatter-to-merge span, so overlap across shards is
visible as ``wall_time`` < sum of per-shard times.

Fault tolerance
---------------
By default the scatter is strict: any worker failure aborts the query
with a :class:`~repro.shard.resilience.ScatterError` aggregating *every*
shard's error.  Passing ``fault_policy=``/``fail_fast=False`` to the
query methods switches to the resilient path: each shard's sub-query
runs under :func:`~repro.shard.resilience.run_attempts` (deadline,
deterministic retries, per-shard circuit breaker) and
a degraded query returns whatever the surviving shards answered plus a
:class:`~repro.shard.resilience.Coverage` report saying exactly which
shards are missing and whether the merged top-k is provably complete.
Per-shard health lives in the router's
:class:`~repro.shard.resilience.FleetHealth` registry and is persisted
to ``health.json`` beside the manifest (advisory state: written with a
plain atomic replace, never routed through the fault injector, so
crash-point sweeps see identical op counts with or without it).

Durability
----------
A durable fleet is a directory of shard directories plus a
``shards.json`` manifest (partitioner, shard list, id counter).
:meth:`ShardedVideoDatabase.checkpoint` checkpoints every shard through
its own write-ahead log — each one individually atomic — then replaces
the manifest atomically.  Reopening reconciles the fleet: each shard
recovers to its own last checkpoint, the id counter is the max of the
manifest's and every shard's content, and any video found on two shards
(a crash between the two shard checkpoints of a rebalance) is kept only
on the shard the partitioner routes it to.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- the router lock is
# deliberately coarse: it serialises fleet-topology mutations
# (rebalance, checkpoint, close) against whole queries, so scatters,
# shard sub-queries and manifest writes all run under it by design.
# Per-shard parallelism is preserved: no scatter leg takes this lock (the
# legs on pool workers never hold it; the one on the calling thread runs
# under the caller's hold).

import contextvars
import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core.database import publish_file
from repro.core.index import QueryStats, _rank
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary
from repro.shard.contract import ShardLike
from repro.shard.faults import FaultInjectingShard, ShardFaultInjector
from repro.shard.partitioner import (
    KeyRangePartitioner,
    Partitioner,
    make_partitioner,
    partitioner_from_dict,
)
from repro.shard.resilience import (
    ANSWERED,
    FAILED,
    TIMED_OUT,
    TRIPPED,
    AttemptOutcome,
    BreakerPolicy,
    CircuitBreaker,
    Coverage,
    FaultPolicy,
    FleetHealth,
    HealthStats,
    ScatterError,
    run_attempts,
)
from repro.shard.shard import Shard
from repro.utils.clock import Clock, Deadline, SystemClock
from repro.utils.counters import CostCounters, Timer
from repro.utils.locks import make_lock
from repro.utils.validation import check_matrix, check_positive, check_positive_int

__all__ = ["ScatterStats", "ShardedKNNResult", "ShardedVideoDatabase"]

_MANIFEST_FILE = "shards.json"
_MANIFEST_FORMAT = 1
_HEALTH_FILE = "health.json"


def _scatter_pool(num_shards: int) -> ThreadPoolExecutor:
    """A scatter pool for a fleet of ``num_shards``: the calling thread
    runs one leg, so ``num_shards - 1`` workers start every other leg at
    once.  Workers spawn on first use, so an idle router costs none."""
    return ThreadPoolExecutor(
        max_workers=max(1, num_shards - 1), thread_name_prefix="shard-query"
    )


@dataclass(frozen=True)
class ScatterStats:
    """How one query's fan-out went.

    Attributes
    ----------
    shards_total:
        Fleet size at query time.
    shards_queried:
        Ids of the populated shards whose sub-query searched (or failed
        to answer).
    shards_pruned:
        Ids of the populated shards whose sub-query answered with a
        key-bounds proof of zero similarity.
    """

    shards_total: int
    shards_queried: tuple[int, ...]
    shards_pruned: tuple[int, ...]


@dataclass(frozen=True)
class ShardedKNNResult:
    """A sharded query's outcome: ranked videos, global cost, fan-out.

    ``coverage`` reports which shards contributed (see
    :class:`~repro.shard.resilience.Coverage`); on the strict path every
    queried shard answered, so ``coverage.complete`` is always true
    there — degraded queries are where it earns its keep.
    """

    videos: tuple[int, ...]
    scores: tuple[float, ...]
    stats: QueryStats
    scatter: ScatterStats
    coverage: Coverage | None = None

    def __len__(self) -> int:
        return len(self.videos)


class ShardedVideoDatabase:
    """A :class:`~repro.core.database.VideoDatabase` sharded behind a router.

    Parameters
    ----------
    epsilon:
        Frame similarity threshold (shared by every shard).
    partitioner:
        A :class:`~repro.shard.partitioner.Partitioner` instance, or a
        kind name (``"hash"`` / ``"key_range"``) resolved through
        :func:`~repro.shard.partitioner.make_partitioner` with
        ``num_shards``.
    num_shards:
        Fleet size; required when ``partitioner`` is a kind name, must
        match (or be omitted) when it is an instance.
    path:
        Fleet directory (one sub-directory per shard plus the
        ``shards.json`` manifest).  When it already holds a manifest the
        stored configuration wins over the constructor arguments and
        every shard reopens at its last checkpoint.  ``None`` for an
        in-memory fleet.
    buffer_capacity, cache_size:
        Forwarded to every shard.  New fleets summarise with the
        ``"optimal"`` reference strategy and seed 0 fleet-wide, so
        summaries are interchangeable and a sharded database stores
        bit-identical summaries to an unsharded one; ``shards.json``
        records both, and a reopened fleet uses what it records.
    fault_injector:
        One :class:`~repro.storage.faults.FaultInjector` shared by every
        shard *and* the manifest write, so a crash-point sweep covers the
        whole fleet checkpoint; testing only.
    clock:
        The :class:`~repro.utils.clock.Clock` driving latencies, retry
        backoffs and breaker cooldowns; defaults to the real
        :class:`~repro.utils.clock.SystemClock`.  Tests pass a
        :class:`~repro.utils.clock.VirtualClock` so fault behaviour is
        deterministic.
    """

    def __init__(
        self,
        epsilon: float = 0.3,
        *,
        partitioner: Partitioner | str = "hash",
        num_shards: int | None = None,
        path: str | os.PathLike | None = None,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        fault_injector=None,
        clock: Clock | None = None,
    ) -> None:
        # Guards every mutable routing structure (_shards, _membership,
        # _partitioner, _next_video_id, _created_shards, _closed,
        # _pool).  Held for the full duration of every public operation:
        # queries and topology changes are mutually exclusive, which is
        # what makes rebalance()/checkpoint() safe to call under live
        # traffic.
        self._lock = make_lock("ShardedVideoDatabase._lock")
        self._epsilon = check_positive(epsilon, "epsilon")
        self._reference = "optimal"
        self._seed = 0
        self._buffer_capacity = buffer_capacity
        self._cache_size = cache_size
        self._faults = fault_injector
        self._clock = clock if clock is not None else SystemClock()
        self._health = FleetHealth(self._clock)
        self._path = os.fspath(path) if path is not None else None
        self._closed = False
        self._writable = True
        self._next_video_id = 0
        self._created_shards = 0
        self._shards: list[Shard] = []
        self._membership: dict[int, int] = {}
        # Maintenance window (concurrent rebalance / online rebuild):
        # while set, writes targeting that shard are deferred instead of
        # applied, so the copy phase can run outside the router lock
        # against a frozen source.  Flushed when the window closes.
        self._maintenance_shard: int | None = None
        self._deferred_adds: list[VideoSummary] = []
        self._deferred_removes: list[int] = []

        manifest_path = (
            os.path.join(self._path, _MANIFEST_FILE)
            if self._path is not None
            else None
        )
        if manifest_path is not None and os.path.exists(manifest_path):
            self._reopen(manifest_path)
            self._pool = _scatter_pool(len(self._shards))
            return

        if isinstance(partitioner, str):
            self._partitioner = make_partitioner(partitioner, num_shards)
        elif isinstance(partitioner, Partitioner):
            if (
                num_shards is not None
                and num_shards != partitioner.num_shards
            ):
                raise ValueError(
                    f"num_shards={num_shards} conflicts with the "
                    f"partitioner's {partitioner.num_shards} shards"
                )
            self._partitioner = partitioner
        else:
            raise TypeError(
                "partitioner must be a Partitioner or a kind name"
            )
        if self._path is not None:
            os.makedirs(self._path, exist_ok=True)
        for _ in range(self._partitioner.num_shards):
            self._shards.append(self._new_shard())
        self._pool = _scatter_pool(len(self._shards))

    @classmethod
    def from_shards(
        cls,
        shards: list[ShardLike],
        *,
        epsilon: float,
        clock: Clock | None = None,
    ) -> "ShardedVideoDatabase":
        """A read-only router over pre-built shards (typically remote).

        The service layer's seam: hand this any
        :class:`~repro.shard.contract.ShardLike` implementers (remote
        proxies, replica groups, plain shards) and the scatter machinery —
        pruning, per-shard counter bundles, resilient attempts, exact
        merge — runs over them.  Membership is discovered from each
        shard's own content; every mutating or durability operation
        raises, because the shards' files belong to whichever process
        serves them.
        """
        if not shards:
            raise ValueError("from_shards needs at least one shard")
        self = cls.__new__(cls)
        self._lock = make_lock("ShardedVideoDatabase._lock")
        # Immutable configuration mirrors __init__'s unguarded writes: a
        # field assigned under a lock anywhere counts as lock-guarded
        # everywhere (VIL008), and these are read lock-free by design.
        self._epsilon = check_positive(epsilon, "epsilon")
        self._reference = "optimal"
        self._seed = 0
        self._buffer_capacity = 0
        self._cache_size = 0
        self._faults = None
        self._clock = clock if clock is not None else SystemClock()
        self._health = FleetHealth(self._clock)
        self._path = None
        with self._lock:
            self._closed = False
            self._writable = False
            self._created_shards = len(shards)
            self._shards = list(shards)
            self._membership = {}
            self._next_video_id = 0
            self._maintenance_shard = None
            self._deferred_adds = []
            self._deferred_removes = []
            for shard in self._shards:
                for video_id in shard.video_ids():
                    self._membership[video_id] = shard.shard_id
                    self._next_video_id = max(
                        self._next_video_id, video_id + 1
                    )
            # Placement is owned by whoever built the shards; this
            # partitioner exists only so introspection keeps working.
            self._partitioner = make_partitioner("hash", len(shards))
            self._pool = _scatter_pool(len(shards))
        return self

    def _new_shard(self) -> Shard:
        """Construct the next shard (fresh directory for durable fleets)."""
        shard_dir = None
        if self._path is not None:
            shard_dir = os.path.join(
                self._path, f"shard-{self._created_shards:04d}"
            )
        shard = Shard(
            len(self._shards),
            epsilon=self._epsilon,
            reference=self._reference,
            summarize_seed=self._seed,
            path=shard_dir,
            buffer_capacity=self._buffer_capacity,
            cache_size=self._cache_size,
            fault_injector=self._faults,
        )
        self._created_shards += 1
        return shard

    # ------------------------------------------------------------------
    # Reopening / reconciliation
    # ------------------------------------------------------------------
    def _reopen(self, manifest_path: str) -> None:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(
                f"{manifest_path} has unsupported format "
                f"{manifest.get('format')!r}"
            )
        self._epsilon = float(manifest["epsilon"])
        self._reference = str(manifest["reference"])
        self._seed = int(manifest["summarize_seed"])
        self._next_video_id = int(manifest["next_video_id"])
        self._created_shards = int(manifest["created_shards"])
        self._partitioner = partitioner_from_dict(manifest["partitioner"])
        shard_dirs = list(manifest["shards"])
        if len(shard_dirs) != self._partitioner.num_shards:
            raise ValueError(
                f"manifest lists {len(shard_dirs)} shards but the "
                f"partitioner routes across {self._partitioner.num_shards}"
            )
        for position, name in enumerate(shard_dirs):
            self._shards.append(
                Shard(
                    position,
                    epsilon=self._epsilon,
                    reference=self._reference,
                    summarize_seed=self._seed,
                    path=os.path.join(self._path, name),
                    buffer_capacity=self._buffer_capacity,
                    cache_size=self._cache_size,
                    fault_injector=self._faults,
                )
            )
        self._reconcile()
        self._restore_health()

    def _reconcile(self) -> None:
        """Rebuild membership from actual shard content, resolving any
        cross-shard duplicates a mid-rebalance crash left behind.

        Each shard individually recovered to its last checkpoint; the
        only cross-shard inconsistency possible is a video present on
        two shards (moved and committed on the destination before the
        crash, but still committed on the source).  The partitioner is
        the tie-breaker: the copy on the shard it routes to survives,
        every other copy is removed.  A video sitting on a shard the
        partitioner would *not* choose (manifest committed before the
        move did) is left in place — placement is a performance matter,
        scatter-gather correctness never depends on it.
        """
        owners: dict[int, list[int]] = {}
        for shard in self._shards:
            for video_id in shard.video_ids():
                owners.setdefault(video_id, []).append(shard.shard_id)
        for video_id, places in owners.items():
            keep = places[0]
            if len(places) > 1:
                summary = next(
                    s
                    for s in self._shards[places[0]].summaries()
                    if s.video_id == video_id
                )
                routed = self._partitioner.shard_for(summary)
                keep = routed if routed in places else places[0]
                for place in places:
                    if place != keep:
                        self._shards[place].remove(video_id)
            self._membership[video_id] = keep
            self._next_video_id = max(self._next_video_id, video_id + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Frame similarity threshold (fleet-wide)."""
        return self._epsilon

    @property
    def num_shards(self) -> int:
        """Current fleet size."""
        with self._lock:
            return len(self._shards)

    @property
    def partitioner(self) -> Partitioner:
        """The placement strategy currently in force."""
        with self._lock:
            return self._partitioner

    @property
    def shards(self) -> tuple[ShardLike, ...]:
        """The fleet (exposed for tests, benchmarks and tooling)."""
        with self._lock:
            return tuple(self._shards)

    @property
    def path(self) -> str | None:
        """Fleet directory; ``None`` for an in-memory fleet."""
        return self._path

    def __len__(self) -> int:
        with self._lock:
            return sum(len(shard) for shard in self._shards)

    def video_ids(self) -> set[int]:
        """Ids of every stored video across the fleet."""
        with self._lock:
            return set(self._membership)

    def shard_of(self, video_id: int) -> int:
        """Which shard holds a video (raises if unknown)."""
        with self._lock:
            if video_id not in self._membership:
                raise ValueError(
                    f"video id {video_id} is not in the database"
                )
            return self._membership[video_id]

    @property
    def health(self) -> FleetHealth:
        """The live per-shard health + breaker registry."""
        return self._health

    def fleet_health(self) -> dict[int, dict]:
        """Per-shard health report covering *every* shard in the fleet.

        Shards that never saw a resilient query report zeroed counters
        and a closed breaker, so the report's shape is stable regardless
        of traffic.
        """
        with self._lock:
            report = self._health.snapshot()
            for shard in self._shards:
                if shard.shard_id not in report:
                    entry = HealthStats(shard.shard_id).to_dict()
                    entry["breaker_state"] = CircuitBreaker.CLOSED
                    entry["breaker_opens"] = 0
                    report[shard.shard_id] = entry
            return {
                shard_id: report[shard_id] for shard_id in sorted(report)
            }

    def inject_shard_faults(self, injector: ShardFaultInjector) -> None:
        """Wrap every current shard in a :class:`FaultInjectingShard`.

        Testing seam: the injector's schedule fires on serving operations
        (every knn attempt, retries included);
        routing metadata stays fault-free.  Shards created later
        (rebalance splits) are not wrapped.
        """
        with self._lock:
            self._shards = [
                shard
                if isinstance(shard, FaultInjectingShard)
                else FaultInjectingShard(shard, injector, clock=self._clock)
                for shard in self._shards
            ]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if not self._writable:
            raise RuntimeError(
                "this router is read-only (built with from_shards); "
                "mutations belong to the process that owns the shards"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, frames, video_id: int | None = None) -> int:
        """Summarise one video and route it to its shard; returns its id.

        The summary is computed exactly as an unsharded
        :class:`VideoDatabase` would (same seed derivation), so sharded
        and unsharded fleets store bit-identical summaries.
        """
        with self._lock:
            self._check_writable()
            frames = check_matrix(frames, "frames", min_rows=1)
            if video_id is None:
                video_id = self._next_video_id
            if not isinstance(video_id, int) or isinstance(video_id, bool):
                raise TypeError("video_id must be an int")
            if video_id in self._membership:
                raise ValueError(f"video id {video_id} already present")
            summary = summarize_video(
                video_id, frames, self._epsilon, seed=self._seed + video_id
            )
            return self.add_summary(summary)

    def add_summary(self, summary: VideoSummary) -> int:
        """Route a pre-built summary to the shard that owns it."""
        with self._lock:
            self._check_writable()
            if not isinstance(summary, VideoSummary):
                raise TypeError("summary must be a VideoSummary")
            if summary.video_id in self._membership:
                raise ValueError(
                    f"video id {summary.video_id} already present"
                )
            target = self._partitioner.shard_for(summary)
            if target == self._maintenance_shard:
                # The owning shard is mid-rebalance/rebuild: admit the
                # summary (its id is claimed fleet-wide) but defer the
                # physical insert to the window's close, so the copy
                # phase sees a frozen source.  The durability contract
                # is unchanged — like any add, it is crash-durable only
                # after the next checkpoint.
                self._deferred_adds.append(summary)
            else:
                self._shards[target].add_summary(summary)
            self._membership[summary.video_id] = target
            self._next_video_id = max(
                self._next_video_id, summary.video_id + 1
            )
            return summary.video_id

    def add_many(self, videos) -> list[int]:
        """Add an iterable of frame matrices; returns their ids."""
        return [self.add(frames) for frames in videos]

    def remove(self, video_id: int) -> None:
        """Remove a video from whichever shard holds it."""
        with self._lock:
            self._check_writable()
            owner = self.shard_of(video_id)
            if owner == self._maintenance_shard:
                # The owner is mid-maintenance.  A deferred (never
                # physically inserted) add just un-defers; anything
                # already on the shard is queued for removal at the
                # window's close.
                for position, summary in enumerate(self._deferred_adds):
                    if summary.video_id == video_id:
                        del self._deferred_adds[position]
                        break
                else:
                    self._deferred_removes.append(video_id)
            else:
                self._shards[owner].remove(video_id)
            del self._membership[video_id]

    def build(self) -> None:
        """Force-build every populated shard's index."""
        with self._lock:
            self._check_writable()
            if not self._membership:
                raise ValueError("cannot build an empty database")
            for shard in self._shards:
                if len(shard) > 0 and shard.database.index is None:
                    shard.database.build()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        frames,
        k: int = 10,
        *,
        method: str = "composed",
        fault_policy: FaultPolicy | None = None,
        fail_fast: bool = True,
    ) -> ShardedKNNResult:
        """Top-``k`` most similar stored videos for a raw frame matrix."""
        with self._lock:
            self._check_open()
        frames = check_matrix(frames, "frames", min_rows=1)
        summary = summarize_video(0, frames, self._epsilon, seed=self._seed)
        return self.knn(
            summary,
            k,
            method=method,
            fault_policy=fault_policy,
            fail_fast=fail_fast,
        )

    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        method: str = "composed",
        fault_policy: FaultPolicy | None = None,
        fail_fast: bool = True,
    ) -> ShardedKNNResult:
        """Global top-``k``: scatter, per-shard top-``k``, exact merge.

        Parameters
        ----------
        query:
            Query summary (summarised with the fleet's epsilon).
        k:
            Number of results.
        method:
            ``"composed"`` or ``"naive"`` (per-shard execution strategy).
        fault_policy:
            Retry/deadline/breaker configuration for each shard's
            sub-query (see :class:`~repro.shard.resilience.FaultPolicy`).
            ``None`` with ``fail_fast=True`` (the default) is today's
            strict single-attempt scatter.
        fail_fast:
            ``True``: any shard that stays failed after its policy is
            exhausted raises a :class:`ScatterError` aggregating every
            failure.  ``False``: the query *returns* instead, merging
            whatever the surviving shards answered, with
            ``result.coverage`` flagging exactly what is missing.
        """
        with self._lock:
            self._check_query_args(query, k, method)
            return self._scatter_gather(
                lambda shard, bundle, deadline, attempt: shard.knn(
                    query,
                    k,
                    method=method,
                    out_counters=bundle,
                    deadline=deadline,
                    attempt=attempt,
                ),
                k,
                fault_policy,
                fail_fast,
            )

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------
    def _check_query_args(
        self, query: VideoSummary, k: int, method: str
    ) -> None:
        self._check_open()
        if not isinstance(query, VideoSummary):
            raise TypeError("query must be a VideoSummary")
        check_positive_int(k, "k")
        if method not in ("composed", "naive"):
            raise ValueError(
                f"method must be 'composed' or 'naive', got {method!r}"
            )
        if not self._membership:
            raise ValueError("cannot query an empty database")

    def _scatter_gather(
        self,
        # Spelled with the in-process implementer, not ShardLike, so the
        # static lock-order model (VIL008-VIL010) can follow a sub-query
        # from the router lock into the shard's engine.
        sub_query: Callable[[Shard, CostCounters, Deadline | None, int], object],
        k: int,
        fault_policy: FaultPolicy | None,
        fail_fast: bool,
    ) -> ShardedKNNResult:
        """Scatter ``sub_query`` to every populated shard and merge the
        per-shard lists into the exact global top-``k`` (caller holds
        the lock)."""
        total_counters = CostCounters()
        with Timer() as timer:
            populated = [shard for shard in self._shards if len(shard) > 0]
            per_shard, coverage = self._dispatch(
                populated, sub_query, total_counters, fault_policy, fail_fast
            )
            merged: dict[int, float] = {}
            for result in per_shard:
                for video, score in zip(result.videos, result.scores):
                    merged[video] = score
            videos, scores = _rank(merged, k)
        return ShardedKNNResult(
            videos=videos,
            scores=scores,
            stats=self._global_stats(total_counters, timer.elapsed),
            scatter=ScatterStats(
                shards_total=len(self._shards),
                shards_queried=tuple(
                    shard.shard_id
                    for shard in populated
                    if shard.shard_id not in coverage.shards_pruned
                ),
                shards_pruned=coverage.shards_pruned,
            ),
            coverage=coverage,
        )

    def _dispatch(
        self,
        shards: list[ShardLike],
        work: Callable[[Shard, CostCounters, Deadline | None, int], object],
        total_counters: CostCounters,
        fault_policy: FaultPolicy | None,
        fail_fast: bool,
    ) -> tuple[list, Coverage]:
        """Scatter under the requested failure semantics.

        ``work(shard, bundle, deadline, attempt)`` runs one sub-query.
        No policy + ``fail_fast`` is the strict path: one dispatch per
        shard with no deadline, nothing recorded in the health registry.
        Otherwise each sub-query resolves under the policy (an explicit
        one, or the default :class:`FaultPolicy` when only
        ``fail_fast=False`` was asked for) in
        :func:`~repro.shard.resilience.run_attempts`, which supplies the
        shared :class:`~repro.utils.clock.Deadline` and the dispatch
        ordinal, and what it could not recover either raises
        (``fail_fast``) or is reported in the returned coverage.  An
        exception no policy retries (a bug, not a fault) aborts the
        query on either path.  A shard that answers ``pruned`` is
        reported pruned, not answered; its bundle (the proof's I/O)
        still folds into the total.
        """
        if fault_policy is None and fail_fast:

            def resolve(shard: ShardLike) -> AttemptOutcome:
                # Bundles are not thread-safe: one per sub-query, folded
                # into the total only after the join.
                bundle = CostCounters()
                return AttemptOutcome(
                    ANSWERED, work(shard, bundle, None, 0), bundle
                )

        else:
            policy = fault_policy if fault_policy is not None else FaultPolicy()

            def resolve(shard: ShardLike) -> AttemptOutcome:
                return run_attempts(
                    partial(work, shard),
                    shard.shard_id,
                    policy,
                    self._health,
                    self._clock,
                )

        outcomes = self._fan_out(shards, resolve)
        results: list = []
        failures: dict[int, BaseException] = {}
        pruned: list[int] = []
        by_disposition: dict[str, list[int]] = {
            ANSWERED: [], FAILED: [], TIMED_OUT: [], TRIPPED: []
        }
        for shard, outcome in zip(shards, outcomes):
            if outcome.disposition == ANSWERED:
                total_counters.add(outcome.bundle)
                if outcome.result.pruned:
                    pruned.append(shard.shard_id)
                    continue
                results.append(outcome.result)
            else:
                failures[shard.shard_id] = outcome.error
            by_disposition[outcome.disposition].append(shard.shard_id)
        if fail_fast and failures:
            raise ScatterError(failures)
        coverage = Coverage(
            shards_total=len(self._shards),
            shards_answered=tuple(by_disposition[ANSWERED]),
            shards_pruned=tuple(pruned),
            shards_failed=tuple(by_disposition[FAILED]),
            shards_timed_out=tuple(by_disposition[TIMED_OUT]),
            shards_tripped=tuple(by_disposition[TRIPPED]),
        )
        return results, coverage

    def _fan_out(
        self, shards: list[ShardLike], run_one: Callable[[ShardLike], object]
    ) -> list:
        """``run_one(shard)`` on every shard in parallel; results in
        shard order.  The calling thread runs the first leg and the
        router's pool the rest, each leg in its own copy of the caller's
        context.  Whatever ``run_one`` raises aborts the query with a
        :class:`ScatterError` carrying *every* shard's error, attributed
        per shard."""
        results: list = [None] * len(shards)
        errors: dict[int, BaseException] = {}

        def run(position: int) -> None:
            try:
                results[position] = run_one(shards[position])
            except BaseException as exc:  # propagate to the caller
                errors[shards[position].shard_id] = exc

        legs = [
            self._pool.submit(contextvars.copy_context().run, run, position)
            for position in range(1, len(shards))
        ]
        if shards:
            contextvars.copy_context().run(run, 0)
        for leg in legs:
            leg.result()
        if errors:
            raise ScatterError(errors)
        return results

    def _global_stats(
        self, total_counters: CostCounters, elapsed: float
    ) -> QueryStats:
        """Global stats from the summed per-shard bundles, nothing else."""
        return QueryStats(
            page_requests=total_counters.page_requests,
            physical_reads=total_counters.page_reads,
            node_visits=total_counters.btree_node_visits,
            similarity_computations=total_counters.similarity_computations,
            candidates=total_counters.records_scanned,
            ranges=total_counters.extra.get("range_searches", 0),
            wall_time=elapsed,
        )

    def replication_status(self) -> list[dict]:
        """Per-shard replication telemetry, for shards that have any.

        Read from each shard's contract ``status()`` (across the wire
        too, for a remote proxy); unreplicated shards report ``None``
        there, so an empty list means an unreplicated fleet.
        """
        with self._lock:
            self._check_open()
            statuses = []
            for shard in self._shards:
                replication = shard.status()["replication"]
                if replication is not None:
                    statuses.append(replication)
            return statuses

    # ------------------------------------------------------------------
    # Maintenance windows (rebalance / online rebuild)
    # ------------------------------------------------------------------
    def _open_window(self, position: int) -> None:
        """Start deferring writes aimed at shard ``position`` (caller
        must hold the lock)."""
        if self._maintenance_shard is not None:
            raise RuntimeError(
                f"shard {self._maintenance_shard} is already under "
                "maintenance; one window at a time"
            )
        self._maintenance_shard = position

    def _close_window(self) -> None:
        """End the maintenance window and apply the deferred writes
        (caller must hold the lock).  After a simulated crash the
        deferral queues are abandoned — the crashed fleet can absorb
        nothing, and reopening recovers from disk alone."""
        self._maintenance_shard = None
        if self._faults is not None and self._faults.crashed:
            self._deferred_adds = []
            self._deferred_removes = []
            return
        self._flush_deferred()

    def _flush_deferred(self) -> None:
        adds, self._deferred_adds = self._deferred_adds, []
        removes, self._deferred_removes = self._deferred_removes, []
        for summary in adds:
            # Routed by the *current* partitioner: a rebalance that
            # split the maintained shard sends the add to the right
            # side of the new boundary.
            target = self._partitioner.shard_for(summary)
            self._shards[target].add_summary(summary)
            self._membership[summary.video_id] = target
        for video_id in removes:
            # A deferred-removed mover can sit on source and copy both;
            # scan physically so every copy goes.
            for shard in self._shards:
                if video_id in shard.video_ids():
                    shard.remove(video_id)
            self._membership.pop(video_id, None)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self) -> int | None:
        """Split the hottest shard at its median routing key.

        The hottest shard is the one that served the most queries (ties
        break towards more videos).  Its videos above the median routing
        key move to a new shard inserted right after it; the partitioner
        gains the corresponding boundary.  Returns the new shard's index,
        or ``None`` when no shard can be split (fewer than two distinct
        routing keys on the hottest shard).

        Concurrency: the bulk of the work — scanning the source and
        copying the movers into the new shard — runs *outside* the
        router lock, so queries keep being served from the source
        throughout (the source stays authoritative until the commit
        point).  A maintenance window defers writes aimed at the source
        for the duration; everything else proceeds normally.  Only the
        brief cutover (partitioner split, manifest, source trim) holds
        the lock.

        Durable fleets commit in an order that keeps every crash point
        recoverable: the destination's content first (an orphan
        directory the old manifest ignores), then the manifest (new
        partitioner + shard list), then the source shard's removals.  A
        crash between the last two leaves the moved videos on both
        shards; reopening keeps only the partitioner-routed copy (see
        :meth:`_reconcile`).
        """
        with self._lock:
            self._check_writable()
            if not isinstance(self._partitioner, KeyRangePartitioner):
                raise ValueError(
                    "rebalance() requires a KeyRangePartitioner (hash placement "
                    "has no key ranges to split)"
                )
            populated = [s for s in self._shards if len(s) > 0]
            if not populated:
                return None
            hottest = max(
                populated, key=lambda s: (s.queries_served, len(s))
            )
            partitioner = self._partitioner
            self._open_window(hottest.shard_id)
        try:
            # -- copy phase: no router lock held ------------------------
            # The window freezes the source's content (writes to it are
            # deferred), so the scan and the partitioner snapshot are
            # consistent; concurrent queries read the same frozen pages.
            summaries = hottest.summaries()
            keyed = [
                (partitioner.routing_key(summary), summary)
                for summary in summaries
            ]
            keyed.sort(key=lambda pair: pair[0])
            keys = [key for key, _ in keyed]
            at = keys[(len(keys) - 1) // 2]
            movers = [summary for key, summary in keyed if key > at]
            if not movers:
                return None  # all routing keys equal: nothing separates

            with self._lock:
                if self._path is not None:
                    # A crashed earlier rebalance can leave an orphan
                    # directory under the name we are about to reuse
                    # (``created_shards`` reloads from the pre-crash
                    # manifest); it was never in a manifest, so wipe it.
                    orphan = os.path.join(
                        self._path, f"shard-{self._created_shards:04d}"
                    )
                    if os.path.exists(orphan):
                        shutil.rmtree(orphan)
                new_shard = self._new_shard()
            for summary in movers:
                new_shard.add_summary(summary)
            if self._path is not None:
                # Commit point 1: the destination's content is durable
                # *before* any membership changes.  Until the manifest
                # lands this directory is an ignorable orphan.
                new_shard.checkpoint()

            # -- cutover: brief critical section ------------------------
            with self._lock:
                position = hottest.shard_id
                self._partitioner = self._partitioner.split(position, at)
                self._shards.insert(position + 1, new_shard)
                for index, shard in enumerate(self._shards):
                    shard.renumber(index)
                # One more leg per query from now on.  No query is
                # in flight (each holds this lock), so the old pool is
                # idle and shuts down at once.
                self._pool.shutdown()
                self._pool = _scatter_pool(len(self._shards))
                # Deferred writes flush against the split partitioner —
                # an add past the boundary lands on the new shard.
                self._close_window()
                if self._path is not None:
                    # Commit point 2: the fleet's new shape.  The movers
                    # are now briefly on both shards; reconciliation
                    # keeps the partitioner-routed (new) copy.
                    self._write_manifest()
                for summary in movers:
                    # A deferred remove may have already taken a mover.
                    if summary.video_id in hottest.video_ids():
                        hottest.remove(summary.video_id)
                if self._path is not None:
                    # Commit point 3: source lets go.
                    hottest.checkpoint()
                self._membership = {}
                for shard in self._shards:
                    for video_id in shard.video_ids():
                        self._membership[video_id] = shard.shard_id
                return new_shard.shard_id
        finally:
            with self._lock:
                if self._maintenance_shard is not None:
                    self._close_window()

    def rebuild_shard(self, position: int, *, reference: str | None = None):
        """Online reference-point rebuild of one shard (paper Sec 6.3.3).

        Runs :func:`repro.ingest.cutover.side_build` on the shard's
        database *outside* the router lock — queries keep being served
        from the old generation while the refitted index is built in a
        sibling directory — then takes the lock only for the atomic
        cutover (``epoch.json`` pointer swap + engine/cache drop).  A
        maintenance window defers writes aimed at the shard for the
        duration.  Returns the :class:`~repro.ingest.cutover.CutoverReport`.
        """
        # Imported lazily: the ingest package sits above the routing
        # layer (its pipeline drives this router), so a module-level
        # import would be a cycle.
        from repro.ingest.cutover import commit_cutover, side_build

        with self._lock:
            self._check_writable()
            if self._path is None:
                raise RuntimeError(
                    "rebuild_shard() requires a durable fleet (the side "
                    "build lives in a sibling generation directory)"
                )
            if not isinstance(position, int) or isinstance(position, bool):
                raise TypeError("position must be an int")
            if not 0 <= position < len(self._shards):
                raise ValueError(
                    f"position {position} out of range "
                    f"(fleet has {len(self._shards)} shards)"
                )
            shard = self._shards[position]
            if len(shard) == 0:
                raise ValueError("cannot rebuild an empty shard")
            self._open_window(position)
        try:
            result = side_build(
                shard.database,
                reference=reference if reference is not None else self._reference,
            )
            with self._lock:
                return commit_cutover(shard, result)
        finally:
            with self._lock:
                self._close_window()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Commit the whole fleet: every shard, then the manifest.

        Each shard checkpoint is individually atomic through its own
        write-ahead log; the manifest replace is atomic via
        ``os.replace``.  A crash anywhere leaves each shard at one of
        its own checkpoints and a manifest from before or after — every
        combination :meth:`_reconcile` restores to a consistent fleet.
        """
        with self._lock:
            self._check_writable()
            if self._path is None:
                raise RuntimeError("checkpoint() requires a durable database")
            if self._maintenance_shard is not None:
                raise RuntimeError(
                    f"shard {self._maintenance_shard} is under maintenance; "
                    "checkpoint after the window closes"
                )
            for shard in self._shards:
                if len(shard) > 0 or shard.database.index is not None:
                    shard.checkpoint()
            self._write_manifest()
            self._write_health()

    def _write_manifest(self) -> None:
        manifest = {
            "format": _MANIFEST_FORMAT,
            "epsilon": self._epsilon,
            "reference": self._reference,
            "summarize_seed": self._seed,
            "next_video_id": self._next_video_id,
            "created_shards": self._created_shards,
            "partitioner": self._partitioner.to_dict(),
            "shards": [
                os.path.basename(shard.path) for shard in self._shards
            ],
        }
        publish_file(
            os.path.join(self._path, _MANIFEST_FILE),
            json.dumps(manifest).encode("utf-8"),
            fault_injector=self._faults,
        )

    def _write_health(self) -> None:
        """Persist the fleet-health report beside the manifest.

        Advisory observability state, not data: written with a plain
        atomic replace and deliberately *not* routed through the fault
        injector, so adding health persistence does not shift the op
        counts of any crash-point sweep.
        """
        if self._path is None:
            return
        payload = {
            str(shard_id): entry
            for shard_id, entry in self.fleet_health().items()
        }
        final_path = os.path.join(self._path, _HEALTH_FILE)
        tmp_path = final_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, final_path)

    def _restore_health(self) -> None:
        """Load ``health.json`` (if present) into the health registry.

        A persisted open (or half-open) breaker reopens as OPEN with its
        cooldown restarting now, so a shard that was being skipped when
        the fleet went down stays skipped until a probe clears it.  A
        missing or corrupt file is ignored — health is advisory.
        """
        if self._path is None:
            return
        health_path = os.path.join(self._path, _HEALTH_FILE)
        if not os.path.exists(health_path):
            return
        try:
            with open(health_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = {int(key): dict(value) for key, value in payload.items()}
        except (ValueError, OSError):
            return
        self._health.restore(entries, BreakerPolicy())

    def close(self) -> None:
        """Checkpoint (durable, uncrashed fleets), then release every
        shard and the scatter pool.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            if self._maintenance_shard is not None:
                raise RuntimeError(
                    f"shard {self._maintenance_shard} is under maintenance; "
                    "close after the window closes"
                )
            crashed = self._faults is not None and self._faults.crashed
            if self._path is not None and not crashed and self._membership:
                self.checkpoint()
            for shard in self._shards:
                shard.close()
            self._pool.shutdown()
            self._closed = True

    def crash(self) -> None:
        """Testing seam: drop every shard's file handles, no checkpoints."""
        with self._lock:
            if self._path is None:
                raise RuntimeError("crash() requires a durable database")
            self._closed = True
            for shard in self._shards:
                shard.crash()
            self._pool.shutdown()

    def __enter__(self) -> "ShardedVideoDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ShardedVideoDatabase(videos={len(self)}, "
                f"shards={len(self._shards)}, "
                f"partitioner={self._partitioner.name!r}, "
                f"epsilon={self._epsilon})"
            )
