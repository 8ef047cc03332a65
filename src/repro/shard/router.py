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
never as pruned.  Measured, no shard prunes: traced ``router.pruned_frac``
is 0 on every e2e workload, the key-range fleet included (ROADMAP item 11).

Scatter
-------
A fleet built by :class:`ShardedVideoDatabase` owns in-process shards,
whose legs are Python and numpy under one interpreter lock, so the
calling thread runs them one after another in shard order.  A read-only
router (:meth:`ShardedVideoDatabase.from_shards`), whose legs typically
wait on sockets, runs the first leg on the calling thread and the rest
on a pool of shards - 1 workers it owns for life.  Each leg runs in its
own copy of the caller's :mod:`contextvars` context, so per-leg state (a
:class:`~repro.utils.clock.VirtualClock`'s sleeps) never leaks.

Cost accounting
---------------
Each scattered sub-query folds its events — a pruned shard's proof I/O
included — into a per-shard :class:`~repro.utils.counters.CostCounters`
bundle (the ``out_counters`` seam); the router sums the bundles into one
bundle and builds the global :class:`~repro.core.index.QueryStats` from
that bundle alone, never by re-aggregating per-shard ``QueryStats``
objects (enforced by the ``counter-discipline`` lint rule).  Wall time
is the router's own scatter-to-merge span.

Answer memo
-----------
A read-only router (:meth:`ShardedVideoDatabase.from_shards`) keeps one
LRU of up to :data:`MEMO_SIZE` complete answers keyed on the query's
fingerprint, so a repeated query is answered before the router lock is
taken and before any leg is sent.  Writable routers do not memoise.

* **k.**  Each entry records the ``k`` it was computed for, and a
  lookup at any ``k`` up to that one hits with the stored answer's
  first ``k`` entries.  That is exact: the ranking is a total order
  (score-descending, video-id tie-break), so a top-``k`` is a prefix of
  every wider top-``k'``, and the merge of the shards' top-``k`` lists
  is the top-``k`` of their union.  A wider ``k`` misses, and its
  answer replaces the entry; a narrower answer replaces it only when
  computed under other tokens.

* **Admission.**  An answer is stored only if its scatter did no work:
  every leg came from its engine's result cache (all-zero stats but
  ``wall_time``).  A query's first answer is computed by the shards,
  its second comes from their engine caches and is stored, and later
  repeats are memo hits.  One-off queries thus never evict a hot
  entry, and a fleet whose engines keep no result cache memoises
  nothing.  Only complete answers (``coverage.complete``) are stored.
* **Validity.**  Each entry records every shard's
  :meth:`~repro.shard.contract.ShardLike.content_token` as read
  *before* its scatter, and a lookup hits only while every shard still
  reports the same token; a ``None`` token (unknown content) is never
  stored, so it never matches.
* **Cost.**  A hit returns the stored videos and scores (cut at its
  ``k``) and coverage unchanged, with all-zero stats except its own
  ``wall_time`` and an empty ``scatter.shards_queried``: it did no work.
* **Faults.**  A hit sends no leg, so it neither consults nor updates
  the breakers or the fleet health, and ``fault_policy``/``fail_fast``
  do not apply to it.  A stored answer is served, complete, even while
  one of its shards is down (a dead server keeps its last token until
  it is restarted): it is the answer a scatter over the same content
  returned.  A miss over a down shard raises or degrades as before.

Fault tolerance
---------------
By default the scatter is strict: any worker failure aborts the query
with a :class:`~repro.shard.resilience.ScatterError` aggregating *every*
shard's error.  Passing ``fault_policy=``/``fail_fast=False`` to
:meth:`ShardedVideoDatabase.knn` switches to the resilient path: each
shard's sub-query runs under
:func:`~repro.shard.resilience.run_attempts` (deadline,
deterministic retries, per-shard circuit breaker) and
a degraded query returns whatever the surviving shards answered plus a
:class:`~repro.shard.resilience.Coverage` report saying exactly which
shards are missing and whether the merged top-k is provably complete.
Per-shard health lives in the router's
:class:`~repro.shard.resilience.FleetHealth` registry, read through
:meth:`ShardedVideoDatabase.fleet_health`.  It is runtime state: a
reopened fleet starts with every breaker closed and every counter zero.

Durability
----------
A durable fleet is a directory of shard directories plus a
``shards.json`` manifest (partitioner, shard list, id counter).
:meth:`ShardedVideoDatabase.checkpoint` checkpoints every shard through
its own write-ahead log — each one individually atomic — then replaces
the manifest atomically.  Reopening rebuilds the fleet's membership:
each shard recovers to its own last checkpoint and the id counter is
the max of the manifest's and every shard's content.  No operation places a video on
two shards, so a reopened fleet that finds one there raises.

A fleet's shard list is fixed when it is built.  To grow one, build a
new fleet with ``KeyRangePartitioner.fit(summaries, n + 1)`` over every
shard's ``summaries()`` and ``add_summary`` each of them.

Online rebuild
--------------
:meth:`ShardedVideoDatabase.rebuild_shard` builds a shard's refitted
index outside the router lock, so queries keep being answered from the
old generation meanwhile.  For that span a write barrier holds every
fleet write back: writes, ``build``, ``checkpoint``, ``close`` and a
second rebuild wait until the cutover has committed (or the side build
has failed), then run against the new generation.  Nothing is queued,
so the fleet's size, membership and placement always agree.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- the router lock is
# deliberately coarse: it serialises fleet mutations (checkpoint,
# close, a rebuild's cutover) against whole queries, so scatters,
# shard sub-queries and manifest writes all run under it by design.
# Every in-process leg runs on the calling thread under the caller's
# hold; only a read-only router's pool legs run without it.

import contextvars
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.core.database import publish_file
from repro.core.engine import query_fingerprint
from repro.core.index import QueryStats, _rank
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary
from repro.shard.contract import ShardLike
from repro.shard.faults import FaultInjectingShard, ShardFaultInjector
from repro.shard.partitioner import (
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

#: Answers a read-only router memoises (see "Answer memo" above).
MEMO_SIZE = 128
#: The stats of a scatter every leg answered from its engine cache.
_NO_WORK = QueryStats(0, 0, 0, 0, 0, 0, 0.0)


def _check_query_shape(query: VideoSummary, k: int) -> None:
    """The query checks that read no router state."""
    if not isinstance(query, VideoSummary):
        raise TypeError("query must be a VideoSummary")
    check_positive_int(k, "k")


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
        # _next_video_id, _closed, _rebuilding).  Held for
        # the full duration of every public operation: queries and
        # mutations are mutually exclusive, which is what makes
        # checkpoint() and a rebuild's cutover safe to call under live
        # traffic.  The one exception is a read-only router's memo hit,
        # which reads only _memo (under _memo_lock) and immutable state.
        self._lock = make_lock("ShardedVideoDatabase._lock")
        self._epsilon = check_positive(epsilon, "epsilon")
        self._reference = "optimal"
        self._seed = 0
        self._buffer_capacity = buffer_capacity
        self._cache_size = cache_size
        self._faults = fault_injector
        self._clock = clock if clock is not None else SystemClock()
        self._health = FleetHealth()
        self._path = os.fspath(path) if path is not None else None
        self._closed = False
        self._writable = True
        self._next_video_id = 0
        self._shards: list[Shard] = []
        self._membership: dict[int, int] = {}
        # The write barrier: the position of the shard whose side build
        # runs outside the lock, or None.  Writes wait on _rebuilt while
        # it is set.
        self._rebuilding: int | None = None
        self._rebuilt = threading.Condition(self._lock)
        # The answer memo (read-only routers only; off here).  A leaf
        # lock: guards _memo, held for dict operations only.
        self._memo_lock = make_lock("ShardedVideoDatabase._memo_lock")
        self._memo_size = 0
        self._memo_shards: tuple[ShardLike, ...] = ()
        self._memo: OrderedDict[str, tuple] = OrderedDict()
        self._pool: ThreadPoolExecutor | None = None  # legs run inline

        manifest_path = (
            os.path.join(self._path, _MANIFEST_FILE)
            if self._path is not None
            else None
        )
        if manifest_path is not None and os.path.exists(manifest_path):
            self._reopen(manifest_path)
        else:
            self._create(partitioner, num_shards)

    def _create(
        self, partitioner: Partitioner | str, num_shards: int | None
    ) -> None:
        """A new fleet: one empty shard per partition, in directories
        named by position."""
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
        for position in range(self._partitioner.num_shards):
            self._shards.append(
                self._open_shard(position, f"shard-{position:04d}")
            )

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
        serves them.  The router memoises complete answers (see "Answer
        memo" in the module docstring) and overlaps the legs of a query
        on a pool it owns (see "Scatter").
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
        self._health = FleetHealth()
        self._path = None
        # The shard list is fixed for a read-only router, so the memo's
        # copy of it is read without the router lock.
        self._memo_lock = make_lock("ShardedVideoDatabase._memo_lock")
        self._memo_size = MEMO_SIZE
        self._memo_shards = tuple(shards)
        self._memo = OrderedDict()
        self._rebuilt = threading.Condition(self._lock)
        with self._lock:
            self._closed = False
            self._writable = False
            self._shards = list(shards)
            self._membership = {}
            self._next_video_id = 0
            self._rebuilding = None
            self._reconcile()
            # Placement is owned by whoever built the shards; this
            # partitioner exists only so introspection keeps working.
            self._partitioner = make_partitioner("hash", len(shards))
            self._pool = ThreadPoolExecutor(
                max(1, len(shards) - 1), thread_name_prefix="shard-query"
            )
        return self

    def _open_shard(self, position: int, name: str) -> Shard:
        """The shard at ``position``, in directory ``name`` of a durable
        fleet (created or reopened)."""
        return Shard(
            position,
            epsilon=self._epsilon,
            reference=self._reference,
            summarize_seed=self._seed,
            path=None if self._path is None else os.path.join(self._path, name),
            buffer_capacity=self._buffer_capacity,
            cache_size=self._cache_size,
            fault_injector=self._faults,
        )

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
        self._partitioner = partitioner_from_dict(manifest["partitioner"])
        shard_dirs = list(manifest["shards"])
        if len(shard_dirs) != self._partitioner.num_shards:
            raise ValueError(
                f"manifest lists {len(shard_dirs)} shards but the "
                f"partitioner routes across {self._partitioner.num_shards}"
            )
        # The manifest's names are authoritative: an older fleet may name
        # its directories out of position order, and keys this version
        # does not read are ignored.
        for position, name in enumerate(shard_dirs):
            self._shards.append(self._open_shard(position, name))
        try:
            self._reconcile()
        except ValueError:
            for shard in self._shards:
                shard.database.detach()
            raise

    def _reconcile(self) -> None:
        """Rebuild membership from the shards' own content.

        No operation places one video on two shards, so one found there
        means the fleet directory was damaged: raise, naming the video
        and both shards, rather than guess which copy is current.
        """
        for shard in self._shards:
            for video_id in shard.video_ids():
                if video_id in self._membership:
                    raise ValueError(
                        f"video {video_id} is on shard "
                        f"{self._membership[video_id]} and on shard "
                        f"{shard.shard_id}"
                    )
                self._membership[video_id] = shard.shard_id
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

    @property
    def writable(self) -> bool:
        """Whether this router accepts writes (``False`` for a
        :meth:`from_shards` router, whose shards another process owns)."""
        with self._lock:
            return self._writable

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
        routing metadata stays fault-free.
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

    def _await_rebuild(self) -> None:
        """Wait while a rebuild's side build runs (caller holds the
        lock, which the wait releases)."""
        while self._rebuilding is not None:
            self._rebuilt.wait()

    def _check_writable(self) -> None:
        """Wait out a rebuild, then refuse a closed or read-only router:
        the wait comes first because either may change during it."""
        self._await_rebuild()
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
            self._shards[self.shard_of(video_id)].remove(video_id)
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
    def query(self, frames, k: int) -> ShardedKNNResult:
        """Top-``k`` most similar stored videos for a raw frame matrix."""
        with self._lock:
            self._check_open()
        frames = check_matrix(frames, "frames", min_rows=1)
        summary = summarize_video(0, frames, self._epsilon, seed=self._seed)
        return self.knn(summary, k)

    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
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

        A read-only router answers a memoised repeat without the router
        lock, without sending a leg and without applying
        ``fault_policy``/``fail_fast``: a stored answer is returned,
        complete, even while a shard is down (see "Answer memo" in the
        module docstring).
        """
        stored, key, tokens = self._recall(query, k)
        if stored is not None:
            return stored
        with self._lock:
            self._check_query_args(query, k)
            result = self._scatter_gather(
                lambda shard, bundle, deadline, attempt: shard.knn(
                    query,
                    k,
                    out_counters=bundle,
                    deadline=deadline,
                    attempt=attempt,
                ),
                k,
                fault_policy,
                fail_fast,
            )
            if (
                key is not None
                and result.coverage.complete
                and None not in tokens
                and replace(result.stats, wall_time=0.0) == _NO_WORK
            ):
                self._memo_store(key, tokens, k, result)
            return result

    # ------------------------------------------------------------------
    # Answer memo (read-only routers)
    # ------------------------------------------------------------------
    def cached_answer(self, query: VideoSummary, k: int) -> ShardedKNNResult | None:
        """The answer :meth:`knn` would give from the memo, or ``None``
        (a miss, or a writable router, which keeps no memo).

        Takes only the memo's leaf lock, so a caller may probe before it
        queues a query (the front door does).  Raises what :meth:`knn`
        raises for a malformed query or ``k``.
        """
        return self._recall(query, k)[0]

    def _recall(
        self, query: VideoSummary, k: int
    ) -> tuple[ShardedKNNResult | None, str | None, tuple[str | None, ...]]:
        """``(hit, key, tokens)``: the memo's answer to ``query`` at
        ``k`` (cut at ``k``, all-zero stats but its own wall time, no
        legs) or ``None``, plus the key and shard tokens a miss's answer
        is stored under (``None, ()`` without a memo)."""
        if not self._memo_size:
            return None, None, ()
        with Timer() as timer:
            _check_query_shape(query, k)
            key = query_fingerprint(query)
            tokens = tuple(shard.content_token() for shard in self._memo_shards)
            stored = self._memo_lookup(key, tokens, k)
        if stored is None:
            return None, key, tokens
        hit = ShardedKNNResult(
            videos=stored.videos[:k],
            scores=stored.scores[:k],
            stats=QueryStats(0, 0, 0, 0, 0, 0, timer.elapsed),
            scatter=ScatterStats(stored.scatter.shards_total, (), ()),
            coverage=stored.coverage,
        )
        return hit, key, tokens

    def _memo_lookup(
        self, key: str, tokens: tuple[str | None, ...], k: int
    ) -> ShardedKNNResult | None:
        """The stored answer for ``key`` if every shard still reports
        the tokens it was computed under and it was computed for ``k``
        or more; the caller cuts it at ``k``.  A closed router's memo is
        empty, so a closed router never hits: the query falls through
        to the locked path, which raises."""
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is None or entry[0] != tokens or entry[1] < k:
                return None
            self._memo.move_to_end(key)
            return entry[2]

    def _memo_store(
        self,
        key: str,
        tokens: tuple[str | None, ...],
        k: int,
        result: ShardedKNNResult,
    ) -> None:
        """Store ``result``, computed for ``k`` under ``tokens``, unless
        the entry already holds a wider answer under the same tokens."""
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is None or entry[0] != tokens or entry[1] < k:
                self._memo[key] = (tokens, k, result)
            self._memo.move_to_end(key)
            while len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------
    def _check_query_args(self, query: VideoSummary, k: int) -> None:
        self._check_open()
        _check_query_shape(query, k)
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
        """``run_one(shard)`` on every shard; results in shard order.
        Each leg runs in its own copy of the caller's context: all of
        them on the calling thread in shard order, or, with a pool, the
        first there and the rest on the pool.  An ``Exception`` from
        ``run_one`` aborts the query with a :class:`ScatterError`
        carrying *every* shard's error, attributed per shard; anything
        else (``KeyboardInterrupt``, ``SystemExit``) propagates at once."""
        results: list = [None] * len(shards)
        errors: dict[int, Exception] = {}

        def run(position: int) -> None:
            try:
                results[position] = run_one(shards[position])
            except Exception as exc:  # raised below, with its siblings'
                errors[shards[position].shard_id] = exc

        inline = len(shards) if self._pool is None else min(1, len(shards))
        legs = [
            self._pool.submit(contextvars.copy_context().run, run, position)
            for position in range(inline, len(shards))
        ]
        for position in range(inline):
            contextvars.copy_context().run(run, position)
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
    # Online rebuild
    # ------------------------------------------------------------------
    def rebuild_shard(self, position: int):
        """Online reference-point rebuild of one shard (paper Sec 6.3.3).

        Runs :func:`repro.ingest.cutover.side_build` on the shard's
        database *outside* the router lock — queries keep being served
        from the old generation while the refitted index is built in a
        sibling directory with the shard's stored reference strategy —
        then takes the lock for the atomic cutover (``epoch.json``
        pointer swap + engine/cache drop).  For the whole span the write
        barrier holds every fleet write back (see "Online rebuild" in
        the module docstring); it lifts when the cutover commits or the
        side build raises.  Returns the
        :class:`~repro.ingest.cutover.CutoverReport`.
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
            self._rebuilding = position
        try:
            result = side_build(shard.database)
            with self._lock:
                return commit_cutover(shard, result)
        finally:
            with self._lock:
                self._rebuilding = None
                self._rebuilt.notify_all()

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
            for shard in self._shards:
                if len(shard) > 0 or shard.database.index is not None:
                    shard.checkpoint()
            self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "format": _MANIFEST_FORMAT,
            "epsilon": self._epsilon,
            "reference": self._reference,
            "summarize_seed": self._seed,
            "next_video_id": self._next_video_id,
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

    def close(self) -> None:
        """Checkpoint (durable, uncrashed fleets), then release every
        shard.  Idempotent."""
        with self._lock:
            self._await_rebuild()
            if self._closed:
                return
            crashed = self._faults is not None and self._faults.crashed
            if self._path is not None and not crashed and self._membership:
                self.checkpoint()
            for shard in self._shards:
                shard.close()
            if self._pool is not None:
                self._pool.shutdown()
            self._closed = True
            with self._memo_lock:
                self._memo.clear()

    def detach(self) -> None:
        """Release every shard without a checkpoint.

        The read-only exit: a fleet opened only to be inspected (the
        ``check`` command) leaves its manifest and every shard's files as
        it found them, as :meth:`~repro.core.database.VideoDatabase.detach`
        does for one database.  Idempotent; durable fleets only.
        """
        with self._lock:
            if self._path is None:
                raise RuntimeError("detach() requires a durable fleet")
            if not self._closed:
                self.crash()

    def crash(self) -> None:
        """Testing seam: drop every shard's file handles, no checkpoints."""
        with self._lock:
            if self._path is None:
                raise RuntimeError("crash() requires a durable database")
            self._closed = True
            for shard in self._shards:
                shard.crash()

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
