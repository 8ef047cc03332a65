"""Replica-set serving: one shard's copies behind a single shard-like face.

:class:`ReplicaSet` groups a durable primary :class:`Shard` with N
:class:`ReplicaShard` copies and presents the whole group as one
:class:`~repro.shard.contract.WritableShard`: reads route to a copy,
writes and routing metadata go to the primary.  Two members of the
contract carry the group's extra meaning.  ``attempt`` — the dispatch
ordinal the attempt loop hands every sub-query (0 first, +1 per retry)
— is folded into copy selection, which is what sends a retried attempt
to a *different* copy instead of re-hitting the one that failed.  ``status()["replication"]`` is :meth:`ReplicaSet.replication_status`
(shipper position plus per-replica state), where a plain shard reports
``None``.

Routing rules, in order:

1. Reads route by *query affinity*: the query's video id hashes to a
   home copy among the admitted ones (primary + synced replicas whose
   per-copy breaker allows).  Affinity is what makes the cache tiers
   pay under replication — a hot key's repeats keep landing on the
   copy whose caches already hold it, so N copies partition the
   working set instead of each paying the full warmup.  The attempt
   ordinal offsets from the home copy, sending a retry to a *different*
   copy than the one that failed.
2. A copy whose breaker is open is skipped at admission; when every
   replica is tripped or unsynced, the primary serves (it is always
   admitted as the last resort).
3. Per-copy outcomes feed per-copy breakers, so a copy that keeps
   failing stops receiving traffic after ``BreakerPolicy.min_volume``
   failures and is probed again after its cooldown.

Each copy carries a serving gate (a lock held for the duration of one
query) modelling what the network layer makes physical — one
single-worker server per copy — so in-process throughput benchmarks see
the same scaling shape as the fleet: N copies ≈ N concurrent queries.

Writes go to the primary only.  :meth:`ReplicaSet.sync` pumps sealed
segments to every replica, re-bootstraps any copy that refused one or
fell behind the shipper's retained log, then trims the log through the
slowest replica's position; :meth:`ReplicaSet.attach_replica`
bootstraps a new copy from a snapshot and warms its page tier with the
pages the primary's pool currently holds.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- each copy's serving gate
# is *meant* to be held across a whole query: it models the copy's
# single-worker server, so closed-loop clients contend per copy exactly
# as they would over the network.  A read holds one gate; the one
# nesting is sync() under the write gate: primary gate -> replica gate.

from repro.replication.replica import SYNCED, ReplicaShard
from repro.replication.shipper import WalShipper
from repro.shard.resilience import BreakerPolicy, CircuitBreaker
from repro.shard.shard import Shard
from repro.utils.clock import Clock
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["ReplicaSet"]

# Fibonacci-hash multiplier: spreads consecutive video ids across the
# copy pool instead of striping them by id parity.
_MIX = 2654435761


def _affinity(key: int) -> int:
    """Deterministic spread of a query key over copy indices."""
    return (int(key) * _MIX) & 0xFFFFFFFF


class _Copy:
    """One serving copy: the shard-like, its breaker, its gate."""

    def __init__(self, target, breaker: CircuitBreaker, name: str) -> None:
        self.target = target
        self.breaker = breaker
        self.gate = make_lock(f"ReplicaSet._gate[{name}]")


class ReplicaSet:
    """A primary shard plus its read replicas, served as one shard.

    Parameters
    ----------
    primary:
        The writable copy; must be durable (WAL shipping needs its log).
    clock:
        Injected clock driving the per-copy breakers (default
        :class:`BreakerPolicy`) and replication telemetry.
    """

    def __init__(self, primary: Shard, *, clock: Clock) -> None:
        if not isinstance(primary, Shard):
            raise TypeError("primary must be a Shard")
        if not isinstance(clock, Clock):
            raise TypeError("clock must be a Clock")
        self._primary = primary
        self._clock = clock
        self._policy = BreakerPolicy()
        self._shipper = WalShipper(primary, clock=clock)
        self._primary_copy = _Copy(
            primary, CircuitBreaker(self._policy), "primary"
        )
        self._replicas: list[_Copy] = []
        self.fallbacks_to_primary = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def primary(self) -> Shard:
        """The writable copy."""
        return self._primary

    @property
    def shipper(self) -> WalShipper:
        """The primary's segment shipper."""
        return self._shipper

    @property
    def write_gate(self):
        """The primary copy's serving gate.

        Writers (the ingest pipeline) hold it across a batch commit so
        an in-flight read on the primary copy never interleaves with an
        index mutation; replicas keep serving throughout.
        """
        return self._primary_copy.gate

    @property
    def replicas(self) -> list[ReplicaShard]:
        """The attached replicas (synced or not)."""
        return [copy.target for copy in self._replicas]

    def attach_replica(self, replica: ReplicaShard) -> None:
        """Bootstrap a replica from the current state and start serving it.

        Cuts a fresh snapshot (checkpointing the primary), restores the
        replica from it, and replays the page ids the primary's engine
        holds into the new copy's pool, so its first queries hit warm
        instead of paying the primary's accumulated misses again.
        """
        if not isinstance(replica, ReplicaShard):
            raise TypeError("replica must be a ReplicaShard")
        replica.bootstrap(self._shipper.snapshot())
        self._warm(replica)
        self._replicas.append(
            _Copy(
                replica,
                CircuitBreaker(self._policy),
                f"replica{len(self._replicas)}",
            )
        )

    def _warm(self, replica: ReplicaShard) -> None:
        if len(self._primary) == 0:
            return
        engine = self._primary._engine
        if engine is None:
            return
        page_ids = engine.hot_pages()
        if page_ids:
            replica.warm(page_ids)

    # ------------------------------------------------------------------
    # Replication pump
    # ------------------------------------------------------------------
    def sync(self) -> dict:
        """Bring every replica to the shipper's current position.

        For each replica: replay the retained segments past its applied
        position; on any refusal (corruption, gap, token mismatch) or a
        truncated log, re-bootstrap from a fresh snapshot.  Then trim
        the shipper's log through the slowest replica's position (the
        shipper's own with no replicas): every copy has applied what it
        drops, and a copy that later needs more bootstraps from a
        snapshot anyway.  Returns a tally
        ``{"applied": n, "bootstrapped": n}``.
        """
        applied = 0
        bootstrapped = 0
        for copy in self._replicas:
            # Under the copy's serving gate: a read routed here must not
            # run on the old engine over pages a segment or a bootstrap
            # is rewriting.
            with copy.gate:
                segments, bootstraps = self._catch_up(copy.target)
            applied += segments
            bootstrapped += bootstraps
        self._shipper.log.trim(
            min(
                (copy.target.applied_seq for copy in self._replicas),
                default=self._shipper.seq,
            )
        )
        return {"applied": applied, "bootstrapped": bootstrapped}

    def _catch_up(self, replica: ReplicaShard) -> tuple[int, int]:
        """Bring one replica to the shipper's position; returns
        ``(segments applied, bootstraps)``."""
        if replica.state != SYNCED:
            self._bootstrap(replica)
            return 0, 1
        pending = self._shipper.segments_since(replica.applied_seq)
        if pending is None:
            # The suffix this replica needs was truncated away.
            self._bootstrap(replica)
            return 0, 1
        applied = 0
        for encoded in pending:
            if not replica.apply_segment(encoded):
                self._bootstrap(replica)
                return applied, 1
            applied += 1
        if replica.token != self._shipper.token:
            # Caught up by position yet on a different content token: an
            # online-rebuild cutover re-rooted the chain (same videos,
            # new reference point, new token).  Replay cannot bridge
            # epochs; only a fresh snapshot can.
            self._bootstrap(replica)
            return applied, 1
        return applied, 0

    def _bootstrap(self, replica: ReplicaShard) -> None:
        # snapshot() checkpoints, so the image is at the latest seq and
        # the replica lands fully caught up in one step.
        replica.bootstrap(self._shipper.snapshot())
        self._warm(replica)

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------
    def _admitted(self, attempt: int, key: int) -> _Copy:
        """Pick the copy for this dispatch: affinity + attempt offset.

        ``key`` hashes to the query's home among the admitted copies,
        and the attempt ordinal walks away from it, so a retry
        reaches a *different* copy than the one that failed (as
        long as the admitted pool holds still between attempts —
        breaker flips in the gap make distinctness best-effort).
        """
        now = self._clock.now()
        pool = [
            copy
            for copy in self._replicas
            if copy.target.state == SYNCED and copy.breaker.allow(now)
        ]
        if self._primary_copy.breaker.allow(now) or not pool:
            # The primary is always the last resort, even mid-cooldown.
            if not pool and self._replicas:
                self.fallbacks_to_primary += 1
            pool.append(self._primary_copy)
        return pool[(_affinity(key) + attempt) % len(pool)]

    def knn(self, query, k, *, attempt: int = 0, **kwargs):
        """Top-``k`` from the query's affine copy (bit-identical on all).

        Affinity keys on the video id alone, *not* ``(video id, k)``:
        the result cache would tolerate spreading ``k`` variants over
        different copies, but the page tier's locality is per query —
        one copy whose pool holds a video's leaf pages serves every
        ``k`` over them from memory.
        """
        copy = self._admitted(attempt, query.video_id)
        with copy.gate:
            try:
                result = copy.target.knn(query, k, **kwargs)
            except Exception:
                copy.breaker.record(False, self._clock.now())
                raise
        copy.breaker.record(True, self._clock.now())
        return result

    # ------------------------------------------------------------------
    # Shard-interface delegation (metadata + writes go to the primary)
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        """Fleet position of the shard this group serves."""
        return self._primary.shard_id

    def renumber(self, shard_id: int) -> None:
        """Reassign the group's fleet position on every copy."""
        self._primary.renumber(shard_id)
        for copy in self._replicas:
            copy.target.renumber(shard_id)

    def __len__(self) -> int:
        return len(self._primary)

    def video_ids(self) -> set[int]:
        """Ids of the videos this shard owns (primary's view)."""
        return self._primary.video_ids()

    def summaries(self):
        """Summaries of the shard's videos (primary's view)."""
        return self._primary.summaries()

    def key_bounds(self, *, counters: CostCounters | None = None):
        """Key bounds of the shard's tree (identical on every copy)."""
        return self._primary.key_bounds(counters=counters)

    def composed_ranges(self, query):
        """The query's composed ranges in this shard's key space."""
        return self._primary.composed_ranges(query)

    def may_contain(
        self, query, *, counters: CostCounters | None = None
    ) -> bool:
        """Lossless overlap filter (primary's view; copies are identical)."""
        return self._primary.may_contain(query, counters=counters)

    def add_summary(self, summary) -> int:
        """Store one routed summary (primary only; replicas follow on
        the next checkpoint + :meth:`sync`)."""
        return self._primary.add_summary(summary)

    def remove(self, video_id: int) -> None:
        """Remove one video (primary only)."""
        self._primary.remove(video_id)

    def checkpoint(self) -> None:
        """Checkpoint the primary (sealing the changes into a segment)."""
        self._primary.checkpoint()

    def status(self) -> dict:
        """The contract's status report: the primary's, plus the reads
        every replica served and the group's replication telemetry."""
        status = self._primary.status()
        for copy in self._replicas:
            status["queries_served"] += copy.target.status()["queries_served"]
        status["replication"] = self.replication_status()
        return status

    def replication_status(self) -> dict:
        """Telemetry: shipper position plus per-replica status."""
        return {
            "shard_id": self.shard_id,
            "shipper_seq": self._shipper.seq,
            "shipper_token": self._shipper.token,
            "retained_segments": len(self._shipper.log),
            "fallbacks_to_primary": self.fallbacks_to_primary,
            "primary_breaker": self._primary_copy.breaker.state,
            "replicas": [
                dict(
                    copy.target.status()["replication"],
                    breaker=copy.breaker.state,
                )
                for copy in self._replicas
            ],
        }

    def close(self) -> None:
        """Detach the shipper and release every copy's files."""
        self._shipper.detach()
        for copy in self._replicas:
            copy.target.close()
        self._replicas.clear()
        self._primary.close()

    def __repr__(self) -> str:
        synced = sum(
            1 for copy in self._replicas if copy.target.state == SYNCED
        )
        return (
            f"ReplicaSet(shard_id={self.shard_id}, "
            f"replicas={len(self._replicas)}, synced={synced}, "
            f"seq={self._shipper.seq})"
        )
