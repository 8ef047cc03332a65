"""Replica-set serving: one shard's copies behind a single shard-like face.

:class:`ReplicaSet` groups a durable primary :class:`Shard` with N
:class:`ReplicaShard` copies and presents the whole group as one
:class:`~repro.shard.contract.ShardLike`: queries route to a copy, and
the shard's metadata (ids, length, the key-bounds proof) is the
primary's.  A group is read-only: it is not a
:class:`~repro.shard.contract.WritableShard`, and no ``src/`` path
writes to or cuts over a group's primary.  Two members of the contract
carry the group's extra meaning.  ``attempt`` — the dispatch ordinal
the attempt loop hands every sub-query (0 first, +1 per retry) — is
folded into copy selection, which is what sends a retried attempt to a
*different* copy instead of re-hitting the one that failed.
``status()["replication"]`` is :meth:`ReplicaSet.replication_status`
(per-copy restore state and breakers), where a plain shard reports
``None``.

Routing rules, in order:

1. Reads route by *query affinity*: the query's video id hashes to a
   home copy among the admitted ones (primary + replicas whose
   per-copy breaker allows).  Affinity is what makes the cache tiers
   pay under replication — a hot key's repeats keep landing on the
   copy whose caches already hold it, so N copies partition the
   working set instead of each paying the full warmup.  The attempt
   ordinal offsets from the home copy, sending a retry to a *different*
   copy than the one that failed.
2. A copy whose breaker is open is skipped at admission; when every
   replica is tripped, the primary serves (it is always admitted as
   the last resort).
3. Per-copy outcomes feed per-copy breakers, so a copy that keeps
   failing stops receiving traffic after ``BreakerPolicy.min_volume``
   failures and is probed again after its cooldown.

Each copy carries a serving gate (a lock held for the duration of one
query) modelling what the network layer makes physical — one
single-worker server per copy — so in-process throughput benchmarks see
the same scaling shape as the fleet: N copies ≈ N concurrent queries.

:meth:`ReplicaSet.attach_replica` checkpoints the primary, restores the
new copy from that checkpoint (checked by content token), and warms its
page tier with the pages the primary's pool currently holds.  A copy is
never moved after that.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- each copy's serving gate
# is *meant* to be held across a whole query: it models the copy's
# single-worker server, so closed-loop clients contend per copy exactly
# as they would over the network.  A read holds exactly one gate.

import hashlib

from repro.replication.replica import ReplicaShard
from repro.replication.shipper import checkpoint_copy
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
        The copy the replicas are restored from; must be durable to
        attach one (a replica restores its checkpoint files).
    clock:
        Injected clock driving the per-copy breakers (default
        :class:`BreakerPolicy`).
    """

    def __init__(self, primary: Shard, *, clock: Clock) -> None:
        if not isinstance(primary, Shard):
            raise TypeError("primary must be a Shard")
        if not isinstance(clock, Clock):
            raise TypeError("clock must be a Clock")
        self._primary = primary
        self._clock = clock
        self._policy = BreakerPolicy()
        self._primary_copy = _Copy(
            primary, CircuitBreaker(self._policy), "primary"
        )
        self._replicas: list[_Copy] = []
        self.fallbacks_to_primary = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> list[ReplicaShard]:
        """The attached (restored) replicas."""
        return [copy.target for copy in self._replicas]

    def attach_replica(self, replica: ReplicaShard) -> None:
        """Restore a replica from the primary's checkpoint and serve it.

        Checkpoints the primary, restores the replica from a copy of
        that checkpoint (a token mismatch raises
        :class:`~repro.replication.replica.ReplicationError` and the
        copy is not added), and replays the page ids the primary's
        engine holds into the new copy's pool, so its first queries hit
        warm instead of paying the primary's accumulated misses again.
        """
        if not isinstance(replica, ReplicaShard):
            raise TypeError("replica must be a ReplicaShard")
        replica.bootstrap(checkpoint_copy(self._primary))
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
        pool = [copy for copy in self._replicas if copy.breaker.allow(now)]
        if self._primary_copy.breaker.allow(now) or not pool:
            # The primary is always the last resort, even mid-cooldown.
            if not pool and self._replicas:
                self.fallbacks_to_primary += 1
            pool.append(self._primary_copy)
        return pool[(_affinity(key) + attempt) % len(pool)]

    def knn(self, query, k, *, attempt: int = 0, **kwargs):
        """Top-``k`` from the query's affine copy (bit-identical on all).

        Affinity keys on the video id alone, *not* ``(video id, k)``:
        the locality of both engine caches is per query — one copy's
        result cache holds the query's whole ranking and answers every
        ``k`` from it, and its pool holds the video's leaf pages.
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
    # Read-surface delegation (the primary's view; copies are identical)
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        """Fleet position of the shard this group serves."""
        return self._primary.shard_id

    def content_token(self) -> str | None:
        """One token over every copy: the primary's and each replica's,
        in order.

        A read may land on any copy, so an answer depends on every
        copy's content; the token moves when any of them does (a write
        to the primary's own handle, an attach).  ``None`` while the
        primary's index is unbuilt.
        """
        primary = self._primary.content_token()
        if primary is None:
            return None
        digest = hashlib.blake2b(primary.encode("ascii"), digest_size=16)
        for copy in self._replicas:
            digest.update(copy.target.content_token().encode("ascii"))
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self._primary)

    def video_ids(self) -> set[int]:
        """Ids of the videos this shard owns (primary's view)."""
        return self._primary.video_ids()

    def may_contain(
        self, query, *, counters: CostCounters | None = None
    ) -> bool:
        """Lossless overlap filter (primary's view; copies are identical)."""
        return self._primary.may_contain(query, counters=counters)

    def status(self) -> dict:
        """The contract's status report: the primary's, plus the reads
        every replica served and the group's replication telemetry."""
        status = self._primary.status()
        for copy in self._replicas:
            status["queries_served"] += copy.target.status()["queries_served"]
        status["replication"] = self.replication_status()
        return status

    def replication_status(self) -> dict:
        """Telemetry: primary fallbacks and breakers, plus per-replica
        status."""
        return {
            "shard_id": self.shard_id,
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
        """Release every copy's files."""
        for copy in self._replicas:
            copy.target.close()
        self._replicas.clear()
        self._primary.close()

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard_id={self.shard_id}, "
            f"replicas={len(self._replicas)})"
        )
