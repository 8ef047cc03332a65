"""The one contract every shard-shaped class implements.

A video's similarity score depends only on the query and that video's
own ViTris, so per-shard top-``k`` lists merge exactly and every copy of
a shard is interchangeable.  That is why the router, the shard server
and the attempt loop can treat five classes as one thing; this module
says what that thing is.

* :class:`ShardLike` (the read surface) is implemented by
  :class:`~repro.shard.shard.Shard`,
  :class:`~repro.shard.faults.FaultInjectingShard`,
  :class:`~repro.replication.group.ReplicaSet`,
  :class:`~repro.replication.replica.ReplicaShard` and
  :class:`~repro.serve.transport.RemoteShard`.
* :class:`WritableShard` (writes and routing metadata on top) by the
  first three; a replica and a remote proxy are read-only.

Callers use the declared surface and never probe for it (vilint's
``duck-sniffing`` rule): an implementer with nothing to say accepts the
argument (a single copy's ``attempt``) or reports ``None`` (an
unreplicated shard's ``replication``).  ``tests/test_shard_contract.py``
runs one conformance suite over all five.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.index import KNNResult
from repro.core.vitri import VideoSummary
from repro.utils.clock import Deadline
from repro.utils.counters import CostCounters

__all__ = ["ShardLike", "WritableShard"]


@runtime_checkable
class ShardLike(Protocol):
    """What a scatter sub-query, and the server in front of it, call."""

    @property
    def shard_id(self) -> int:
        """Position in the fleet's shard list."""

    def __len__(self) -> int: ...

    def video_ids(self) -> set[int]: ...

    def may_contain(
        self, query: VideoSummary, *, counters: CostCounters | None = None
    ) -> bool:
        """Lossless key-bounds filter; ``False`` proves zero similarity."""

    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        method: str = "composed",
        cold: bool = False,
        out_counters: CostCounters | None = None,
        deadline: Deadline | None = None,
        attempt: int = 0,
    ) -> KNNResult:
        """The shard's local top-``k``.

        A query the shard's key bounds rule out (:meth:`may_contain` is
        ``False``) is answered by that proof alone: an empty result with
        ``pruned=True``, no search run.  An expired ``deadline`` (the
        sub-query's shared budget) raises
        :class:`~repro.shard.resilience.ShardTimeout` before any page is
        read.  ``attempt`` is the dispatch ordinal within one sub-query
        (0, then +1 per retry): a replica group folds it into
        copy selection so each dispatch reaches a different copy.
        """

    def status(self) -> dict:
        """``shard_id``, ``videos``, ``queries_served`` and
        ``replication``: ``None`` for an unreplicated shard, a group's
        ``replication_status()``, or one replica's catch-up state."""

    def close(self) -> None: ...


@runtime_checkable
class WritableShard(ShardLike, Protocol):
    """What a router that owns its shards (placement, rebalance,
    checkpoint) drives on top of the read surface."""

    def add_summary(self, summary: VideoSummary) -> int: ...

    def remove(self, video_id: int) -> None: ...

    def summaries(self) -> list[VideoSummary]: ...

    def checkpoint(self) -> None: ...

    def renumber(self, shard_id: int) -> None:
        """Reassign the fleet position (a rebalance inserts mid-list)."""

    def key_bounds(
        self, *, counters: CostCounters | None = None
    ) -> tuple[float, float] | None:
        """``(min_key, max_key)`` of the B+-tree; ``None`` when empty."""

    def composed_ranges(
        self, query: VideoSummary
    ) -> list[tuple[float, float]]:
        """The query's composed search ranges in this shard's key space."""
