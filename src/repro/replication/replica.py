"""The replica side: a read-only copy of one primary checkpoint.

:class:`ReplicaShard` owns a directory that holds a byte-faithful copy
of one checkpoint of its primary, or nothing it will serve.  It is
restored exactly once — :meth:`ReplicaShard.bootstrap` writes the
checkpoint's artefacts plus a fresh empty WAL, reopens them as a
:class:`~repro.shard.shard.Shard`, and checks the reopened index's
content token against the primary's — and nothing moves it after that.

A copy that was never restored, or whose restore failed the token check,
raises :class:`ReplicaUnavailable` (a
:class:`~repro.shard.resilience.ShardDown`, so the routing layer's
breakers and retries treat it like any other down shard).  The one
invariant this module defends is that a replica never answers a query
from a state whose content token the primary never had.
"""

from __future__ import annotations

import os

from repro.replication.shipper import (
    EMPTY_TOKEN,
    SNAPSHOT_FILES,
    Snapshot,
    database_token,
)
from repro.shard.resilience import ShardDown
from repro.shard.shard import Shard
from repro.utils.counters import CostCounters

__all__ = [
    "NEEDS_BOOTSTRAP",
    "ReplicaShard",
    "ReplicaUnavailable",
    "ReplicationError",
    "SYNCED",
]

SYNCED = "synced"
NEEDS_BOOTSTRAP = "needs_bootstrap"

_WAL_FILE = "db.wal"


class ReplicationError(RuntimeError):
    """A replica could not be restored."""


class ReplicaUnavailable(ShardDown):
    """The replica was never restored and refuses to serve."""


class ReplicaShard:
    """A read-only shard copy restored once from a primary checkpoint
    (a :class:`~repro.shard.contract.ShardLike`; nothing writes to it).

    Parameters
    ----------
    shard_id:
        Fleet position (mirrors the primary's; the routing layer treats
        primary and replicas as copies of the same shard).
    path:
        The replica's own directory (its artefacts are overwritten by
        the restore).
    epsilon:
        Frame similarity threshold; must match the primary's (the
        restored ``db.json`` re-asserts it on open).
    buffer_capacity, cache_size, range_cache_size:
        Serving knobs of the replica's own :class:`Shard`/engine.  For
        bit-identical counters across copies, give every copy the same
        values the primary uses.
    """

    def __init__(
        self,
        shard_id: int,
        path: str | os.PathLike,
        *,
        epsilon: float,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        range_cache_size: int = 0,
    ) -> None:
        self._shard_id = shard_id
        self._path = os.fspath(path)
        self._epsilon = epsilon
        self._buffer_capacity = buffer_capacity
        self._cache_size = cache_size
        self._range_cache_size = range_cache_size
        self._shard: Shard | None = None
        self._token = EMPTY_TOKEN
        self.last_error: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        """Fleet position (same as the primary's)."""
        return self._shard_id

    @property
    def path(self) -> str:
        """The replica's backing directory."""
        return self._path

    @property
    def state(self) -> str:
        """``SYNCED`` once restored, ``NEEDS_BOOTSTRAP`` before (or
        after :meth:`close`)."""
        return SYNCED if self._shard is not None else NEEDS_BOOTSTRAP

    def content_token(self) -> str:
        """Content token of the restored checkpoint (``EMPTY_TOKEN``
        before the restore)."""
        return self._token

    def status(self) -> dict:
        """The contract's status report; ``replication`` is this copy's
        restore state.  Never raises: an unrestored copy reports
        ``NEEDS_BOOTSTRAP`` and why."""
        shard = self._shard
        return {
            "shard_id": self._shard_id,
            "videos": len(shard) if shard is not None else 0,
            "queries_served": shard.queries_served if shard is not None else 0,
            "replication": {
                "state": self.state,
                "token": self._token,
                "last_error": self.last_error,
            },
        }

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def bootstrap(self, snapshot: Snapshot) -> None:
        """Restore the replica to exactly the snapshot's state.

        Writes the snapshot's artefacts plus a fresh empty WAL, reopens,
        and checks the reopened index's content token against the
        snapshot's before serving.  A mismatch releases the reopened
        copy without writing, leaves the replica unrestored and raises
        :class:`ReplicationError`; so does restoring a copy twice.
        """
        if not isinstance(snapshot, Snapshot):
            raise TypeError("snapshot must be a Snapshot")
        if self._shard is not None:
            raise ReplicationError(
                f"replica of shard {self._shard_id} is already restored"
            )
        os.makedirs(self._path, exist_ok=True)
        for name in SNAPSHOT_FILES + (_WAL_FILE,):
            file_path = os.path.join(self._path, name)
            if os.path.exists(file_path):
                os.remove(file_path)
        for name in SNAPSHOT_FILES:
            content = snapshot.files.get(name, b"")
            if name == "db.json" and not content:
                continue  # a never-checkpointed primary has no metadata
            with open(os.path.join(self._path, name), "wb") as handle:
                handle.write(content)
        shard = Shard(
            self._shard_id,
            epsilon=self._epsilon,
            path=self._path,
            buffer_capacity=self._buffer_capacity,
            cache_size=self._cache_size,
            range_cache_size=self._range_cache_size,
        )
        restored = database_token(shard.database)
        if restored != snapshot.token:
            shard.database.detach()
            self.last_error = (
                f"restore token mismatch: primary {snapshot.token}, "
                f"restored {restored}"
            )
            raise ReplicationError(self.last_error)
        self._shard = shard
        self._token = snapshot.token
        self.last_error = None

    # ------------------------------------------------------------------
    # Serving (read-only delegation)
    # ------------------------------------------------------------------
    def _serving_shard(self) -> Shard:
        if self._shard is None:
            raise ReplicaUnavailable(
                f"replica of shard {self._shard_id} is {NEEDS_BOOTSTRAP}"
                + (f" ({self.last_error})" if self.last_error else "")
            )
        return self._shard

    def __len__(self) -> int:
        return len(self._serving_shard())

    def video_ids(self) -> set[int]:
        """Ids of the videos this copy holds."""
        return self._serving_shard().video_ids()

    def key_bounds(self, *, counters: CostCounters | None = None):
        """Key bounds of this copy's B+-tree (see :meth:`Shard.key_bounds`)."""
        return self._serving_shard().key_bounds(counters=counters)

    def may_contain(
        self, query, *, counters: CostCounters | None = None
    ) -> bool:
        """Lossless overlap filter (see :meth:`Shard.may_contain`)."""
        return self._serving_shard().may_contain(query, counters=counters)

    def knn(self, query, k, **kwargs):
        """Serve one KNN query from the restored copy."""
        return self._serving_shard().knn(query, k, **kwargs)

    def warm(self, page_ids) -> int:
        """Read the primary's cached pages into this copy's engine pool;
        returns how many were read.

        Page ids transfer because the copy is byte-identical, so the
        primary's working set names the same leaves here.  A no-op on an
        empty copy or a disabled page tier.
        """
        shard = self._serving_shard()
        if len(shard) == 0 or not page_ids:
            return 0
        return shard.engine().warm(list(page_ids))

    def close(self) -> None:
        """Release the copy's files (checkpointing nothing new)."""
        if self._shard is not None:
            self._shard.close()
            self._shard = None

    def __repr__(self) -> str:
        return (
            f"ReplicaShard(id={self._shard_id}, state={self.state!r}, "
            f"path={self._path!r})"
        )
