"""The replica side of WAL shipping: a read-only, self-verifying copy.

:class:`ReplicaShard` owns a directory that is always either a
byte-faithful copy of some primary checkpoint state or explicitly marked
unserviceable.  Its life is a two-state machine::

    NEEDS_BOOTSTRAP --bootstrap(snapshot)--> SYNCED
    SYNCED --apply_segment(ok)--> SYNCED        (seq += 1, token advances)
    SYNCED --apply_segment(defect)--> NEEDS_BOOTSTRAP

Every :meth:`ReplicaShard.apply_segment` runs the full gauntlet — frame
CRC, sequence continuity, base-token match, strict per-record validation
(:func:`repro.storage.wal.scan_transaction`), idempotent full-page redo
(:meth:`WriteAheadLog.apply_external`), reload, and finally an
*after-token* check against the freshly reconstructed index.  Any defect
at any stage demotes the replica instead of serving: the one invariant
this module defends is that a replica never answers a query from a state
whose content token the primary never had.

Queries on a demoted replica raise :class:`ReplicaUnavailable` (a
:class:`~repro.shard.resilience.ShardDown`, so the routing layer's
breakers and retries treat it like any other down shard).  Recovery is
always re-bootstrap: snapshots are cheap (three file copies) and
bring the replica to an exact, verified ``(seq, token)`` in one step.
"""

from __future__ import annotations

import os

from repro.replication.segments import (
    EMPTY_TOKEN,
    SegmentFrameError,
    decode_segment,
)
from repro.replication.shipper import SNAPSHOT_FILES, Snapshot, database_token
from repro.shard.resilience import ShardDown
from repro.shard.shard import Shard
from repro.storage.wal import WalSegmentError, scan_transaction
from repro.utils.clock import Clock
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
    """A replication-protocol operation could not be completed."""


class ReplicaUnavailable(ShardDown):
    """The replica is not synced and refuses to serve."""


class ReplicaShard:
    """A read-only shard copy kept current by applying shipped segments
    (a :class:`~repro.shard.contract.ShardLike`; writes reach it only as
    segments).

    Parameters
    ----------
    shard_id:
        Fleet position (mirrors the primary's; the routing layer treats
        primary and replicas as copies of the same shard).
    path:
        The replica's own directory (wiped and rewritten on bootstrap).
    epsilon:
        Frame similarity threshold; must match the primary's (the
        restored ``db.json`` re-asserts it on open).
    clock:
        Injected clock; stamps apply/bootstrap times for lag telemetry.
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
        clock: Clock,
        buffer_capacity: int = 256,
        cache_size: int = 128,
        range_cache_size: int = 0,
    ) -> None:
        if not isinstance(clock, Clock):
            raise TypeError("clock must be a Clock")
        self._shard_id = shard_id
        self._path = os.fspath(path)
        self._epsilon = epsilon
        self._clock = clock
        self._buffer_capacity = buffer_capacity
        self._cache_size = cache_size
        self._range_cache_size = range_cache_size
        self._shard: Shard | None = None
        self._state = NEEDS_BOOTSTRAP
        self._seq = -1
        self._token = EMPTY_TOKEN
        self.last_error: str | None = None
        self.bootstraps = 0
        self.segments_applied = 0
        self.segments_refused = 0
        self.last_apply_at: float | None = None

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
        """``SYNCED`` or ``NEEDS_BOOTSTRAP``."""
        return self._state

    @property
    def applied_seq(self) -> int:
        """Stream position of the last verified state (-1 = never)."""
        return self._seq

    def content_token(self) -> str:
        """Content token of the last verified state; moves on every
        applied segment and bootstrap."""
        return self._token

    def status(self) -> dict:
        """The contract's status report; ``replication`` is this copy's
        catch-up state (position, token, apply/bootstrap tallies).
        Never raises: a demoted copy reports what it last held."""
        shard = self._shard
        return {
            "shard_id": self._shard_id,
            "videos": len(shard) if shard is not None else 0,
            "queries_served": shard.queries_served if shard is not None else 0,
            "replication": {
                "state": self._state,
                "applied_seq": self._seq,
                "token": self._token,
                "bootstraps": self.bootstraps,
                "segments_applied": self.segments_applied,
                "segments_refused": self.segments_refused,
                "last_error": self.last_error,
            },
        }

    # ------------------------------------------------------------------
    # Catch-up state machine
    # ------------------------------------------------------------------
    def _demote(self, reason: str) -> None:
        self._state = NEEDS_BOOTSTRAP
        self.last_error = reason
        self.segments_refused += 1

    def bootstrap(self, snapshot: Snapshot) -> None:
        """Restore the replica to exactly the snapshot's state.

        Drops the current copy (whatever condition it is in), writes the
        snapshot's artefacts plus a fresh empty WAL, reopens, and
        verifies the restored index's content token against the
        snapshot's before serving.  A verification failure keeps the
        replica demoted and raises :class:`ReplicationError`.
        """
        if not isinstance(snapshot, Snapshot):
            raise TypeError("snapshot must be a Snapshot")
        if self._shard is not None:
            # The current copy is being discarded, possibly mid-defect:
            # drop the file handles without checkpointing anything.
            self._shard.crash()
            self._shard = None
        self._state = NEEDS_BOOTSTRAP
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
        self._shard = Shard(
            self._shard_id,
            epsilon=self._epsilon,
            path=self._path,
            buffer_capacity=self._buffer_capacity,
            cache_size=self._cache_size,
            range_cache_size=self._range_cache_size,
        )
        restored = database_token(self._shard.database)
        if restored != snapshot.token:
            self.last_error = (
                f"bootstrap token mismatch: snapshot {snapshot.token}, "
                f"restored {restored}"
            )
            raise ReplicationError(self.last_error)
        self._seq = snapshot.seq
        self._token = snapshot.token
        self._state = SYNCED
        self.last_error = None
        self.bootstraps += 1
        self.last_apply_at = self._clock.now()

    def apply_segment(self, encoded: bytes) -> bool:
        """Verify and apply one shipped segment; ``True`` on success.

        ``False`` means the segment was refused and the replica demoted
        itself to ``NEEDS_BOOTSTRAP`` — the caller should re-bootstrap
        from a fresh snapshot.  The replica's serving state is never a
        half-applied transaction: a defect detected before the redo
        leaves the old verified state intact (it keeps serving only
        after a successful re-sync), and a defect detected after it
        (token mismatch) blocks serving entirely.
        """
        if self._state != SYNCED or self._shard is None:
            self._demote("apply on an unsynced replica")
            return False
        try:
            segment = decode_segment(encoded)
        except SegmentFrameError as exc:
            self._demote(f"bad frame: {exc}")
            return False
        if segment.seq != self._seq + 1:
            self._demote(
                f"sequence gap: expected {self._seq + 1}, got {segment.seq}"
            )
            return False
        if segment.base_token != self._token:
            self._demote(
                f"base token mismatch: at {self._token}, segment expects "
                f"{segment.base_token}"
            )
            return False
        try:
            images, sizes, meta = scan_transaction(segment.payload)
        except WalSegmentError as exc:
            self._demote(f"bad transaction: {exc}")
            return False
        db = self._shard.database
        try:
            db.wal.apply_external(images, sizes, meta)
            db.reload()
        except Exception as exc:  # noqa: BLE001 - any defect demotes
            self._demote(f"apply failed: {exc}")
            return False
        restored = database_token(db)
        if restored != segment.after_token:
            self._demote(
                f"after token mismatch: applied to {restored}, segment "
                f"promised {segment.after_token}"
            )
            return False
        self._seq = segment.seq
        self._token = segment.after_token
        self.segments_applied += 1
        self.last_apply_at = self._clock.now()
        return True

    # ------------------------------------------------------------------
    # Serving (read-only delegation)
    # ------------------------------------------------------------------
    def _serving_shard(self) -> Shard:
        if self._state != SYNCED or self._shard is None:
            raise ReplicaUnavailable(
                f"replica of shard {self._shard_id} is {self._state}"
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
        """Serve one KNN query from the verified copy."""
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
        self._state = NEEDS_BOOTSTRAP

    def __repr__(self) -> str:
        return (
            f"ReplicaShard(id={self._shard_id}, state={self._state!r}, "
            f"seq={self._seq}, path={self._path!r})"
        )
