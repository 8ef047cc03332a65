"""The primary side of WAL shipping: seal commits, cut snapshots.

:class:`WalShipper` hooks a durable primary shard's write-ahead log
(:meth:`WriteAheadLog.set_segment_sink`): every committing transaction's
record bytes are captured at the durability point — after the log's
fsync, before the images are applied locally — framed as a
:class:`~repro.replication.segments.SealedSegment` and retained in the
:class:`SegmentLog` until every replica has applied it.  Shipping
therefore costs the primary one in-memory copy per commit; no second
read of the log file, no extra fsync.

Content tokens bracket every segment.  The token *before* the first
sealed segment is read at attach time; after that each seal stamps the
primary's post-commit token and carries the previous one as its base, so
the stream is a hash chain over index states: a replica can verify every
hop and a segment can never silently apply to the wrong base.

:meth:`WalShipper.snapshot` cuts a bootstrap image: checkpoint the
primary (which itself seals a segment, so the snapshot's sequence number
is exact), then read the three data artefacts — ``index.btree``,
``index.heap``, ``db.json``.  A replica restores those bytes plus a
fresh (empty) WAL and is, by construction, at exactly
``(snapshot.seq, snapshot.token)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.database import VideoDatabase
from repro.replication.segments import (
    EMPTY_TOKEN,
    SealedSegment,
    encode_segment,
)
from repro.utils.clock import Clock
from repro.utils.locks import make_lock

__all__ = ["SegmentLog", "Snapshot", "WalShipper", "database_token"]

#: The artefacts a bootstrap snapshot carries (everything but the WAL;
#: a replica starts with a fresh, empty log).
SNAPSHOT_FILES = ("index.btree", "index.heap", "db.json")


def database_token(db: VideoDatabase) -> str:
    """The database's current index content token.

    ``EMPTY_TOKEN`` when no index has been built yet — the fingerprint
    of the "nothing indexed" state, so token chains are well defined
    from the very first commit.
    """
    index = db.index
    return index.content_token() if index is not None else EMPTY_TOKEN


@dataclass(frozen=True)
class Snapshot:
    """A consistent bootstrap image of the primary at one checkpoint.

    ``files`` maps artefact name to raw bytes; ``seq``/``token`` are the
    stream position and content token the restored replica will be at.
    """

    seq: int
    token: str
    files: dict = field(repr=False)


class SegmentLog:
    """Retained encoded segments, ordered by sequence number.

    :meth:`since` returns ``None`` when the requested suffix reaches
    into trimmed history — the caller must bootstrap from a snapshot
    instead of replaying.
    """

    def __init__(self) -> None:
        self._lock = make_lock("SegmentLog._lock")
        self._entries: list[tuple[int, bytes]] = []
        self._truncated_through = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def latest_seq(self) -> int:
        """Sequence number of the newest retained segment (0 if none)."""
        with self._lock:
            return self._entries[-1][0] if self._entries else 0

    def append(self, seq: int, encoded: bytes) -> None:
        """Retain one encoded segment (sequence numbers must ascend)."""
        with self._lock:
            if self._entries and seq <= self._entries[-1][0]:
                raise ValueError(
                    f"segment seq {seq} not after retained tail "
                    f"{self._entries[-1][0]}"
                )
            self._entries.append((seq, bytes(encoded)))

    def since(self, seq: int) -> list[bytes] | None:
        """Encoded segments with sequence number > ``seq``, in order.

        ``None`` when part of that suffix was trimmed away — replay
        cannot bridge the gap, only a snapshot can.
        """
        with self._lock:
            if seq < self._truncated_through:
                return None
            return [
                encoded for entry_seq, encoded in self._entries
                if entry_seq > seq
            ]

    def trim(self, through_seq: int) -> None:
        """Drop every segment with seq <= ``through_seq`` and floor
        replay there.

        :meth:`ReplicaSet.sync` trims through the slowest replica's
        position once every replica has applied what it needs, which is
        what keeps the log bounded; :meth:`since` then answers ``None``
        for any position below the floor, forcing a snapshot bootstrap.
        """
        with self._lock:
            self._entries = [
                entry for entry in self._entries if entry[0] > through_seq
            ]
            self._truncated_through = max(self._truncated_through, through_seq)


class WalShipper:
    """Seals a durable primary shard's commits into a segment stream.

    Parameters
    ----------
    shard:
        The primary (:class:`repro.shard.shard.Shard`); must be durable.
    clock:
        Injected clock; stamps :attr:`last_seal_at` for lag telemetry.
    """

    def __init__(self, shard, *, clock: Clock) -> None:
        if not isinstance(clock, Clock):
            raise TypeError("clock must be a Clock")
        db = shard.database
        if db.path is None:
            raise ValueError("WAL shipping requires a durable primary shard")
        self._shard = shard
        self._clock = clock
        self._log = SegmentLog()
        self._token = database_token(db)
        self._seq = 0
        self.last_seal_at: float | None = None
        db.wal.set_segment_sink(self._seal)

    @property
    def log(self) -> SegmentLog:
        """The retained segment stream."""
        return self._log

    @property
    def seq(self) -> int:
        """Sequence number of the last sealed segment (0 before any)."""
        return self._seq

    @property
    def token(self) -> str:
        """The primary's content token as of the last sealed segment."""
        return self._token

    def _seal(self, raw: bytes) -> None:
        # Runs inside WriteAheadLog.commit, after the fsync: the
        # in-memory index already reflects the committing transaction,
        # so its token is the segment's after-state.
        after = database_token(self._shard.database)
        self._seq += 1
        segment = SealedSegment(
            seq=self._seq,
            base_token=self._token,
            after_token=after,
            payload=raw,
        )
        self._log.append(self._seq, encode_segment(segment))
        self._token = after
        self.last_seal_at = self._clock.now()

    def segments_since(self, seq: int) -> list[bytes] | None:
        """Encoded segments a replica at ``seq`` must replay (see
        :meth:`SegmentLog.since`)."""
        return self._log.since(seq)

    def snapshot(self) -> Snapshot:
        """Cut a consistent bootstrap image at the current state.

        Checkpoints the primary first — the checkpoint commit seals its
        own segment, so the returned ``seq`` is exactly the stream
        position the on-disk bytes correspond to.
        """
        self._shard.checkpoint()
        db = self._shard.database
        files: dict[str, bytes] = {}
        for name in SNAPSHOT_FILES:
            # data_dir, not path: after an online-rebuild cutover the
            # active file set lives in a generation sub-directory.
            file_path = os.path.join(db.data_dir, name)
            if os.path.exists(file_path):
                with open(file_path, "rb") as handle:
                    files[name] = handle.read()
            else:
                files[name] = b""
        return Snapshot(seq=self._seq, token=self._token, files=files)

    def detach(self) -> None:
        """Stop sealing (clears the WAL's segment sink)."""
        self._shard.database.wal.set_segment_sink(None)

    def __repr__(self) -> str:
        return (
            f"WalShipper(seq={self._seq}, token={self._token[:8]}..., "
            f"retained={len(self._log)})"
        )
