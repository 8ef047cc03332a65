"""Read replication: WAL shipping, replica catch-up, replica routing.

The write path (PR 2's redo-only WAL) already funnels every committed
mutation through one choke point; this package turns that choke point
into a replication stream:

* :mod:`repro.replication.segments` — the sealed-segment wire format: a
  committed transaction's raw WAL record bytes framed with a sequence
  number and the content tokens of the states it connects.
* :mod:`repro.replication.shipper` — the primary side: a
  :class:`~repro.replication.shipper.WalShipper` seals every commit into
  the retained :class:`~repro.replication.shipper.SegmentLog` and cuts
  checkpoint :class:`~repro.replication.shipper.Snapshot` images for
  bootstrap.
* :mod:`repro.replication.replica` — the replica side: a read-only
  :class:`~repro.replication.replica.ReplicaShard` applying shipped
  segments through idempotent full-page redo, verifying the content
  token after every apply, and demoting itself to ``NEEDS_BOOTSTRAP``
  rather than ever serving a state the primary never had.
* :mod:`repro.replication.group` — the serving side: a
  :class:`~repro.replication.group.ReplicaSet` that load-balances reads
  across the synced copies, sends retried attempts to *different* copies,
  trips per-copy breakers, and falls back to the primary.
"""

from __future__ import annotations

from repro.replication.group import ReplicaSet
from repro.replication.replica import (
    NEEDS_BOOTSTRAP,
    SYNCED,
    ReplicaShard,
    ReplicaUnavailable,
    ReplicationError,
)
from repro.replication.segments import (
    EMPTY_TOKEN,
    SealedSegment,
    SegmentFrameError,
    decode_segment,
    encode_segment,
)
from repro.replication.shipper import SegmentLog, Snapshot, WalShipper

__all__ = [
    "EMPTY_TOKEN",
    "NEEDS_BOOTSTRAP",
    "ReplicaSet",
    "ReplicaShard",
    "ReplicaUnavailable",
    "ReplicationError",
    "SYNCED",
    "SealedSegment",
    "SegmentFrameError",
    "SegmentLog",
    "Snapshot",
    "WalShipper",
    "decode_segment",
    "encode_segment",
]
