"""Read replication: checkpoint copies behind one shard-like face.

A replica is a verified copy of one checkpoint of its primary:

* :mod:`repro.replication.shipper` —
  :func:`~repro.replication.shipper.checkpoint_copy` checkpoints a durable primary and reads its data
  artefacts plus its content token into a
  :class:`~repro.replication.shipper.Snapshot`.
* :mod:`repro.replication.replica` — a read-only
  :class:`~repro.replication.replica.ReplicaShard` restored once from
  such a snapshot, serving only if its reopened content token matches
  the primary's.
* :mod:`repro.replication.group` — the serving side: a
  :class:`~repro.replication.group.ReplicaSet` that load-balances reads
  across the copies, sends retried attempts to *different* copies,
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
from repro.replication.shipper import EMPTY_TOKEN, Snapshot, checkpoint_copy

__all__ = [
    "EMPTY_TOKEN",
    "NEEDS_BOOTSTRAP",
    "ReplicaSet",
    "ReplicaShard",
    "ReplicaUnavailable",
    "ReplicationError",
    "SYNCED",
    "Snapshot",
    "checkpoint_copy",
]
