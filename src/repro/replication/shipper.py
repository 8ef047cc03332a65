"""Checkpoint copies: the one image a replica is restored from.

:func:`checkpoint_copy` checkpoints a durable primary shard and reads its
three data artefacts — ``index.btree``, ``index.heap``, ``db.json`` —
together with the primary's content token at that checkpoint.  A replica
writes those bytes plus a fresh (empty) WAL into its own directory,
reopens, and serves only if the reopened index carries the same token.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.database import VideoDatabase
from repro.shard.shard import Shard

__all__ = ["EMPTY_TOKEN", "Snapshot", "checkpoint_copy", "database_token"]

#: The artefacts a checkpoint copy carries (everything but the WAL; a
#: replica starts with a fresh, empty log).
SNAPSHOT_FILES = ("index.btree", "index.heap", "db.json")

#: Content token of a database with no built index (tokens are 32-char
#: blake2b-16 hex digests; the zero digest is unreachable in practice).
EMPTY_TOKEN = "0" * 32


def database_token(db: VideoDatabase) -> str:
    """The database's current index content token.

    ``EMPTY_TOKEN`` when no index has been built yet — the fingerprint
    of the "nothing indexed" state, so even a copy of an empty primary
    has a token to check.
    """
    index = db.index
    return index.content_token() if index is not None else EMPTY_TOKEN


@dataclass(frozen=True)
class Snapshot:
    """A consistent image of the primary at one checkpoint.

    ``files`` maps artefact name to raw bytes; ``token`` is the content
    token the restored replica must reopen at.
    """

    token: str
    files: dict = field(repr=False)


def checkpoint_copy(shard: Shard) -> Snapshot:
    """Checkpoint a durable primary shard and copy its data artefacts."""
    db = shard.database
    if db.path is None:
        raise ValueError("a checkpoint copy requires a durable primary shard")
    shard.checkpoint()
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
    return Snapshot(token=database_token(db), files=files)
