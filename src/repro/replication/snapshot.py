"""Checkpoint copies: the one image a replica is restored from.

:func:`checkpoint_copy` checkpoints a durable primary shard and reads its
two data artefacts — ``index.btree`` and ``db.json`` — together with the
primary's content token at that checkpoint.  A replica writes those
bytes plus a fresh (empty) WAL into its own directory, reopens, and
serves only if the reopened index carries the same token.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.database import database_token
from repro.shard.shard import Shard

__all__ = ["SNAPSHOT_FILES", "Snapshot", "checkpoint_copy"]

#: The artefacts a checkpoint copy carries (everything but the WAL; a
#: replica starts with a fresh, empty log).
SNAPSHOT_FILES = ("index.btree", "db.json")


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
