"""Online reference-point rebuild: side-build, then atomic cutover.

The paper's Section 6.3.3 remedy for drift — refit the reference point
and rebuild — is offline as stated: the index is unavailable for the
duration.  This module runs the same rebuild *beside* the live index:

1. :func:`side_build` checkpoints the serving database (anchoring the
   "old complete" state), scans its summaries, and builds a brand-new
   database — refitted reference point, packed pages, new content token
   — in a sibling *generation* directory (``gen-NNNN``) under the same
   root.  The old file set serves queries throughout; nothing it owns
   is touched.
2. :func:`commit_cutover` atomically re-points the directory's
   ``epoch.json`` at the new generation (one ``os.replace`` — the only
   commit point), swaps the shard onto a freshly reopened database, and
   lets every epoch-scoped artefact invalidate itself: the serving
   engine (and its L1 result / L2 range caches) rebuilds against the
   new content token.

The one caller is
:meth:`~repro.shard.router.ShardedVideoDatabase.rebuild_shard`, which
holds the fleet's writes off for the duration; a replica group's
primary is never cut over.

Crash safety is inherited, not bolted on: every write of the side build
and the pointer swap routes through the database's fault injector, so a
crash-at-every-step sweep can prove the invariant — before the pointer
replace lands, reopening serves the *old* index complete; after it, the
*new* one; no intermediate state is reachable.  Stale artefacts (a
crashed side-build, the previous epoch after cutover) are swept by the
next open, never by the cutover itself.

Rankings are unchanged by construction: similarity scores depend only
on the query and each video's own ViTris, never on the reference point,
so the new epoch answers bit-identically to the old (and to a
rebuilt-from-scratch oracle) — the cutover moves *cost*, not results.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

from repro.core.database import (
    VideoDatabase,
    generation_name,
    write_epoch_pointer,
)

__all__ = [
    "CutoverReport",
    "SideBuildResult",
    "commit_cutover",
    "side_build",
]


@dataclass(frozen=True)
class SideBuildResult:
    """A completed side build, ready to cut over to.

    ``generation``/``epoch`` name the sibling directory holding the new
    file set; ``token`` is its index content token; ``drift_before`` is
    the old index's principal-angle drift (radians) at build time.
    """

    generation: str
    epoch: int
    token: str
    videos: int
    drift_before: float


@dataclass(frozen=True)
class CutoverReport:
    """What a completed online rebuild changed."""

    old_token: str
    new_token: str
    old_epoch: int
    new_epoch: int
    generation: str
    videos: int
    drift_before: float
    drift_after: float


def side_build(db: VideoDatabase, *, reference: str | None = None) -> SideBuildResult:
    """Build the refitted index in a sibling generation directory.

    The serving database is checkpointed first — the sweep's "old
    complete" anchor — then its summaries are scanned and bulk-built
    into a fresh :class:`VideoDatabase` under
    ``<db.path>/<next generation>/`` with the same epsilon, seed and id
    counter.  The old file set keeps serving; a crash anywhere in here
    leaves a stale sibling the next open sweeps away.

    The caller must hold writes off the database for the duration (the
    router's write barrier does this); concurrent *reads* are safe
    — the checkpoint changes no page's visible content, and the side
    build only reads.
    """
    if not isinstance(db, VideoDatabase):
        raise TypeError("db must be a VideoDatabase")
    if db.path is None:
        raise ValueError("online rebuild requires a durable database")
    if len(db) == 0:
        raise ValueError("cannot side-build an empty database")
    db.checkpoint()
    drift_before = db.drift_angle()
    summaries = db.summaries()

    epoch = db.epoch + 1
    generation = generation_name(epoch)
    side_path = os.path.join(db.path, generation)
    if os.path.exists(side_path):
        # A crashed side build from this same process run (the open-time
        # sweep only covers reopens); plain removal — it was never live.
        shutil.rmtree(side_path)
    side = VideoDatabase(
        db.epsilon,
        reference=reference if reference is not None else db.reference,
        summarize_seed=db.summarize_seed,
        path=side_path,
        buffer_capacity=db.buffer_capacity,
        fault_injector=db.fault_injector,
    )
    side.reserve_video_ids(db.next_video_id)
    for summary in summaries:
        side.add_summary(summary)
    side.build()
    token = side.index.content_token()
    side.close()
    return SideBuildResult(
        generation=generation,
        epoch=epoch,
        token=token,
        videos=len(summaries),
        drift_before=drift_before,
    )


def commit_cutover(shard, result: SideBuildResult) -> CutoverReport:
    """Atomically switch a shard onto a completed side build.

    The commit point is one ``os.replace`` of ``epoch.json``; before it
    a reopen lands on the old epoch, after it on the new — nothing in
    between.  Then the shard adopts a freshly reopened database (whose
    open sweeps the old generation's files), dropping its engine and
    caches so the next query rebuilds them under the new content token.

    ``shard`` is duck-typed (``database`` + ``adopt_database``) so this
    module stays importable from the routing layer without a cycle.
    """
    if not isinstance(result, SideBuildResult):
        raise TypeError("result must be a SideBuildResult")
    db = shard.database
    if db.path is None:
        raise ValueError("online rebuild requires a durable database")
    old_token = db.index.content_token() if db.index is not None else ""
    old_epoch = db.epoch

    write_epoch_pointer(
        db.path, result.generation, result.epoch,
        fault_injector=db.fault_injector,
    )
    # -- committed: from here on, every reopen lands on the new epoch --

    db.detach()  # no final checkpoint: the old generation is dead
    new_db = VideoDatabase(
        path=db.path,
        buffer_capacity=db.buffer_capacity,
        fault_injector=db.fault_injector,
    )
    shard.adopt_database(new_db)
    return CutoverReport(
        old_token=old_token,
        new_token=result.token,
        old_epoch=old_epoch,
        new_epoch=result.epoch,
        generation=result.generation,
        videos=result.videos,
        drift_before=result.drift_before,
        drift_after=new_db.drift_angle(),
    )
