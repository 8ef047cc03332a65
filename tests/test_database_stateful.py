"""Stateful property testing: random database lifecycles vs an oracle.

Hypothesis drives arbitrary interleavings of add / remove / query against
a :class:`VideoDatabase`, while a plain-Python oracle tracks what should
be stored and computes reference rankings with pairwise
:func:`video_similarity`.  Every query must agree exactly.  This is the
strongest reliability statement in the suite: no sequence of operations
may desynchronise the B+-tree, the streaming moments, or the score
aggregation.

A second machine (:class:`CrashRecoveryMachine`) drives a *durable*
database through random add / remove / checkpoint / crash / reopen
interleavings against a two-level oracle: ``live`` mirrors the current
in-memory state, ``committed`` mirrors the last checkpoint.  A crash must
roll the database back to ``committed``, never to anything partial.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.btree.checker import check_tree
from repro.core.database import VideoDatabase
from repro.core.similarity import video_similarity
from repro.core.summarize import summarize_video

EPSILON = 0.4
DIM = 6


def make_frames(seed: int) -> np.ndarray:
    """A deterministic small video for a given content seed."""
    rng = np.random.default_rng(seed)
    anchors = rng.dirichlet(np.full(DIM, 0.3), size=2)
    frames = []
    for anchor in anchors:
        block = np.clip(
            anchor[None, :] + rng.normal(0, 0.02, (6, DIM)), 0, None
        )
        frames.append(block / block.sum(axis=1, keepdims=True))
    return np.vstack(frames)


class DatabaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.db = VideoDatabase(epsilon=EPSILON, summarize_seed=0)
        self.oracle: dict[int, np.ndarray] = {}
        self.counter = 0

    @rule(content_seed=st.integers(min_value=0, max_value=30))
    def add_video(self, content_seed):
        frames = make_frames(content_seed)
        video_id = self.db.add(frames)
        self.oracle[video_id] = frames
        self.counter += 1

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def remove_video(self, pick):
        video_id = sorted(self.oracle)[pick % len(self.oracle)]
        self.db.remove(video_id)
        del self.oracle[video_id]

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(content_seed=st.integers(min_value=0, max_value=30))
    def query(self, content_seed):
        frames = make_frames(content_seed)
        result = self.db.query(frames, k=len(self.oracle))

        query_summary = summarize_video(0, frames, EPSILON, seed=0)
        expected = []
        for video_id in sorted(self.oracle):
            stored = summarize_video(
                video_id, self.oracle[video_id], EPSILON, seed=video_id
            )
            score = video_similarity(query_summary, stored)
            if score > 0.0:
                expected.append((video_id, score))
        expected_scores = dict(expected)

        # Same result set and per-video scores; the order of exact ties
        # (identical content added twice) may differ in the last ULP
        # between the two summation paths.
        assert set(result.videos) == set(expected_scores)
        for video, got in zip(result.videos, result.scores):
            assert abs(got - expected_scores[video]) < 1e-9
        assert list(result.scores) == sorted(result.scores, reverse=True)

    @invariant()
    def size_matches_oracle(self):
        if hasattr(self, "db"):
            assert len(self.db) == len(self.oracle)


TestDatabaseMachine = DatabaseMachine.TestCase
TestDatabaseMachine.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Durable-database lifecycles with crashes, vs a two-level oracle.

    ``live`` is what the open database should contain right now;
    ``committed`` is what it must contain after a crash + reopen.  A
    clean :meth:`VideoDatabase.crash` (process-kill seam, no torn
    writes — those are swept exhaustively in test_storage_recovery)
    discards everything since the last checkpoint, nothing older.
    """

    @initialize()
    def setup(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="vitri-stateful-")
        self.db = VideoDatabase(epsilon=EPSILON, path=self.dir)
        self.live: dict[int, np.ndarray] = {}
        self.committed: dict[int, np.ndarray] = {}

    def teardown(self) -> None:
        if hasattr(self, "db"):
            try:
                self.db.close()
            except RuntimeError:
                pass
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)

    @rule(content_seed=st.integers(min_value=0, max_value=30))
    def add_video(self, content_seed):
        frames = make_frames(content_seed)
        video_id = self.db.add(frames)
        assert video_id not in self.live
        self.live[video_id] = frames

    @precondition(lambda self: len(self.live) > 0)
    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def remove_video(self, pick):
        video_id = sorted(self.live)[pick % len(self.live)]
        self.db.remove(video_id)
        del self.live[video_id]

    @rule()
    def checkpoint(self):
        self.db.checkpoint()
        self.committed = dict(self.live)

    @rule()
    def crash_and_reopen(self):
        self.db.crash()
        self.db = VideoDatabase(path=self.dir)
        self.live = dict(self.committed)

    @rule()
    def close_and_reopen(self):
        self.db.close()  # final checkpoint
        self.committed = dict(self.live)
        self.db = VideoDatabase(path=self.dir)

    @precondition(lambda self: len(self.live) > 0)
    @rule(content_seed=st.integers(min_value=0, max_value=30))
    def query(self, content_seed):
        frames = make_frames(content_seed)
        result = self.db.query(frames, k=len(self.live))

        query_summary = summarize_video(0, frames, EPSILON, seed=0)
        expected_scores = {}
        for video_id in sorted(self.live):
            stored = summarize_video(
                video_id, self.live[video_id], EPSILON, seed=video_id
            )
            score = video_similarity(query_summary, stored)
            if score > 0.0:
                expected_scores[video_id] = score

        assert set(result.videos) == set(expected_scores)
        for video, got in zip(result.videos, result.scores):
            assert abs(got - expected_scores[video]) < 1e-9

    @invariant()
    def size_matches_live_oracle(self):
        if hasattr(self, "db"):
            assert len(self.db) == len(self.live)

    @invariant()
    def recovered_structure_is_sound(self):
        if hasattr(self, "db") and self.db.index is not None:
            check_tree(self.db.index.btree)
            _, records = self.db.index.records()
            assert set(records["video_id"].tolist()) == set(
                self.db.index.video_frames
            )


TestCrashRecoveryMachine = CrashRecoveryMachine.TestCase
TestCrashRecoveryMachine.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)


class TestShardedCheckpointCrash:
    """Kill a 3-shard fleet mid-``checkpoint()`` at every disk-op index.

    A fleet checkpoint is *per-shard* atomic, not fleet-atomic: each
    shard commits through its own write-ahead log, then the manifest is
    replaced.  A crash anywhere in that sequence must leave every shard
    at exactly its old or its new committed content — never partial —
    with no video duplicated across shards, and queries over the
    recovered fleet must match a pairwise-similarity oracle over
    whatever content survived.
    """

    BASE = list(range(9))
    ADDED = [9, 10, 11]

    def _summaries(self):
        from repro.core.summarize import summarize_video

        return {
            video_id: summarize_video(
                video_id, make_frames(video_id), EPSILON, seed=video_id
            )
            for video_id in self.BASE + self.ADDED
        }

    def _expected_sets(self, partitioner, summaries):
        old_sets = [set(), set(), set()]
        new_sets = [set(), set(), set()]
        for video_id, summary in summaries.items():
            shard = partitioner.shard_for(summary)
            new_sets[shard].add(video_id)
            if video_id in self.BASE:
                old_sets[shard].add(video_id)
        return old_sets, new_sets

    def test_crash_point_sweep(self, tmp_path):
        from repro.core.similarity import video_similarity
        from repro.core.summarize import summarize_video
        from repro.shard import KeyRangePartitioner, ShardedVideoDatabase
        from repro.storage.faults import FaultInjector, SimulatedCrash

        summaries = self._summaries()
        partitioner = KeyRangePartitioner.fit(list(summaries.values()), 3)
        old_sets, new_sets = self._expected_sets(partitioner, summaries)
        assert all(old_sets), "fixture must populate all three shards"

        outcomes = set()
        for crash_after in range(1, 400):
            path = str(tmp_path / f"fleet-{crash_after}")
            fleet = ShardedVideoDatabase(
                EPSILON, partitioner=partitioner, path=path
            )
            for video_id in self.BASE:
                fleet.add_summary(summaries[video_id])
            fleet.checkpoint()
            fleet.close()

            injector = FaultInjector(crash_after=crash_after)
            fleet = None
            try:
                # Reopening replays each shard's WAL, so the crash point
                # may land inside recovery itself — also a legal kill
                # (and close() checkpoints again, another window).
                fleet = ShardedVideoDatabase(
                    path=path, fault_injector=injector
                )
                for video_id in self.ADDED:
                    fleet.add_summary(summaries[video_id])
                fleet.checkpoint()
                fleet.close()
            except SimulatedCrash:
                if fleet is not None:
                    fleet.crash()

            recovered = ShardedVideoDatabase(path=path)
            per_shard = [shard.video_ids() for shard in recovered.shards]
            for shard_index, visible in enumerate(per_shard):
                assert visible in (
                    old_sets[shard_index],
                    new_sets[shard_index],
                ), (crash_after, shard_index, visible)
            visible_ids = set().union(*per_shard)
            assert sum(len(s) for s in per_shard) == len(visible_ids)
            assert 9 <= len(visible_ids) <= 12
            outcomes.add(len(visible_ids))

            # Queries over the survivors match the pairwise oracle.
            query_frames = make_frames(2)
            result = recovered.query(query_frames, k=len(visible_ids))
            query_summary = summarize_video(0, query_frames, EPSILON, seed=0)
            expected = {
                video_id: video_similarity(
                    query_summary, summaries[video_id]
                )
                for video_id in visible_ids
            }
            expected = {v: s for v, s in expected.items() if s > 0.0}
            assert set(result.videos) == set(expected)
            for video, got in zip(result.videos, result.scores):
                assert abs(got - expected[video]) < 1e-9
            recovered.close()

            if not injector.crashed:
                break
        else:
            raise AssertionError("sweep never reached a crash-free run")

        # The sweep must have seen both a fully-old and a fully-new
        # fleet, plus (typically) mixed states in between.
        assert 9 in outcomes and 12 in outcomes
