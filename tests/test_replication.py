"""Tests for repro.replication (checkpoint copies, replicas, replica sets).

The restore tests pin what a replica is: a copy of one primary
checkpoint that serves only if its reopened content token matches the
primary's.  The serving tests pin the routing contract the router
relies on: affinity keeps a video's queries on one home copy, attempt
ordinals walk retries to *different* copies, breaker-tripped replicas
fall back to the primary, and — the one invariant everything else leans
on — every copy answers every query bit-identically to the primary.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.core.summarize import summarize_video
from repro.core.database import database_token
from repro.replication import (
    NEEDS_BOOTSTRAP,
    SYNCED,
    ReplicaSet,
    ReplicaShard,
    ReplicaUnavailable,
    ReplicationError,
)
from repro.replication import group as group_module
from repro.replication.snapshot import checkpoint_copy
from repro.shard.shard import Shard
from repro.utils.clock import VirtualClock
from repro.utils.counters import CostCounters

EPSILON = 0.3


def make_summaries(count: int = 12, *, seed: int = 7, dim: int = 8):
    config = DatasetConfig(
        dim=dim,
        num_families=3,
        family_size=3,
        num_distractors=max(count - 9, 1),
    )
    dataset = generate_dataset(config, seed=seed)
    return [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(min(count, dataset.num_videos))
    ]


def make_primary(path, summaries, **kwargs) -> Shard:
    shard = Shard(0, epsilon=EPSILON, path=str(path), **kwargs)
    for summary in summaries:
        shard.add_summary(summary)
    shard.checkpoint()
    return shard


class TestReplicaShard:
    def test_bootstrap_restores_exact_state(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries)
        replica = ReplicaShard(0, tmp_path / "replica", epsilon=EPSILON)
        assert replica.state == NEEDS_BOOTSTRAP
        with pytest.raises(ReplicaUnavailable):
            replica.knn(summaries[0], 3)

        replica.bootstrap(checkpoint_copy(primary))
        assert replica.state == SYNCED
        assert replica.content_token() == database_token(primary.database)
        assert replica.video_ids() == primary.video_ids()

        want = primary.knn(summaries[0], 3)
        got = replica.knn(summaries[0], 3)
        assert got.videos == want.videos
        assert got.scores == want.scores
        primary.close()
        replica.close()

    def test_a_restored_copy_is_never_restored_again(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries[:8])
        replica = ReplicaShard(0, tmp_path / "replica", epsilon=EPSILON)
        replica.bootstrap(checkpoint_copy(primary))
        token = replica.content_token()
        primary.add_summary(summaries[8])
        with pytest.raises(ReplicationError, match="already restored"):
            replica.bootstrap(checkpoint_copy(primary))
        assert replica.content_token() == token
        assert summaries[8].video_id not in replica.video_ids()
        primary.close()
        replica.close()

    def test_requires_durable_primary(self):
        shard = Shard(0, epsilon=EPSILON)  # in-memory
        with pytest.raises(ValueError, match="durable"):
            checkpoint_copy(shard)


class TestReplicaSet:
    def make_group(self, tmp_path, summaries, replicas=2):
        clock = VirtualClock()
        primary = make_primary(tmp_path / "primary", summaries)
        group = ReplicaSet(primary, clock=clock)
        for index in range(replicas):
            group.attach_replica(
                ReplicaShard(0, tmp_path / f"replica-{index}", epsilon=EPSILON)
            )
        return group, primary, clock

    def test_attach_bootstraps_to_current_state(self, tmp_path):
        summaries = make_summaries()
        group, primary, _ = self.make_group(tmp_path, summaries)
        status = group.replication_status()
        assert len(status["replicas"]) == 2
        for replica in status["replicas"]:
            assert replica["state"] == SYNCED
            assert replica["token"] == primary.content_token()
        group.close()

    def test_token_mismatch_on_restore_is_refused(self, tmp_path, monkeypatch):
        """A copy whose reopened token differs from the primary's never
        joins the group; the group keeps serving from its other copies."""
        summaries = make_summaries()
        group, primary, _ = self.make_group(tmp_path, summaries, replicas=1)
        other = make_primary(tmp_path / "other", summaries[:5])
        foreign = checkpoint_copy(other)
        other.close()

        def mixed_up(shard):
            # The primary's token over another database's files.
            return dataclasses.replace(checkpoint_copy(shard), files=foreign.files)

        monkeypatch.setattr(group_module, "checkpoint_copy", mixed_up)
        bad = ReplicaShard(0, tmp_path / "bad", epsilon=EPSILON)
        with pytest.raises(ReplicationError, match="token mismatch"):
            group.attach_replica(bad)

        assert bad not in group.replicas
        assert len(group.replicas) == 1
        assert bad.state == NEEDS_BOOTSTRAP
        assert "token mismatch" in bad.status()["replication"]["last_error"]
        with pytest.raises(ReplicaUnavailable, match="token mismatch"):
            bad.knn(summaries[0], 3)
        for query in summaries:
            want = primary.knn(query, 4)
            for attempt in range(2):  # the primary and the good replica
                got = group.knn(query, 4, attempt=attempt)
                assert got.videos == want.videos
                assert got.scores == want.scores
        assert group.fallbacks_to_primary == 0
        group.close()

    def test_affinity_keeps_a_video_on_one_copy(self, tmp_path):
        summaries = make_summaries()
        group, _, _ = self.make_group(tmp_path, summaries)
        for query in summaries:
            key = query.video_id
            homes = {
                id(group._admitted(0, key).target) for _ in range(3)
            }
            assert len(homes) == 1, "affinity must be deterministic"
        # The pool has 3 copies; a spread of keys must use more than one.
        used = {
            id(group._admitted(0, query.video_id).target)
            for query in summaries
        }
        assert len(used) > 1, "affinity must spread keys over copies"
        group.close()

    def test_attempt_ordinals_walk_distinct_copies(self, tmp_path):
        summaries = make_summaries()
        group, _, _ = self.make_group(tmp_path, summaries)
        key = summaries[0].video_id
        targets = {
            id(group._admitted(attempt, key).target) for attempt in range(3)
        }
        assert len(targets) == 3, "retries must reach different copies"
        group.close()

    def test_all_replicas_tripped_falls_back_to_primary(self, tmp_path):
        summaries = make_summaries()
        group, _, clock = self.make_group(tmp_path, summaries)
        for copy in group._replicas:
            # The default BreakerPolicy opens after min_volume=4 failures.
            for _ in range(4):
                copy.breaker.record(False, clock.now())
            assert not copy.breaker.allow(clock.now())
        before = group.fallbacks_to_primary
        result = group.knn(summaries[0], 3)
        assert result.videos  # served by the primary
        assert group.fallbacks_to_primary == before + 1
        group.close()

    def test_rankings_bit_identical_on_every_copy(self, tmp_path):
        summaries = make_summaries()
        group, primary, _ = self.make_group(tmp_path, summaries)
        for query in summaries:
            want = primary.knn(query, 4)
            for attempt in range(3):  # walks all three copies
                got = group.knn(query, 4, attempt=attempt)
                assert got.videos == want.videos
                assert got.scores == want.scores
        group.close()

    def test_warm_on_attach_transfers_hot_pages(self, tmp_path):
        summaries = make_summaries()
        clock = VirtualClock()
        primary = make_primary(
            tmp_path / "primary", summaries, range_cache_size=64
        )
        # Heat the primary's pool, then attach a cold copy.
        engine = primary.engine()
        for query in summaries[:4]:
            primary.knn(query, 3)
        assert engine.hot_pages(), "primary should have cached pages"

        group = ReplicaSet(primary, clock=clock)
        replica = ReplicaShard(
            0,
            tmp_path / "replica",
            epsilon=EPSILON,
            range_cache_size=64,
        )
        group.attach_replica(replica)
        # A warmed copy holds the primary's pages and serves a hot query
        # from memory on its very first query.
        counters = CostCounters()
        got = replica.knn(summaries[0], 3, out_counters=counters)
        want = primary.knn(summaries[0], 3)
        assert got.videos == want.videos
        assert counters.page_requests > 0
        assert counters.page_reads == 0
        group.close()

    def test_every_copy_serves_and_the_group_status_sums_them(self, tmp_path):
        summaries = make_summaries()
        group, primary, _ = self.make_group(tmp_path, summaries)
        for attempt in range(3):
            group.knn(summaries[0], 3, attempt=attempt)
        assert primary.queries_served == 1
        for replica in group.replicas:
            assert replica.status()["queries_served"] == 1
        assert group.status()["queries_served"] == 3
        group.close()


class TestRouterOverReplicaSet:
    """The scatter router serves a ReplicaSet like any shard — strict
    and resilient dispatch paths, telemetry seams, batch serving."""

    @pytest.fixture
    def routed(self, tmp_path):
        from repro.shard.router import ShardedVideoDatabase

        summaries = make_summaries()
        clock = VirtualClock()
        primary = make_primary(tmp_path / "primary", summaries)
        group = ReplicaSet(primary, clock=clock)
        for index in range(2):
            group.attach_replica(
                ReplicaShard(0, tmp_path / f"replica-{index}", epsilon=EPSILON)
            )
        router = ShardedVideoDatabase.from_shards(
            [group], epsilon=EPSILON, clock=clock
        )
        yield router, group, primary, summaries
        router.close()

    def test_strict_and_resilient_paths_agree(self, routed):
        from repro.shard.resilience import FaultPolicy

        router, _, _, summaries = routed
        for query in summaries[:4]:
            strict = router.knn(query, 4)
            resilient = router.knn(query, 4, fault_policy=FaultPolicy())
            assert strict.videos == resilient.videos
            assert strict.scores == resilient.scores

    def test_router_telemetry_sees_every_copy(self, routed):
        router, group, _, summaries = routed
        for attempt in range(3):
            group.knn(summaries[0], 3, attempt=attempt)
        assert group.status()["queries_served"] == 3
        status = router.replication_status()
        assert status == [group.status()["replication"]]
        assert len(status[0]["replicas"]) == 2
        assert all(
            replica["state"] == SYNCED for replica in status[0]["replicas"]
        )

    def test_query_stream_over_a_replica_group(self, routed):
        router, _, primary, summaries = routed
        queries = summaries[:3]
        first = [router.knn(query, 4) for query in queries]
        for query, result in zip(queries, first):
            want = primary.knn(query, 4)
            assert result.videos == want.videos
            assert result.scores == want.scores
            assert result.coverage.complete
            assert result.stats.page_requests > 0
        # Affinity sends a repeat to the copy whose result cache holds it.
        for query, before in zip(queries, first):
            again = router.knn(query, 4)
            assert again.videos == before.videos
            assert again.stats.page_requests == 0
