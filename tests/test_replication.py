"""Tests for repro.replication (WAL shipping, replicas, replica sets).

The protocol tests pin the sealed-segment stream: every commit seals
exactly one segment, tokens form a hash chain over index states, and a
snapshot lands a replica at an exact verified ``(seq, token)``.  The
serving tests pin the routing contract the router relies on: affinity
keeps a video's queries on one home copy, attempt ordinals walk retries
to *different* copies, breaker-tripped replicas fall back to the
primary, and — the one invariant everything else leans on — every copy
answers every query bit-identically to the primary.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.core.summarize import summarize_video
from repro.replication import (
    NEEDS_BOOTSTRAP,
    SYNCED,
    ReplicaSet,
    ReplicaShard,
    ReplicaUnavailable,
    SealedSegment,
    SegmentLog,
    WalShipper,
    decode_segment,
    encode_segment,
)
from repro.replication.shipper import database_token
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


class TestSegmentFrame:
    def test_round_trip(self):
        segment = SealedSegment(
            seq=3, base_token="ab" * 16, after_token="cd" * 16, payload=b"xyz"
        )
        assert decode_segment(encode_segment(segment)) == segment

    def test_rejects_bad_tokens_and_seq(self):
        with pytest.raises(ValueError):
            SealedSegment(
                seq=-1, base_token="0" * 32, after_token="0" * 32, payload=b""
            )
        with pytest.raises(ValueError):
            SealedSegment(
                seq=0, base_token="zz" * 16, after_token="0" * 32, payload=b""
            )
        with pytest.raises(ValueError):
            SealedSegment(
                seq=0, base_token="short", after_token="0" * 32, payload=b""
            )


class TestSegmentChainVerify:
    """The replica's apply gauntlet is the stream's only chain verifier:
    a gap, a broken hash chain or a torn tail is refused before it can
    apply, and a valid chain lands exactly on its after-token."""

    @pytest.fixture
    def chain(self, tmp_path):
        """A synced replica and the next three sealed segments."""
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries[:8])
        shipper = WalShipper(primary, clock=VirtualClock())
        replica = ReplicaShard(
            0, tmp_path / "replica", epsilon=EPSILON, clock=VirtualClock()
        )
        replica.bootstrap(shipper.snapshot())
        for summary in summaries[8:11]:
            primary.add_summary(summary)
            primary.checkpoint()
        segments = shipper.segments_since(replica.applied_seq)
        assert len(segments) == 3
        yield shipper, replica, segments
        replica.close()
        primary.close()

    def test_valid_chain_summary(self, chain):
        shipper, replica, segments = chain
        first = decode_segment(segments[0])
        assert first.base_token == replica.token
        for encoded in segments:
            assert replica.apply_segment(encoded)
        assert replica.segments_applied == 3
        assert replica.applied_seq == first.seq + 2 == shipper.seq
        assert replica.token == decode_segment(segments[-1]).after_token
        assert replica.token == shipper.token

    def test_empty_stream_is_a_valid_zero_chain(self, tmp_path):
        group = ReplicaSet(
            make_primary(tmp_path / "primary", make_summaries()),
            clock=VirtualClock(),
        )
        group.attach_replica(
            ReplicaShard(
                0, tmp_path / "replica", epsilon=EPSILON, clock=VirtualClock()
            )
        )
        assert group.sync() == {"applied": 0, "bootstrapped": 0}
        assert group.replicas[0].token == group.shipper.token
        group.close()

    def test_sequence_gap_raises(self, chain):
        _, replica, segments = chain
        assert replica.apply_segment(segments[0])
        assert not replica.apply_segment(segments[2])  # skips segment 2
        assert replica.state == NEEDS_BOOTSTRAP
        assert "sequence gap" in replica.last_error

    def test_broken_hash_chain_raises(self, chain):
        _, replica, segments = chain
        assert replica.apply_segment(segments[0])
        second = decode_segment(segments[1])
        forked = SealedSegment(
            seq=second.seq,
            base_token="ee" * 16,  # not the first segment's after token
            after_token=second.after_token,
            payload=second.payload,
        )
        assert not replica.apply_segment(encode_segment(forked))
        assert "base token mismatch" in replica.last_error

    def test_truncated_tail_raises(self, chain):
        _, replica, segments = chain
        assert replica.apply_segment(segments[0])
        assert not replica.apply_segment(segments[1][:-3])
        assert "bad frame" in replica.last_error
        # The verified position stays on the last whole segment.
        assert replica.token == decode_segment(segments[0]).after_token


class TestSegmentLog:
    def test_since_returns_suffix_in_order(self):
        log = SegmentLog()
        for seq in (1, 2, 3):
            log.append(seq, bytes([seq]))
        assert log.since(0) == [b"\x01", b"\x02", b"\x03"]
        assert log.since(2) == [b"\x03"]
        assert log.since(3) == []
        assert log.latest_seq == 3

    def test_truncated_history_returns_none(self):
        log = SegmentLog()
        for seq in (1, 2, 3, 4):
            log.append(seq, bytes([seq]))
        log.trim(2)
        assert len(log) == 2
        # A replica at seq 1 needs segment 2, which was truncated away.
        assert log.since(1) is None
        assert log.since(2) == [b"\x03", b"\x04"]

    def test_rejects_non_ascending_seq(self):
        log = SegmentLog()
        log.append(5, b"x")
        with pytest.raises(ValueError, match="not after"):
            log.append(5, b"y")


class TestWalShipper:
    def test_every_commit_seals_one_chained_segment(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries[:6])
        clock = VirtualClock()
        shipper = WalShipper(primary, clock=clock)
        assert shipper.seq == 0
        base = shipper.token
        assert base == database_token(primary.database)

        primary.add_summary(summaries[6])
        primary.checkpoint()
        primary.add_summary(summaries[7])
        primary.checkpoint()
        assert shipper.seq == len(shipper.log)

        # The stream is a hash chain: each base is the previous after.
        token = base
        for encoded in shipper.segments_since(0):
            segment = decode_segment(encoded)
            assert segment.base_token == token
            token = segment.after_token
        assert token == shipper.token
        assert token == database_token(primary.database)
        primary.close()

    def test_snapshot_checkpoints_for_an_exact_seq(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries[:6])
        shipper = WalShipper(primary, clock=VirtualClock())
        primary.add_summary(summaries[6])  # uncheckpointed tail
        snapshot = shipper.snapshot()
        # The cut sealed the pending work, so the image is current.
        assert snapshot.seq == shipper.seq
        assert snapshot.token == shipper.token
        assert snapshot.files["index.btree"]
        assert snapshot.files["db.json"]
        primary.close()

    def test_requires_durable_primary(self):
        shard = Shard(0, epsilon=EPSILON)  # in-memory
        with pytest.raises(ValueError, match="durable"):
            WalShipper(shard, clock=VirtualClock())


class TestReplicaShard:
    def test_bootstrap_restores_exact_state(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries)
        shipper = WalShipper(primary, clock=VirtualClock())
        replica = ReplicaShard(
            0, tmp_path / "replica", epsilon=EPSILON, clock=VirtualClock()
        )
        assert replica.state == NEEDS_BOOTSTRAP
        with pytest.raises(ReplicaUnavailable):
            replica.knn(summaries[0], 3)

        replica.bootstrap(shipper.snapshot())
        assert replica.state == SYNCED
        assert replica.applied_seq == shipper.seq
        assert replica.token == shipper.token
        assert replica.video_ids() == primary.video_ids()

        want = primary.knn(summaries[0], 3)
        got = replica.knn(summaries[0], 3)
        assert got.videos == want.videos
        assert got.scores == want.scores
        primary.close()
        replica.close()

    def test_apply_segment_advances_seq_and_token(self, tmp_path):
        summaries = make_summaries()
        primary = make_primary(tmp_path / "primary", summaries[:8])
        shipper = WalShipper(primary, clock=VirtualClock())
        replica = ReplicaShard(
            0, tmp_path / "replica", epsilon=EPSILON, clock=VirtualClock()
        )
        replica.bootstrap(shipper.snapshot())
        baseline_seq = replica.applied_seq

        primary.add_summary(summaries[8])
        primary.checkpoint()
        pending = shipper.segments_since(baseline_seq)
        assert pending
        for encoded in pending:
            assert replica.apply_segment(encoded)
        assert replica.state == SYNCED
        assert replica.applied_seq == shipper.seq
        assert replica.token == shipper.token
        assert replica.token == database_token(primary.database)
        assert replica.video_ids() == primary.video_ids()
        assert replica.segments_applied == len(pending)
        primary.close()
        replica.close()


class TestReplicaSet:
    def make_group(self, tmp_path, summaries, replicas=2):
        clock = VirtualClock()
        primary = make_primary(tmp_path / "primary", summaries)
        group = ReplicaSet(primary, clock=clock)
        for index in range(replicas):
            group.attach_replica(
                ReplicaShard(
                    0,
                    tmp_path / f"replica-{index}",
                    epsilon=EPSILON,
                    clock=clock,
                )
            )
        return group, clock

    def test_attach_bootstraps_to_current_state(self, tmp_path):
        summaries = make_summaries()
        group, _ = self.make_group(tmp_path, summaries)
        status = group.replication_status()
        assert len(status["replicas"]) == 2
        for replica in status["replicas"]:
            assert replica["state"] == SYNCED
            assert replica["token"] == status["shipper_token"]
        group.close()

    def test_write_then_sync_catches_replicas_up(self, tmp_path):
        summaries = make_summaries()
        group, _ = self.make_group(tmp_path, summaries[:9])
        group.add_summary(summaries[9])
        group.checkpoint()
        tally = group.sync()
        assert tally["applied"] > 0
        assert tally["bootstrapped"] == 0
        for replica in group.replicas:
            assert replica.state == SYNCED
            assert replica.token == group.shipper.token
            assert replica.video_ids() == group.primary.video_ids()
        group.close()

    def test_read_waits_while_sync_applies_a_segment(
        self, tmp_path, monkeypatch
    ):
        """Regression: sync() applied segments without the replica's
        serving gate, so a read routed to the replica ran on the old
        engine over pages the segment had just rewritten."""
        summaries = make_summaries()
        group, _ = self.make_group(tmp_path, summaries[:9], replicas=1)
        replica = group.replicas[0]
        query = summaries[9]
        attempt = next(
            a for a in (0, 1) if group._admitted(a, query.video_id).target
            is replica
        )
        group.add_summary(query)
        group.checkpoint()

        database = replica._shard.database
        reload = database.reload
        paused, release = threading.Event(), threading.Event()

        def paused_reload():
            # The segment's page images are on disk; the replica's
            # in-memory view is not rebuilt yet.
            paused.set()
            assert release.wait(10.0)
            reload()

        monkeypatch.setattr(database, "reload", paused_reload)
        syncer = threading.Thread(target=group.sync)
        syncer.start()
        assert paused.wait(10.0)
        answers, done = [], threading.Event()

        def read():
            try:
                answers.append(group.knn(query, 4, attempt=attempt))
            finally:
                done.set()

        reader = threading.Thread(target=read)
        reader.start()
        try:
            assert not done.wait(0.5), "read ran on a half-applied segment"
        finally:
            release.set()
            syncer.join(10.0)
            reader.join(10.0)
        assert not syncer.is_alive() and not reader.is_alive()
        assert replica.state == SYNCED
        want = group.primary.knn(query, 4)
        assert want.videos[0] == query.video_id
        assert answers[0].videos == want.videos
        assert answers[0].scores == want.scores
        group.close()

    def test_truncated_log_forces_rebootstrap(self, tmp_path):
        summaries = make_summaries()
        group, _ = self.make_group(tmp_path, summaries[:8])
        for summary in summaries[8:10]:
            group.add_summary(summary)
            group.checkpoint()
        # Trim away the suffix the replicas need.
        group.shipper.log.trim(group.shipper.seq - 1)
        tally = group.sync()
        assert tally["bootstrapped"] == 2
        for replica in group.replicas:
            assert replica.state == SYNCED
            assert replica.token == group.shipper.token
        group.close()

    def test_affinity_keeps_a_video_on_one_copy(self, tmp_path):
        summaries = make_summaries()
        group, _ = self.make_group(tmp_path, summaries)
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
        group, _ = self.make_group(tmp_path, summaries)
        key = summaries[0].video_id
        targets = {
            id(group._admitted(attempt, key).target) for attempt in range(3)
        }
        assert len(targets) == 3, "retries must reach different copies"
        group.close()

    def test_all_replicas_tripped_falls_back_to_primary(self, tmp_path):
        summaries = make_summaries()
        group, clock = self.make_group(tmp_path, summaries)
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
        group, _ = self.make_group(tmp_path, summaries)
        for query in summaries:
            want = group.primary.knn(query, 4)
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
            clock=clock,
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
        group, _ = self.make_group(tmp_path, summaries)
        for attempt in range(3):
            group.knn(summaries[0], 3, attempt=attempt)
        assert group.primary.queries_served == 1
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
                ReplicaShard(
                    0,
                    tmp_path / f"replica-{index}",
                    epsilon=EPSILON,
                    clock=clock,
                )
            )
        router = ShardedVideoDatabase.from_shards(
            [group], epsilon=EPSILON, clock=clock
        )
        yield router, group, summaries
        router.close()

    def test_strict_and_resilient_paths_agree(self, routed):
        from repro.shard.resilience import FaultPolicy

        router, _, summaries = routed
        for query in summaries[:4]:
            strict = router.knn(query, 4)
            resilient = router.knn(query, 4, fault_policy=FaultPolicy())
            assert strict.videos == resilient.videos
            assert strict.scores == resilient.scores

    def test_router_telemetry_sees_every_copy(self, routed):
        router, group, summaries = routed
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
        router, group, summaries = routed
        queries = summaries[:3]
        first = [router.knn(query, 4) for query in queries]
        for query, result in zip(queries, first):
            want = group.primary.knn(query, 4)
            assert result.videos == want.videos
            assert result.scores == want.scores
            assert result.coverage.complete
            assert result.stats.page_requests > 0
        # Affinity sends a repeat to the copy whose result cache holds it.
        for query, before in zip(queries, first):
            again = router.knn(query, 4)
            assert again.videos == before.videos
            assert again.stats.page_requests == 0
