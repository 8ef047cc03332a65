"""One conformance suite for the five shard-shaped classes.

``repro.shard.contract`` declares what the router, the shard server and
the attempt loop rely on; every implementer runs the same checks here
against a plain :class:`Shard` holding the same content.  The bar is the
repo's usual one: the same videos, the same score floats (``==``) and
the same logical cost signature, whichever class answers.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.replication import ReplicaSet, ReplicaShard
from repro.serve.shard_server import ShardServer
from repro.serve.transport import RemoteShard
from repro.shard.contract import ShardLike, WritableShard
from repro.shard.faults import FaultInjectingShard, ShardFaultInjector
from repro.shard.resilience import (
    FaultPolicy,
    RetryPolicy,
    ShardDown,
    ShardTimeout,
)
from repro.shard.router import ShardedVideoDatabase
from repro.utils.clock import Deadline, VirtualClock
from repro.utils.counters import CostCounters
from tests.test_golden_replication import logical_signature
from tests.test_replication import EPSILON, make_primary, make_summaries
from tests.threshold_recipe import at_least

K = 4
STATUS_KEYS = {"shard_id", "videos", "queries_served", "replication"}
KINDS = ("shard", "remote", "replica", "replica_set", "fault_injecting")
UNREPLICATED = {"shard", "remote", "fault_injecting"}
WRITABLE = {"shard", "replica_set", "fault_injecting"}


def make_replica(path, clock) -> ReplicaShard:
    return ReplicaShard(0, path, epsilon=EPSILON, clock=clock)


def serve(shard_like, clock):
    """A thread-mode server over ``shard_like`` and its remote proxy."""
    server = ShardServer(shard_like, clock=clock)
    host, port = server.run_in_thread()
    return server, RemoteShard(0, host, port)


def stop(server, remote) -> None:
    remote.close()
    server.drain()  # closes the served shard-like
    assert server.wait_closed(10.0)


@pytest.fixture(scope="module")
def summaries():
    return make_summaries()


@pytest.fixture(params=KINDS)
def subject(request, tmp_path, summaries):
    """``(kind, shard-like, reference)`` over identical durable content."""
    kind = request.param
    clock = VirtualClock()
    reference = make_primary(tmp_path / "reference", summaries)
    primary = make_primary(tmp_path / "primary", summaries)
    server = None
    if kind == "shard":
        shard_like = primary
    elif kind == "fault_injecting":
        shard_like = FaultInjectingShard(
            primary, ShardFaultInjector({}), clock=clock
        )
    elif kind == "remote":
        server, shard_like = serve(primary, clock)
    else:
        group = ReplicaSet(primary, clock=clock)
        replica = make_replica(tmp_path / "replica", clock)
        group.attach_replica(replica)
        shard_like = group if kind == "replica_set" else replica
    try:
        yield kind, shard_like, reference
    finally:
        if server is not None:
            stop(server, shard_like)
        elif kind == "replica":
            group.close()
        else:
            shard_like.close()
        reference.close()


class TestConformance:
    def test_declares_the_contract(self, subject):
        kind, shard_like, _ = subject
        assert isinstance(shard_like, ShardLike)
        assert isinstance(shard_like, WritableShard) == (kind in WRITABLE)

    def test_content_surface_agrees(self, subject, summaries):
        _, shard_like, reference = subject
        assert shard_like.shard_id == reference.shard_id == 0
        assert len(shard_like) == len(reference)
        assert shard_like.video_ids() == reference.video_ids()
        for query in summaries[:4]:
            want_bundle, got_bundle = CostCounters(), CostCounters()
            want = reference.may_contain(query, counters=want_bundle)
            assert shard_like.may_contain(query, counters=got_bundle) == want
            # Requests are logical; whether one is a physical read
            # depends on how warm that copy's pool happens to be.
            assert got_bundle.page_requests == want_bundle.page_requests
            assert got_bundle.btree_node_visits == want_bundle.btree_node_visits

    def test_knn_matches_the_plain_shard(self, subject, summaries):
        _, shard_like, reference = subject
        for query in summaries[:4]:
            for method in ("composed", "naive"):
                want_bundle, got_bundle = CostCounters(), CostCounters()
                want = reference.knn(
                    query, K, method=method, cold=True, out_counters=want_bundle
                )
                got = shard_like.knn(
                    query, K, method=method, cold=True, out_counters=got_bundle
                )
                assert got.videos == want.videos
                assert got.scores == want.scores
                assert logical_signature(got_bundle) == logical_signature(
                    want_bundle
                )

    def test_similarity_range_matches_the_plain_shard(self, subject, summaries):
        """The threshold recipe: a full ranking cut at the threshold."""
        _, shard_like, reference = subject
        for query in summaries[:4]:
            want_bundle, got_bundle = CostCounters(), CostCounters()
            want = reference.knn(
                query, len(reference), cold=True, out_counters=want_bundle
            )
            got = shard_like.knn(
                query, len(shard_like), cold=True, out_counters=got_bundle
            )
            assert at_least(got, 0.1) == at_least(want, 0.1)
            assert logical_signature(got_bundle) == logical_signature(want_bundle)

    def test_every_implementer_accepts_attempt(self, subject, summaries):
        _, shard_like, reference = subject
        query = summaries[0]
        want = reference.knn(query, K)
        for attempt in range(3):
            got = shard_like.knn(query, K, attempt=attempt)
            assert (got.videos, got.scores) == (want.videos, want.scores)

    def test_spent_deadline_refused_before_any_page_is_read(
        self, subject, summaries
    ):
        _, shard_like, _ = subject
        spent = Deadline(VirtualClock(), 0.0)
        bundle = CostCounters()
        with pytest.raises(ShardTimeout):
            shard_like.knn(summaries[0], K, out_counters=bundle, deadline=spent)
        assert bundle.page_requests == 0
        assert bundle.page_reads == 0

    def test_pruned_answer_matches_the_plain_shard(self, subject, summaries):
        """A query translated past every stored key is answered by the
        key-bounds proof alone, identically whichever class answers."""
        _, shard_like, reference = subject
        first = summaries[0]
        far = dataclasses.replace(
            first,
            video_id=999,
            vitris=tuple(
                dataclasses.replace(vitri, position=vitri.position + 5.0)
                for vitri in first.vitris
            ),
        )
        served = shard_like.status()["queries_served"]
        want_bundle, got_bundle = CostCounters(), CostCounters()
        want = reference.knn(far, K, out_counters=want_bundle)
        got = shard_like.knn(far, K, out_counters=got_bundle)
        assert want.pruned and got.pruned
        assert (got.videos, got.scores) == (want.videos, want.scores) == ((), ())
        # The bundle is the proof's reads: logical counts agree,
        # physical ones depend on how warm each copy's pool is.
        assert got_bundle.page_requests == want_bundle.page_requests
        assert got_bundle.btree_node_visits == want_bundle.btree_node_visits
        assert got_bundle.records_scanned == 0
        assert shard_like.status()["queries_served"] == served

    def test_status_carries_the_contract_keys(self, subject, summaries):
        kind, shard_like, reference = subject
        before = shard_like.status()
        assert STATUS_KEYS <= before.keys()
        assert before["shard_id"] == 0
        assert before["videos"] == len(reference)
        assert (before["replication"] is None) == (kind in UNREPLICATED)
        shard_like.knn(summaries[0], K)
        assert shard_like.status()["queries_served"] == before["queries_served"] + 1


class TestThresholdServedByTheEngine:
    """The threshold recipe through ``Shard.knn``: an engine L1 hit
    reads no page, and an insert refreshes the snapshot token."""

    def test_repeats_hit_and_inserts_are_seen(self, tmp_path, summaries):
        shard = make_primary(tmp_path / "shard", summaries[:-1])
        newcomer = summaries[-1]
        try:
            before = shard.knn(newcomer, len(shard))
            assert newcomer.video_id not in at_least(before, 0.05)[0]
            bundle = CostCounters()
            again = shard.knn(newcomer, len(shard), out_counters=bundle)
            assert again is before
            assert shard.engine().cache_hits == 1
            assert bundle.page_requests == 0

            token = shard.engine().snapshot_token
            shard.add_summary(newcomer)
            videos, scores = at_least(shard.knn(newcomer, len(shard)), 0.05)
            assert shard.engine().snapshot_token != token
            assert videos[0] == newcomer.video_id
            assert scores[0] == 1.0
        finally:
            shard.close()


class TestAttemptOverTheWire:
    """The dispatch ordinal must survive the TCP hop: behind a shard
    server, retries of one query reach *different* copies."""

    @pytest.fixture
    def served_group(self, tmp_path, summaries):
        clock = VirtualClock()
        group = ReplicaSet(make_primary(tmp_path / "primary", summaries), clock=clock)
        for index in range(2):
            group.attach_replica(make_replica(tmp_path / f"replica-{index}", clock))
        server, remote = serve(group, clock)
        try:
            yield group, remote, clock
        finally:
            stop(server, remote)

    @staticmethod
    def served_per_copy(group) -> list[int]:
        return [group.primary.queries_served] + [
            replica.status()["queries_served"] for replica in group.replicas
        ]

    def test_three_dispatches_reach_three_copies(self, served_group, summaries):
        group, remote, _ = served_group
        for attempt in range(3):
            remote.knn(summaries[0], K, attempt=attempt)
        assert self.served_per_copy(group) == [1, 1, 1]

    def test_retry_after_a_faulted_affine_copy_lands_elsewhere(
        self, served_group, summaries, monkeypatch
    ):
        group, remote, clock = served_group
        query = summaries[0]
        want = group.primary.knn(query, K)
        affine = group._admitted(0, query.video_id).target

        def down(*args, **kwargs):
            raise ShardDown("injected: the affine copy is down")

        monkeypatch.setattr(affine, "knn", down)
        router = ShardedVideoDatabase.from_shards(
            [remote], epsilon=EPSILON, clock=clock
        )
        got = router.knn(
            query,
            K,
            fault_policy=FaultPolicy(retry=RetryPolicy(max_attempts=2)),
        )
        assert got.videos == want.videos
        assert got.scores == want.scores
        assert got.coverage.complete
        assert router.fleet_health()[0]["retries"] == 1
        # The same call reports the group's telemetry across the wire.
        assert router.replication_status() == [group.replication_status()]
