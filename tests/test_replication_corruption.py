"""Shipped-segment corruption: the replica must refuse, never diverge.

Every test here breaks the segment stream a different way — truncated
frames, torn (bit-flipped) payloads, reordered sequence numbers, a
segment re-framed over a forged token chain — and asserts the same
contract each time: the replica refuses the segment, demotes itself to
``NEEDS_BOOTSTRAP`` instead of serving, and comes back via re-bootstrap
with a verified token.  The invariant under test is absolute: a replica
never answers a query from a state whose content token the primary
never had.
"""

from __future__ import annotations

import pytest

from tests.test_replication import EPSILON, make_primary, make_summaries

from repro.replication import (
    NEEDS_BOOTSTRAP,
    SYNCED,
    ReplicaSet,
    ReplicaShard,
    ReplicaUnavailable,
    SealedSegment,
    decode_segment,
    encode_segment,
)
from repro.replication.shipper import WalShipper, database_token
from repro.utils.clock import VirtualClock


@pytest.fixture
def shipping(tmp_path):
    """A checkpointed primary, its shipper, one synced replica, and two
    pending (unapplied) encoded segments."""
    summaries = make_summaries()
    primary = make_primary(tmp_path / "primary", summaries[:8])
    clock = VirtualClock()
    shipper = WalShipper(primary, clock=clock)
    replica = ReplicaShard(
        0, tmp_path / "replica", epsilon=EPSILON, clock=clock
    )
    replica.bootstrap(shipper.snapshot())
    base_seq = replica.applied_seq
    for summary in summaries[8:10]:
        primary.add_summary(summary)
        primary.checkpoint()
    pending = shipper.segments_since(base_seq)
    assert len(pending) >= 2
    yield primary, shipper, replica, pending, summaries
    replica.close()
    primary.close()


def assert_refused_and_demoted(replica, encoded, match):
    refused_before = replica.segments_refused
    token_before = replica.token
    assert not replica.apply_segment(encoded)
    assert replica.state == NEEDS_BOOTSTRAP
    assert replica.segments_refused == refused_before + 1
    assert match in (replica.last_error or "")
    # The verified position never advances on a refusal.
    assert replica.token == token_before


class TestSegmentDefects:
    def test_truncated_segment_is_refused(self, shipping):
        _, _, replica, pending, _ = shipping
        assert_refused_and_demoted(replica, pending[0][:-7], "bad frame")

    def test_torn_payload_is_refused(self, shipping):
        _, _, replica, pending, _ = shipping
        torn = bytearray(pending[0])
        torn[len(torn) // 2] ^= 0x40  # one flipped bit mid-payload
        assert_refused_and_demoted(replica, bytes(torn), "bad frame")

    def test_reordered_segments_are_refused(self, shipping):
        _, _, replica, pending, _ = shipping
        # Applying the second segment first is a sequence gap.
        assert_refused_and_demoted(replica, pending[1], "sequence gap")

    def test_replayed_segment_is_refused(self, shipping):
        _, _, replica, pending, _ = shipping
        assert replica.apply_segment(pending[0])
        assert_refused_and_demoted(replica, pending[0], "sequence gap")

    def test_forged_token_chain_is_refused(self, shipping):
        _, _, replica, pending, _ = shipping
        segment = decode_segment(pending[0])
        forged = encode_segment(
            SealedSegment(
                seq=segment.seq,
                base_token="11" * 16,
                after_token=segment.after_token,
                payload=segment.payload,
            )
        )
        # The frame itself is valid — only the end-to-end token chain
        # catches a segment built over a history the replica never had.
        assert_refused_and_demoted(replica, forged, "base token mismatch")

    def test_lying_after_token_blocks_serving(self, shipping):
        _, _, replica, pending, _ = shipping
        segment = decode_segment(pending[0])
        forged = encode_segment(
            SealedSegment(
                seq=segment.seq,
                base_token=segment.base_token,
                after_token="22" * 16,
                payload=segment.payload,
            )
        )
        # Frame, sequence and base all check out; the lie is only
        # detectable after the redo, and it must block serving.
        assert_refused_and_demoted(replica, forged, "after token mismatch")
        with pytest.raises(ReplicaUnavailable):
            replica.knn(shipping[4][0], 3)

    def test_demoted_replica_refuses_queries(self, shipping):
        _, _, replica, pending, summaries = shipping
        assert not replica.apply_segment(pending[0][:-1])
        with pytest.raises(ReplicaUnavailable, match="needs_bootstrap"):
            replica.knn(summaries[0], 3)


class TestRecovery:
    def test_rebootstrap_after_corruption_restores_exact_state(
        self, shipping
    ):
        primary, shipper, replica, pending, summaries = shipping
        assert not replica.apply_segment(pending[0][:-3])
        assert replica.state == NEEDS_BOOTSTRAP

        replica.bootstrap(shipper.snapshot())
        assert replica.state == SYNCED
        assert replica.token == shipper.token
        assert replica.token == database_token(primary.database)
        for query in summaries[:3]:
            want = primary.knn(query, 4)
            got = replica.knn(query, 4)
            assert got.videos == want.videos
            assert got.scores == want.scores

    def test_group_sync_rebootstraps_a_poisoned_replica(self, tmp_path):
        summaries = make_summaries()
        clock = VirtualClock()
        primary = make_primary(tmp_path / "primary", summaries[:8])
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
        group.add_summary(summaries[8])
        group.checkpoint()

        # Poison one replica with a torn copy of its next segment.
        victim = group.replicas[0]
        encoded = group.shipper.segments_since(victim.applied_seq)[0]
        assert not victim.apply_segment(encoded[:-5])
        assert victim.state == NEEDS_BOOTSTRAP

        tally = group.sync()
        assert tally["bootstrapped"] == 1
        status = group.replication_status()
        for replica_status in status["replicas"]:
            assert replica_status["state"] == SYNCED
            assert replica_status["token"] == status["shipper_token"]
        for query in summaries[:4]:
            want = group.primary.knn(query, 4)
            for attempt in range(3):
                got = group.knn(query, 4, attempt=attempt)
                assert got.videos == want.videos
                assert got.scores == want.scores
        group.close()
