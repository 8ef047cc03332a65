"""Replica bit-identity over the golden corpora.

A WAL-shipped replica is supposed to be indistinguishable from its
primary: same ranked videos, the *exact* score floats, and the same
logical cost signature (the copies are byte-identical, so even cold
physical I/O counts match).  This is checked over the PR 7 golden
corpora at every stage of a replica's life — freshly bootstrapped,
after segment catch-up from live writes, and after a mid-stream
re-bootstrap forced by a torn segment — so any divergence between the
redo path and the primary's own write path shows up as a failing seed
rather than a subtly different ranking in production.
"""

from __future__ import annotations

import pytest

from tests.test_golden_rankings import BUFFER_CAPACITY, EPSILON, K, SEEDS, build_corpus

from repro.replication import ReplicaSet, ReplicaShard
from repro.shard.shard import Shard
from repro.utils.clock import VirtualClock
from repro.utils.counters import CostCounters


def logical_signature(counters: CostCounters) -> dict:
    """The deterministic part of a counter bundle (drops the wall-clock
    stage timings the engine records under ``extra``)."""
    return {
        key: value
        for key, value in counters.snapshot().items()
        if not key.endswith("_s")
    }


def fresh_pool(*copies) -> None:
    """Start each copy's engine on a fresh buffer pool, the cold baseline
    of a cost signature (a shard contract ``knn`` has no ``cold=``)."""
    for copy in copies:
        shard = copy._serving_shard() if isinstance(copy, ReplicaShard) else copy
        shard.engine().refresh()


def assert_copies_agree(group, queries):
    """Every copy answers every query bit-identically to the primary."""
    for query in queries:
        reference_counters = CostCounters()
        fresh_pool(group.primary)
        reference = group.primary.knn(
            query, K, out_counters=reference_counters
        )
        for replica in group.replicas:
            counters = CostCounters()
            fresh_pool(replica)
            result = replica.knn(query, K, out_counters=counters)
            assert result.videos == reference.videos
            # repr pins every bit of the float64 scores.
            assert [repr(s) for s in result.scores] == [
                repr(s) for s in reference.scores
            ]
            assert logical_signature(counters) == logical_signature(
                reference_counters
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_rankings_bit_identical_through_rebootstrap(seed, tmp_path):
    summaries, _ = build_corpus(seed)
    clock = VirtualClock()
    primary = Shard(
        0,
        epsilon=EPSILON,
        path=str(tmp_path / "primary"),
        buffer_capacity=BUFFER_CAPACITY,
    )
    for summary in summaries[:-2]:
        primary.add_summary(summary)
    primary.checkpoint()

    group = ReplicaSet(primary, clock=clock)
    for index in range(2):
        group.attach_replica(
            ReplicaShard(
                0,
                tmp_path / f"replica-{index}",
                epsilon=EPSILON,
                clock=clock,
                buffer_capacity=BUFFER_CAPACITY,
            )
        )
    try:
        # Stage 1: freshly bootstrapped copies.
        assert_copies_agree(group, summaries)

        # Stage 2: a live write ships as segments; one replica receives
        # a torn copy mid-stream and demotes itself.
        group.primary.add_summary(summaries[-2])
        group.primary.checkpoint()
        victim = group.replicas[0]
        torn = group.shipper.segments_since(victim.applied_seq)[0][:-3]
        assert not victim.apply_segment(torn)

        # sync() re-bootstraps the victim and catches the other replica
        # up by segment replay — both paths must land on the same bits.
        tally = group.sync()
        assert tally["bootstrapped"] == 1
        assert tally["applied"] >= 1
        assert_copies_agree(group, summaries)

        # Stage 3: one more shipped write after the re-bootstrap, caught
        # up by replay on both replicas.
        group.primary.add_summary(summaries[-1])
        group.primary.checkpoint()
        tally = group.sync()
        assert tally["bootstrapped"] == 0
        assert tally["applied"] >= 2
        status = group.replication_status()
        for replica_status in status["replicas"]:
            assert replica_status["token"] == status["shipper_token"]
        assert_copies_agree(group, summaries)
    finally:
        group.close()
