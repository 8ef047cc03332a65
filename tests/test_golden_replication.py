"""Replica bit-identity over the golden corpora.

A replica restored from a checkpoint copy is supposed to be
indistinguishable from its primary: same ranked videos, the *exact*
score floats, and the same logical cost signature (the copies are
byte-identical, so even cold physical I/O counts match).  This is
checked over the golden corpora, so any divergence between the restore
path and the primary's own files shows up as a failing seed rather than
a subtly different ranking in production.
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


def assert_copies_agree(primary, replicas, queries):
    """Every copy answers every query bit-identically to the primary."""
    for query in queries:
        reference_counters = CostCounters()
        fresh_pool(primary)
        reference = primary.knn(query, K, out_counters=reference_counters)
        for replica in replicas:
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
def test_restored_replicas_bit_identical_to_primary(seed, tmp_path):
    summaries, _ = build_corpus(seed)
    primary = Shard(
        0,
        epsilon=EPSILON,
        path=str(tmp_path / "primary"),
        buffer_capacity=BUFFER_CAPACITY,
    )
    for summary in summaries:
        primary.add_summary(summary)
    primary.checkpoint()

    group = ReplicaSet(primary, clock=VirtualClock())
    for index in range(2):
        group.attach_replica(
            ReplicaShard(
                0,
                tmp_path / f"replica-{index}",
                epsilon=EPSILON,
                buffer_capacity=BUFFER_CAPACITY,
            )
        )
    try:
        assert_copies_agree(primary, group.replicas, summaries)
    finally:
        group.close()
