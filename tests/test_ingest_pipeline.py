"""Tests for the streaming ingest pipeline (repro.ingest).

Admission must shed with *typed* errors before doing any work; commits
must be whole batches (one WAL transaction / one shipped segment each);
the worker must commit a partial batch on its next iteration; and a
drift-triggered rebuild must leave the target serving oracle-exact
rankings.
"""

import numpy as np
import pytest

from repro.core.index import VitriIndex
from repro.core.summarize import summarize_video
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.ingest import (
    DriftMonitor,
    IngestBackpressure,
    IngestDraining,
    IngestFailed,
    IngestOverloaded,
    IngestPipeline,
)
from repro.replication import ReplicaSet, ReplicaShard
from repro.shard.router import ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.utils.clock import VirtualClock

EPSILON = 0.3
DIM = 8


def make_summaries(count: int = 12, *, seed: int = 7, first_id: int = 0):
    config = DatasetConfig(
        dim=DIM,
        num_families=2,
        family_size=3,
        num_distractors=max(count - 6, 1),
    )
    dataset = generate_dataset(config, seed=seed)
    return [
        summarize_video(first_id + i, dataset.frames(i), EPSILON, seed=first_id + i)
        for i in range(min(count, dataset.num_videos))
    ]


def rotated_summaries(count: int, *, seed: int, first_id: int):
    """Summaries from a rolled frame space — the drifted stream tail."""
    config = DatasetConfig(
        dim=DIM,
        num_families=2,
        family_size=3,
        num_distractors=max(count - 6, 1),
    )
    dataset = generate_dataset(config, seed=seed)
    rotation = np.roll(np.eye(DIM), 3, axis=0)
    return [
        summarize_video(
            first_id + i,
            dataset.frames(i) @ rotation.T,
            EPSILON,
            seed=first_id + i,
        )
        for i in range(min(count, dataset.num_videos))
    ]


class TestValidation:
    def test_rejects_target_without_add_summary(self):
        with pytest.raises(TypeError, match="add_summary"):
            IngestPipeline(object())

    def test_rejects_bad_knobs(self):
        shard = Shard(0, epsilon=EPSILON)
        with pytest.raises(ValueError, match="batch_size"):
            IngestPipeline(shard, batch_size=0)
        with pytest.raises(ValueError, match="max_queue"):
            IngestPipeline(shard, max_queue=0)
        with pytest.raises(TypeError, match="DriftMonitor"):
            IngestPipeline(shard, drift=object())
        with pytest.raises(TypeError, match="Clock"):
            IngestPipeline(shard, clock=object())


class TestAdmission:
    def test_full_queue_sheds_typed_overload(self):
        pipeline = IngestPipeline(Shard(0, epsilon=EPSILON), max_queue=2)
        summaries = make_summaries(3)
        pipeline.submit(summaries[0])
        pipeline.submit(summaries[1])
        with pytest.raises(IngestOverloaded, match="back off"):
            pipeline.submit(summaries[2])
        # The shed is typed-retriable and costs nothing but the retry.
        assert issubclass(IngestOverloaded, IngestBackpressure)
        assert pipeline.depth == 2
        assert pipeline.submitted == 2
        assert pipeline.shed == 1

    def test_rejects_non_summary_before_queueing(self):
        pipeline = IngestPipeline(Shard(0, epsilon=EPSILON))
        with pytest.raises(TypeError, match="VideoSummary"):
            pipeline.submit("not a summary")
        assert pipeline.depth == 0

    def test_draining_pipeline_sheds_typed_refusal(self):
        pipeline = IngestPipeline(Shard(0, epsilon=EPSILON))
        pipeline.drain()
        with pytest.raises(IngestDraining, match="draining"):
            pipeline.submit(make_summaries(1)[0])
        assert pipeline.shed == 1


class TestBatching:
    def test_pump_commits_in_batches(self):
        shard = Shard(0, epsilon=EPSILON)
        pipeline = IngestPipeline(shard, batch_size=4)
        for summary in make_summaries(10):
            pipeline.submit(summary)
        assert pipeline.pump() == 10
        assert pipeline.batches == 3  # 4 + 4 + 2
        assert pipeline.ingested == 10
        assert pipeline.depth == 0
        assert len(shard) == 10

    def test_each_batch_ships_as_one_segment(self, tmp_path):
        initial = make_summaries(8)
        primary = Shard(0, epsilon=EPSILON, path=str(tmp_path / "primary"))
        for summary in initial:
            primary.add_summary(summary)
        primary.checkpoint()
        clock = VirtualClock()
        group = ReplicaSet(primary, clock=clock)
        replica = ReplicaShard(
            0, tmp_path / "replica", epsilon=EPSILON, clock=clock
        )
        group.attach_replica(replica)
        group.sync()
        seq_before = group.shipper.seq

        pipeline = IngestPipeline(group, batch_size=4)
        for summary in make_summaries(8, seed=11, first_id=len(initial)):
            pipeline.submit(summary)
        assert pipeline.pump() == 8

        # One checkpoint per batch == one sealed, chained segment each,
        # and the replica's apply gauntlet verified both hops.
        assert group.shipper.seq == seq_before + 2
        assert replica.segments_applied == 2
        assert replica.bootstraps == 1
        assert replica.content_token() == group.shipper.token

        # _apply syncs after each commit: replicas already serve it all.
        oracle = VitriIndex.build(group.primary.summaries(), EPSILON)
        for probe in initial[:3]:
            expected = oracle.knn(probe, 5)
            got = group.knn(probe, 5)
            assert tuple(got.videos) == tuple(expected.videos)
            assert np.allclose(got.scores, expected.scores)
        group.close()

    @pytest.mark.parametrize("replicas", [0, 1, 2])
    def test_replicated_segment_log_stays_bounded(self, tmp_path, replicas):
        """Regression: every batch commit used to leave one more sealed
        segment (page images included) in the primary's log for the life
        of the process; ``sync()`` now trims through the slowest replica."""
        primary = Shard(0, epsilon=EPSILON, path=str(tmp_path / "primary"))
        for summary in make_summaries(6):
            primary.add_summary(summary)
        primary.checkpoint()
        clock = VirtualClock()
        group = ReplicaSet(primary, clock=clock)
        for index in range(replicas):
            group.attach_replica(
                ReplicaShard(
                    0, tmp_path / f"replica-{index}", epsilon=EPSILON,
                    clock=clock,
                )
            )
        pipeline = IngestPipeline(group, batch_size=2)
        stream = make_summaries(12, seed=11, first_id=100)
        for start in range(0, len(stream), 2):
            for summary in stream[start:start + 2]:
                pipeline.submit(summary)
            assert pipeline.pump() == 2
            assert len(group.shipper.log) <= 1
        assert pipeline.batches == len(stream) // 2
        for probe in stream[::3]:
            want = group.primary.knn(probe, 5)
            for replica in group.replicas:
                got = replica.knn(probe, 5)
                assert got.videos == want.videos
                assert got.scores == want.scores
        group.close()

    def test_invalid_summary_is_rejected_not_fatal(self):
        shard = Shard(0, epsilon=EPSILON)
        pipeline = IngestPipeline(shard, batch_size=4)
        summaries = make_summaries(4)
        for summary in summaries:
            pipeline.submit(summary)
        pipeline.submit(summaries[0])  # duplicate id: rejected at insert
        assert pipeline.pump() == 4
        assert pipeline.rejected == 1
        assert len(shard) == 4


class TestGroupCommit:
    """The worker commits whatever is queued on its next iteration: a
    full batch at once, a partial one without waiting for company."""

    def make_pipeline(self, **kwargs):
        shard = Shard(0, epsilon=EPSILON)
        return shard, IngestPipeline(shard, clock=VirtualClock(), **kwargs)

    def test_full_batch_never_waits(self):
        _, pipeline = self.make_pipeline(batch_size=4)
        for summary in make_summaries(4):
            pipeline.submit(summary)
        assert pipeline._pump_once() == 4  # no clock movement needed

    def test_pump_flushes_partials_regardless_of_linger(self):
        _, pipeline = self.make_pipeline(batch_size=4)
        pipeline.submit(make_summaries(1)[0])
        assert pipeline.pump() == 1

    def test_zero_linger_commits_partials_immediately(self):
        _, pipeline = self.make_pipeline(batch_size=4)
        pipeline.submit(make_summaries(1)[0])
        assert pipeline._pump_once() == 1
        assert pipeline._pump_once() == 0  # nothing left to commit
        assert pipeline.batches == 1


class TestWorker:
    def test_background_worker_drains_the_queue(self):
        import time

        shard = Shard(0, epsilon=EPSILON)
        pipeline = IngestPipeline(shard, batch_size=2)
        pipeline.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                pipeline.start()
            for summary in make_summaries(6):
                pipeline.submit(summary)
            for _ in range(1000):  # bounded poll, ~10s worst case
                if pipeline.ingested >= 6:
                    break
                time.sleep(0.01)
        finally:
            pipeline.stop()
        assert pipeline.ingested == 6
        assert len(shard) == 6

    def test_context_manager_drains_on_exit(self):
        shard = Shard(0, epsilon=EPSILON)
        with IngestPipeline(shard, batch_size=4) as pipeline:
            for summary in make_summaries(3):
                pipeline.submit(summary)
        assert pipeline.ingested == 3
        assert pipeline.stats()["draining"] is True


class FlakyShard(Shard):
    """A shard whose first ``fail`` inserts raise transiently."""

    def __init__(self, fail: int) -> None:
        super().__init__(0, epsilon=EPSILON)
        self.remaining = fail

    def add_summary(self, summary):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("transient insert fault")
        return super().add_summary(summary)


class TestPumpFailure:
    def test_failed_commit_keeps_unapplied_batch(self):
        shard = FlakyShard(fail=1)
        pipeline = IngestPipeline(shard, batch_size=4)
        for summary in make_summaries(4):
            pipeline.submit(summary)
        with pytest.raises(RuntimeError, match="transient"):
            pipeline.pump()
        # The dequeued batch is carried, not lost: a retry commits it all.
        assert pipeline.depth == 4
        assert pipeline.pump() == 4
        assert len(shard) == 4

    def test_worker_survives_transient_failures(self):
        import time

        shard = FlakyShard(fail=2)
        pipeline = IngestPipeline(shard, batch_size=2)
        pipeline.start()
        try:
            for summary in make_summaries(4):
                pipeline.submit(summary)
            for _ in range(1000):  # bounded poll, ~10s worst case
                if pipeline.ingested >= 4:
                    break
                time.sleep(0.01)
        finally:
            pipeline.stop()
        assert pipeline.ingested == 4
        assert len(shard) == 4
        stats = pipeline.stats()
        assert stats["pump_errors"] >= 1
        assert stats["failed"] is None

    def test_worker_fails_terminally_and_submit_reports_it(self):
        import time

        pipeline = IngestPipeline(
            FlakyShard(fail=10_000), batch_size=2, clock=VirtualClock()
        )
        pipeline.start()
        try:
            for summary in make_summaries(2):
                pipeline.submit(summary)
            for _ in range(1000):  # bounded poll, ~10s worst case
                if pipeline.stats()["failed"] is not None:
                    break
                time.sleep(0.01)
        finally:
            pipeline.stop()
        stats = pipeline.stats()
        assert stats["failed"] is not None
        assert "transient insert fault" in stats["failed"]
        assert stats["pump_errors"] == 8  # the fixed failure budget
        # No silent dead thread: producers get a typed, non-retriable error.
        with pytest.raises(IngestFailed, match="failed terminally"):
            pipeline.submit(make_summaries(3)[2])

    def test_rejects_bad_max_pump_failures(self):
        """The failure budget and backoff are fixed, not caller knobs:
        any ``max_pump_failures=`` is refused, and the worker parks after
        exactly eight failures, having slept the doubling schedule from
        5 ms, capped at 250 ms, between them."""
        with pytest.raises(TypeError, match="max_pump_failures"):
            IngestPipeline(Shard(0, epsilon=EPSILON), max_pump_failures=3)
        clock = VirtualClock()
        pipeline = IngestPipeline(
            FlakyShard(fail=10_000), batch_size=2, clock=clock
        )
        for summary in make_summaries(2):
            pipeline.submit(summary)
        pipeline._run()  # on this thread: returns once parked
        assert pipeline.pump_errors == 8
        assert pipeline.stats()["failed"] is not None
        sleeps = [min(0.005 * 2**i, 0.25) for i in range(7)]
        assert clock.now() == pytest.approx(sum(sleeps))


class TestDrainRace:
    def test_drain_commits_everything_admitted(self):
        import threading

        shard = Shard(0, epsilon=EPSILON)
        pipeline = IngestPipeline(shard, batch_size=4)
        chunks = [make_summaries(6, seed=s, first_id=s * 100) for s in (1, 2, 3)]

        def producer(chunk):
            for summary in chunk:
                try:
                    pipeline.submit(summary)
                except IngestBackpressure:
                    pass  # shed after the drain flag: refused, not lost

        threads = [
            threading.Thread(target=producer, args=(chunk,)) for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        pipeline.drain()
        for thread in threads:
            thread.join()
        # Nothing admitted is left volatile: every submit that returned
        # successfully was committed (or rejected at insert) by the drain.
        assert pipeline.stats()["depth"] == 0
        assert pipeline.submitted == pipeline.ingested + pipeline.rejected
        assert len(shard) == pipeline.ingested


class TestDrift:
    def test_drift_triggers_online_rebuild_and_stays_exact(self, tmp_path):
        initial = make_summaries(12)
        shard = Shard(0, epsilon=EPSILON, path=str(tmp_path / "shard"))
        for summary in initial:
            shard.add_summary(summary)
        shard.checkpoint()

        monitor = DriftMonitor(max_angle_degrees=2.0, check_every=8)
        pipeline = IngestPipeline(shard, batch_size=8, drift=monitor)
        stream = rotated_summaries(16, seed=11, first_id=len(initial))
        for summary in stream:
            pipeline.submit(summary)
        pipeline.drain()

        assert pipeline.rebuilds >= 1
        assert shard.database.epoch >= 1
        oracle = VitriIndex.build(initial + stream, EPSILON)
        for probe in (initial + stream)[::7]:
            expected = oracle.knn(probe, 5)
            got = shard.knn(probe, 5)
            assert tuple(got.videos) == tuple(expected.videos)
            assert np.allclose(got.scores, expected.scores)

    def test_replica_set_rebuild_holds_write_gate(self, tmp_path, monkeypatch):
        """The online cutover must exclude in-flight primary reads.

        ``commit_cutover`` detaches the primary's database mid-swap, so
        a drift-triggered rebuild has to hold the primary copy's serving
        gate exactly like a batch commit does.
        """
        primary = Shard(0, epsilon=EPSILON, path=str(tmp_path / "primary"))
        for summary in make_summaries(8):
            primary.add_summary(summary)
        primary.checkpoint()
        clock = VirtualClock()
        group = ReplicaSet(primary, clock=clock)

        class GateProbe:
            def __init__(self, inner):
                self._inner = inner
                self.held = 0

            def __enter__(self):
                self._inner.__enter__()
                self.held += 1
                return self

            def __exit__(self, *exc):
                self.held -= 1
                return self._inner.__exit__(*exc)

        probe = GateProbe(group.write_gate)
        group._primary_copy.gate = probe
        held_during_rebuild = []
        monkeypatch.setattr(
            "repro.ingest.pipeline.rebuild_online",
            lambda shard, **kwargs: held_during_rebuild.append(probe.held),
        )

        pipeline = IngestPipeline(group, drift=DriftMonitor())
        pipeline._rebuild("primary")
        assert held_during_rebuild == [1]
        assert probe.held == 0  # released after the cutover
        assert pipeline.rebuilds == 1
        group.close()

    def test_fleet_drift_rebuilds_the_owning_position(
        self, tmp_path, monkeypatch
    ):
        """Fleet drift is keyed by shard position: each rebuild lands on
        the position that drifted, and rankings stay oracle-exact."""
        initial = make_summaries(12)
        fleet = ShardedVideoDatabase(
            EPSILON, num_shards=2, path=str(tmp_path / "fleet")
        )
        for summary in initial:
            fleet.add_summary(summary)
        fleet.checkpoint()
        rebuilt = []
        original = ShardedVideoDatabase.rebuild_shard

        def recording(self, position, **kwargs):
            rebuilt.append(position)
            return original(self, position, **kwargs)

        monkeypatch.setattr(ShardedVideoDatabase, "rebuild_shard", recording)
        monitor = DriftMonitor(max_angle_degrees=2.0, check_every=4)
        pipeline = IngestPipeline(fleet, batch_size=8, drift=monitor)
        stream = rotated_summaries(16, seed=11, first_id=len(initial))
        for summary in stream:
            pipeline.submit(summary)
        pipeline.drain()

        assert rebuilt and set(rebuilt) <= {0, 1}
        assert pipeline.rebuilds == len(rebuilt)
        for position in set(rebuilt):
            assert fleet.shards[position].database.epoch >= 1
        oracle = VitriIndex.build(initial + stream, EPSILON)
        for probe in (initial + stream)[::7]:
            assert fleet.knn(probe, 5).videos == oracle.knn(probe, 5).videos
        fleet.close()

    def test_stats_counters(self):
        pipeline = IngestPipeline(Shard(0, epsilon=EPSILON), batch_size=2)
        for summary in make_summaries(3):
            pipeline.submit(summary)
        pipeline.pump()
        stats = pipeline.stats()
        assert stats["submitted"] == 3
        assert stats["ingested"] == 3
        assert stats["batches"] == 2
        assert stats["rejected"] == 0
        assert stats["shed"] == 0
        assert stats["rebuilds"] == 0
        assert stats["depth"] == 0
        assert stats["draining"] is False
