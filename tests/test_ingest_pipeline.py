"""Tests for the streaming ingest pipeline (repro.ingest).

The pipeline writes to a sharded fleet and nothing else.  Admission
must shed with *typed* errors before doing any work; commits must be
whole batches (one fleet checkpoint each); the worker must commit a
partial batch on its next iteration; and a drift-triggered rebuild must
leave the fleet serving oracle-exact rankings.
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
from repro.replication import ReplicaSet
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


def make_fleet(path=None, *, num_shards: int = 1) -> ShardedVideoDatabase:
    """An empty fleet (in memory unless ``path`` is given)."""
    return ShardedVideoDatabase(
        EPSILON,
        num_shards=num_shards,
        path=None if path is None else str(path),
    )


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
        with pytest.raises(TypeError, match="ShardedVideoDatabase"):
            IngestPipeline(object())

    def test_rejects_a_shard_or_a_replica_set(self, tmp_path):
        """Writes enter through the fleet only: a bare shard or a replica
        group is refused, however writable it looks."""
        primary = Shard(0, epsilon=EPSILON, path=str(tmp_path / "primary"))
        group = ReplicaSet(primary, clock=VirtualClock())
        for target in (Shard(0, epsilon=EPSILON), primary, group):
            with pytest.raises(TypeError, match="ShardedVideoDatabase"):
                IngestPipeline(target)
        group.close()

    def test_rejects_a_read_only_router(self):
        """A ``from_shards`` router passes the type check but refuses
        every write, so it is refused here, not at the first pump."""
        shard = Shard(0, epsilon=EPSILON)
        shard.add_summary(make_summaries(1)[0])
        router = ShardedVideoDatabase.from_shards([shard], epsilon=EPSILON)
        try:
            assert not router.writable
            with pytest.raises(TypeError, match="writable ShardedVideoDatabase"):
                IngestPipeline(router)
        finally:
            router.close()

    def test_rejects_bad_knobs(self):
        fleet = make_fleet()
        with pytest.raises(ValueError, match="batch_size"):
            IngestPipeline(fleet, batch_size=0)
        with pytest.raises(ValueError, match="max_queue"):
            IngestPipeline(fleet, max_queue=0)
        with pytest.raises(TypeError, match="DriftMonitor"):
            IngestPipeline(fleet, drift=object())
        with pytest.raises(TypeError, match="Clock"):
            IngestPipeline(fleet, clock=object())


class TestAdmission:
    def test_full_queue_sheds_typed_overload(self):
        pipeline = IngestPipeline(make_fleet(), max_queue=2)
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
        pipeline = IngestPipeline(make_fleet())
        with pytest.raises(TypeError, match="VideoSummary"):
            pipeline.submit("not a summary")
        assert pipeline.depth == 0

    def test_draining_pipeline_sheds_typed_refusal(self):
        pipeline = IngestPipeline(make_fleet())
        pipeline.drain()
        with pytest.raises(IngestDraining, match="draining"):
            pipeline.submit(make_summaries(1)[0])
        assert pipeline.shed == 1


class TestBatching:
    def test_pump_commits_in_batches(self):
        fleet = make_fleet(num_shards=2)
        pipeline = IngestPipeline(fleet, batch_size=4)
        for summary in make_summaries(10):
            pipeline.submit(summary)
        assert pipeline.pump() == 10
        assert pipeline.batches == 3  # 4 + 4 + 2
        assert pipeline.ingested == 10
        assert pipeline.depth == 0
        assert len(fleet) == 10

    def test_durable_fleet_checkpoints_once_per_batch(
        self, tmp_path, monkeypatch
    ):
        fleet = make_fleet(tmp_path / "fleet", num_shards=2)
        checkpoints = []
        checkpoint = ShardedVideoDatabase.checkpoint

        def counting(self):
            checkpoints.append(len(self))
            checkpoint(self)

        monkeypatch.setattr(ShardedVideoDatabase, "checkpoint", counting)
        pipeline = IngestPipeline(fleet, batch_size=4)
        for summary in make_summaries(10):
            pipeline.submit(summary)
        assert pipeline.pump() == 10
        assert checkpoints == [4, 8, 10]
        fleet.crash()  # no checkpoint of its own: the batches are on disk
        reopened = ShardedVideoDatabase(path=str(tmp_path / "fleet"))
        assert reopened.video_ids() == set(range(10))
        reopened.close()

    def test_invalid_summary_is_rejected_not_fatal(self):
        fleet = make_fleet()
        pipeline = IngestPipeline(fleet, batch_size=4)
        summaries = make_summaries(4)
        for summary in summaries:
            pipeline.submit(summary)
        pipeline.submit(summaries[0])  # duplicate id: rejected at insert
        assert pipeline.pump() == 4
        assert pipeline.rejected == 1
        assert len(fleet) == 4


class TestGroupCommit:
    """The worker commits whatever is queued on its next iteration: a
    full batch at once, a partial one without waiting for company."""

    def make_pipeline(self, **kwargs):
        fleet = make_fleet()
        return fleet, IngestPipeline(fleet, clock=VirtualClock(), **kwargs)

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

        fleet = make_fleet()
        pipeline = IngestPipeline(fleet, batch_size=2)
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
        assert len(fleet) == 6

    def test_context_manager_drains_on_exit(self):
        with IngestPipeline(make_fleet(), batch_size=4) as pipeline:
            for summary in make_summaries(3):
                pipeline.submit(summary)
        assert pipeline.ingested == 3
        assert pipeline.stats()["draining"] is True


def flaky_fleet(fail: int) -> ShardedVideoDatabase:
    """A one-shard fleet whose shard's first ``fail`` inserts raise
    transiently (the fleet routes the insert, then the shard fails)."""
    fleet = make_fleet()
    shard = fleet.shards[0]
    add_summary = shard.add_summary

    def flaky(summary):
        nonlocal fail
        if fail > 0:
            fail -= 1
            raise RuntimeError("transient insert fault")
        return add_summary(summary)

    shard.add_summary = flaky
    return fleet


class TestPumpFailure:
    def test_failed_commit_keeps_unapplied_batch(self):
        fleet = flaky_fleet(fail=1)
        pipeline = IngestPipeline(fleet, batch_size=4)
        for summary in make_summaries(4):
            pipeline.submit(summary)
        with pytest.raises(RuntimeError, match="transient"):
            pipeline.pump()
        # The dequeued batch is carried, not lost: a retry commits it all.
        assert pipeline.depth == 4
        assert pipeline.pump() == 4
        assert len(fleet) == 4

    def test_worker_survives_transient_failures(self):
        import time

        fleet = flaky_fleet(fail=2)
        pipeline = IngestPipeline(fleet, batch_size=2)
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
        assert len(fleet) == 4
        stats = pipeline.stats()
        assert stats["pump_errors"] >= 1
        assert stats["failed"] is None

    def test_worker_fails_terminally_and_submit_reports_it(self):
        import time

        pipeline = IngestPipeline(
            flaky_fleet(fail=10_000), batch_size=2, clock=VirtualClock()
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
            IngestPipeline(make_fleet(), max_pump_failures=3)
        clock = VirtualClock()
        pipeline = IngestPipeline(
            flaky_fleet(fail=10_000), batch_size=2, clock=clock
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

        fleet = make_fleet(num_shards=2)
        pipeline = IngestPipeline(fleet, batch_size=4)
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
        assert len(fleet) == pipeline.ingested


class TestDrift:
    def test_drift_triggers_online_rebuild_and_stays_exact(self, tmp_path):
        initial = make_summaries(12)
        fleet = make_fleet(tmp_path / "fleet")
        for summary in initial:
            fleet.add_summary(summary)
        fleet.checkpoint()

        monitor = DriftMonitor(max_angle_degrees=2.0, check_every=8)
        pipeline = IngestPipeline(fleet, batch_size=8, drift=monitor)
        stream = rotated_summaries(16, seed=11, first_id=len(initial))
        for summary in stream:
            pipeline.submit(summary)
        pipeline.drain()

        assert pipeline.rebuilds >= 1
        shard = fleet.shards[0]
        assert shard.database.epoch >= 1
        oracle = VitriIndex.build(initial + stream, EPSILON)
        for probe in (initial + stream)[::7]:
            expected = oracle.knn(probe, 5)
            got = shard.knn(probe, 5)
            assert tuple(got.videos) == tuple(expected.videos)
            assert np.allclose(got.scores, expected.scores)
        fleet.close()

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
        pipeline = IngestPipeline(make_fleet(), batch_size=2)
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
