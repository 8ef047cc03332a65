"""Tests for the scatter-gather router (repro.shard.router).

The load-bearing property is *exactness*: a sharded database must return
rankings identical to an unsharded :class:`VitriIndex` over the same
content, for every partitioner and fleet size, whether shards prune or
not.  Everything else (durability, rebalancing, serving metrics, the
scatter pool) builds on that.
"""

import threading

import numpy as np
import pytest

from repro.core.index import VitriIndex
from repro.core.summarize import summarize_video
from repro.datasets import DatasetConfig, generate_dataset
from repro.shard import (
    FaultInjectingShard,
    FaultPolicy,
    KeyRangePartitioner,
    Shard,
    ShardedVideoDatabase,
    ShardFaultInjector,
)
from repro.shard import router as router_module
from repro.utils.clock import VirtualClock
from tests.threshold_recipe import at_least

EPSILON = 0.3


def far_query(dataset):
    """Video 0 translated far outside every stored key: each shard's key
    bounds prove it matches nothing there."""
    return summarize_video(999, dataset.frames(0) + 5.0, EPSILON)


def toy_corpus():
    """The small toy corpus (12-d, ten videos) and its far query."""
    config = DatasetConfig(
        dim=12,
        num_families=2,
        family_size=3,
        num_distractors=4,
        duration_classes=((20, 1.0),),
    )
    dataset = generate_dataset(config, seed=42)
    summaries = [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(dataset.num_videos)
    ]
    return summaries, far_query(dataset)


def make_fleet(summaries, partitioner, num_shards, **kwargs):
    if partitioner == "key_range":
        fleet = ShardedVideoDatabase(
            EPSILON,
            partitioner=KeyRangePartitioner.fit(list(summaries), num_shards),
            **kwargs,
        )
    else:
        fleet = ShardedVideoDatabase(
            EPSILON, partitioner=partitioner, num_shards=num_shards, **kwargs
        )
    for summary in summaries:
        fleet.add_summary(summary)
    return fleet


class TestExactness:
    """Acceptance: sharded rankings == single-index oracle rankings."""

    @pytest.mark.parametrize("partitioner", ["hash", "key_range"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_knn_matches_oracle(
        self, small_summaries, small_index, partitioner, num_shards
    ):
        fleet = make_fleet(small_summaries, partitioner, num_shards)
        for query in small_summaries[:6]:
            expected = small_index.knn(query, 5)
            got = fleet.knn(query, 5)
            assert got.videos == expected.videos
            assert np.allclose(got.scores, expected.scores)

    @pytest.mark.parametrize("partitioner", ["hash", "key_range"])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_similarity_range_matches_oracle(
        self, small_summaries, small_index, partitioner, num_shards
    ):
        """The threshold recipe: the merged full ranking, cut at the
        threshold, is the single index's."""
        fleet = make_fleet(small_summaries, partitioner, num_shards)
        for query in small_summaries[:4]:
            expected_videos, expected_scores = at_least(
                small_index.knn(query, small_index.num_videos), 0.2
            )
            videos, scores = at_least(fleet.knn(query, len(fleet)), 0.2)
            assert videos == expected_videos
            assert np.allclose(scores, expected_scores)

    def test_pruning_is_lossless(
        self, small_dataset, small_summaries, small_index
    ):
        """Near queries (the corpus's own videos) and a far one every
        shard prunes both equal the single-index oracle."""
        fleet = make_fleet(small_summaries, "key_range", 4)
        far = far_query(small_dataset)
        for query in small_summaries[:6] + [far]:
            expected = small_index.knn(query, 5)
            got = fleet.knn(query, 5)
            assert got.videos == expected.videos
            assert np.allclose(got.scores, expected.scores)
        assert fleet.knn(far, 5).scatter.shards_pruned

    def test_naive_method_matches_oracle(self, small_summaries, small_index):
        fleet = make_fleet(small_summaries, "hash", 4)
        query = small_summaries[0]
        expected = small_index.knn(query, 5, method="naive")
        got = fleet.knn(query, 5, method="naive")
        assert got.videos == expected.videos

    def test_more_shards_than_videos(self, small_summaries):
        few = small_summaries[:3]
        oracle = VitriIndex.build(list(few), EPSILON)
        fleet = make_fleet(few, "hash", 8)  # most shards stay empty
        got = fleet.knn(few[0], 3)
        expected = oracle.knn(few[0], 3)
        assert got.videos == expected.videos
        assert got.scatter.shards_total == 8


class TestScatterStats:
    def test_fanout_accounting(self, small_summaries):
        fleet = make_fleet(small_summaries, "key_range", 4)
        result = fleet.knn(small_summaries[0], 5)
        queried = set(result.scatter.shards_queried)
        pruned = set(result.scatter.shards_pruned)
        assert queried  # something answered
        assert not queried & pruned
        assert len(queried) + len(pruned) <= result.scatter.shards_total

    def test_global_stats_from_bundles(self, small_summaries):
        fleet = make_fleet(small_summaries, "key_range", 4, cache_size=0)
        result = fleet.knn(small_summaries[0], 5)
        # The folded per-shard bundles must show real work.
        assert result.stats.page_requests > 0
        assert result.stats.similarity_computations > 0
        assert result.stats.ranges >= 1
        assert result.stats.wall_time >= 0.0

    def test_cache_hit_costs_nothing(self, small_summaries):
        fleet = make_fleet(small_summaries, "hash", 2, cache_size=8)
        query = small_summaries[0]
        first = fleet.knn(query, 5)
        second = fleet.knn(query, 5)
        assert second.videos == first.videos
        # Served from the shard result caches: no pages, no similarity.
        assert second.stats.page_requests == 0
        assert second.stats.similarity_computations == 0

    def test_repeats_in_a_stream_hit_the_result_cache(self, small_summaries):
        fleet = make_fleet(small_summaries, "hash", 2, cache_size=16)
        stream = [small_summaries[0]] * 3 + [small_summaries[1]]
        requests = [fleet.knn(query, 5).stats.page_requests for query in stream]
        # First sight of each query reads pages; the repeats are hits.
        assert requests[0] > 0 and requests[3] > 0
        assert requests[1] == requests[2] == 0


class TestPruning:
    """The router sends one sub-query to every populated shard, and each
    shard proves inside it whether the query can match anything there."""

    def test_far_query_is_pruned_by_every_shard(self):
        summaries, far = toy_corpus()
        fleet = make_fleet(summaries, "hash", 3)
        fleet.knn(summaries[0], 5)  # every shard now has an engine

        def untouched():
            return [
                (
                    shard.queries_served,
                    shard.engine().cache_hits,
                    shard.engine().cache_misses,
                )
                for shard in fleet.shards
            ]

        before = untouched()
        for result in (
            fleet.knn(far, 5),
            fleet.knn(far, 5, fault_policy=FaultPolicy(), fail_fast=False),
        ):
            assert result.videos == ()
            assert result.scatter.shards_pruned == (0, 1, 2)
            assert result.scatter.shards_queried == ()
            assert result.coverage.shards_pruned == (0, 1, 2)
            assert result.coverage.shards_answered == ()
            assert result.coverage.complete
            assert result.stats.candidates == 0
            assert result.stats.similarity_computations == 0
        assert untouched() == before

    def test_router_never_probes_a_shard(self, small_summaries, monkeypatch):
        """One sub-query per populated shard and no routing call: the
        proof rides inside the sub-query."""
        fleet = make_fleet(small_summaries, "key_range", 4)
        injector = ShardFaultInjector({})
        fleet.inject_shard_faults(injector)
        probes = []

        def counted(self, query, *, counters=None):
            probes.append(self.shard_id)
            return self.inner.may_contain(query, counters=counters)

        monkeypatch.setattr(
            FaultInjectingShard, "may_contain", counted, raising=False
        )
        for query in small_summaries[:3]:
            fleet.knn(query, 5)
        assert probes == []
        assert [injector.operations(i) for i in range(4)] == [3, 3, 3, 3]


class BarrierShard(Shard):
    """A shard whose sub-queries wait until every leg of the scatter has
    started: a pool too small to run all legs at once breaks the
    barrier, and the query fails."""

    barrier: threading.Barrier | None = None

    def knn(self, query, k, **kwargs):
        if self.barrier is not None:
            self.barrier.wait(timeout=10.0)
        return super().knn(query, k, **kwargs)


class TestScatterPool:
    @staticmethod
    def barrier_fleet(summaries, num_shards, monkeypatch):
        """A key-range fleet whose every shard, rebalance splits
        included, is a :class:`BarrierShard`."""
        monkeypatch.setattr(router_module, "Shard", BarrierShard)
        monkeypatch.setattr(BarrierShard, "barrier", None)
        return make_fleet(summaries, "key_range", num_shards)

    @staticmethod
    def spawned(before) -> list[threading.Thread]:
        return [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("shard-query")
        ]

    def test_legs_run_concurrently(
        self, small_summaries, small_index, monkeypatch
    ):
        fleet = self.barrier_fleet(small_summaries, 4, monkeypatch)
        BarrierShard.barrier = threading.Barrier(4)
        for query in small_summaries[:4]:
            got = fleet.knn(query, 5)
            assert got.videos == small_index.knn(query, 5).videos
            assert len(got.scatter.shards_queried + got.scatter.shards_pruned) == 4
        fleet.close()

    def test_thread_count_stays_flat(self, small_summaries, monkeypatch):
        """200 queries of four legs run on the caller plus at most three
        pool workers, never on a thread per leg."""
        fleet = make_fleet(small_summaries, "hash", 4)
        ran_on = set()
        original = Shard.knn

        def recording(self, query, k, **kwargs):
            ran_on.add(threading.current_thread())
            return original(self, query, k, **kwargs)

        monkeypatch.setattr(Shard, "knn", recording)
        for position in range(200):
            fleet.knn(small_summaries[position % len(small_summaries)], 5)
        assert threading.current_thread() in ran_on
        assert len(ran_on) <= 4
        fleet.close()

    def test_leg_sleeps_never_leak_into_later_legs(
        self, small_summaries, monkeypatch
    ):
        """Under a VirtualClock every leg starts at the caller's time,
        whichever pool worker ran an earlier, sleeping leg."""
        clock = VirtualClock()
        fleet = make_fleet(small_summaries, "hash", 4, clock=clock)
        starts = []
        original = Shard.knn

        def sleepy(self, query, k, **kwargs):
            starts.append(clock.now())
            clock.sleep(10.0)
            return original(self, query, k, **kwargs)

        monkeypatch.setattr(Shard, "knn", sleepy)
        for query in small_summaries[:5]:
            fleet.knn(query, 5)
        assert starts == [0.0] * 20
        assert clock.now() == 0.0
        fleet.close()

    def test_no_worker_outlives_close(self, small_summaries):
        before = set(threading.enumerate())
        fleet = make_fleet(small_summaries, "hash", 4)
        fleet.knn(small_summaries[0], 5)
        workers = self.spawned(before)
        assert workers
        fleet.close()
        assert not any(thread.is_alive() for thread in workers)

    def test_no_worker_outlives_crash(self, small_summaries, tmp_path):
        before = set(threading.enumerate())
        fleet = make_fleet(
            small_summaries, "hash", 4, path=str(tmp_path / "fleet")
        )
        fleet.knn(small_summaries[0], 5)
        workers = self.spawned(before)
        assert workers
        fleet.crash()
        assert not any(thread.is_alive() for thread in workers)

    def test_rebalance_keeps_every_leg_concurrent(
        self, small_summaries, small_index, monkeypatch
    ):
        before = set(threading.enumerate())
        fleet = self.barrier_fleet(small_summaries, 2, monkeypatch)
        BarrierShard.barrier = threading.Barrier(2)
        for query in small_summaries[:4]:
            fleet.knn(query, 5)
        old_workers = self.spawned(before)
        BarrierShard.barrier = None
        assert fleet.rebalance() is not None
        assert fleet.num_shards == 3
        # The smaller pool is gone, and three legs now meet at once.
        assert not any(thread.is_alive() for thread in old_workers)
        BarrierShard.barrier = threading.Barrier(3)
        for query in small_summaries[:4]:
            got = fleet.knn(query, 5)
            assert got.videos == small_index.knn(query, 5).videos
            assert len(got.scatter.shards_queried + got.scatter.shards_pruned) == 3
        fleet.close()


class TestMutation:
    def test_membership_tracks_routing(self, small_summaries):
        fleet = make_fleet(small_summaries, "hash", 4)
        assert len(fleet) == len(small_summaries)
        assert fleet.video_ids() == {s.video_id for s in small_summaries}
        for summary in small_summaries:
            shard = fleet.shard_of(summary.video_id)
            assert shard == fleet.partitioner.shard_for(summary)
            assert summary.video_id in fleet.shards[shard].video_ids()

    def test_duplicate_id_rejected(self, small_summaries):
        fleet = make_fleet(small_summaries, "hash", 2)
        with pytest.raises(ValueError, match="already present"):
            fleet.add_summary(small_summaries[0])

    def test_remove_updates_results(self, small_summaries, small_index):
        fleet = make_fleet(small_summaries, "hash", 4)
        query = small_summaries[0]
        top = fleet.knn(query, 1).videos[0]
        fleet.remove(top)
        assert len(fleet) == len(small_summaries) - 1
        with pytest.raises(ValueError, match="not in the database"):
            fleet.shard_of(top)
        after = fleet.knn(query, 5)
        assert top not in after.videos
        oracle = VitriIndex.build(
            [s for s in small_summaries if s.video_id != top], EPSILON
        )
        assert after.videos == oracle.knn(query, 5).videos

    def test_add_routes_raw_frames(self, small_dataset):
        fleet = ShardedVideoDatabase(
            EPSILON, partitioner="hash", num_shards=3
        )
        ids = fleet.add_many(small_dataset.frames(i) for i in range(5))
        assert ids == [0, 1, 2, 3, 4]
        result = fleet.query(small_dataset.frames(0), k=3)
        assert result.videos[0] == 0  # self-match ranks first


class TestValidation:
    def test_bad_k(self, small_summaries):
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="positive int"):
                fleet.knn(small_summaries[0], bad)

    def test_bad_query_type(self, small_summaries):
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        with pytest.raises(TypeError, match="VideoSummary"):
            fleet.knn("query", 5)

    def test_bad_method(self, small_summaries):
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        with pytest.raises(ValueError, match="method"):
            fleet.knn(small_summaries[0], 5, method="magic")

    def test_empty_fleet_rejects_queries(self, small_summaries):
        fleet = ShardedVideoDatabase(
            EPSILON, partitioner="hash", num_shards=2
        )
        with pytest.raises(ValueError, match="empty"):
            fleet.knn(small_summaries[0], 5)

    def test_shard_count_conflict(self):
        with pytest.raises(ValueError, match="conflicts"):
            ShardedVideoDatabase(
                EPSILON,
                partitioner=KeyRangePartitioner([0.5]),
                num_shards=4,
            )

    def test_bad_partitioner_type(self):
        with pytest.raises(TypeError, match="Partitioner"):
            ShardedVideoDatabase(EPSILON, partitioner=42)

    def test_kind_name_requires_num_shards(self):
        with pytest.raises(ValueError, match="positive int"):
            ShardedVideoDatabase(EPSILON, partitioner="hash")

    def test_closed_database_rejects_use(self, small_summaries):
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.knn(small_summaries[0], 5)
        fleet.close()  # idempotent


class TestDurability:
    def test_reopen_round_trip(self, small_summaries, small_index, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries, "key_range", 3, path=path)
        query = small_summaries[0]
        expected = small_index.knn(query, 5)
        assert fleet.knn(query, 5).videos == expected.videos
        fleet.close()

        reopened = ShardedVideoDatabase(path=path)
        assert reopened.num_shards == 3
        assert reopened.partitioner.name == "key_range"
        assert reopened.video_ids() == {s.video_id for s in small_summaries}
        got = reopened.knn(query, 5)
        assert got.videos == expected.videos
        assert np.allclose(got.scores, expected.scores)
        reopened.close()

    def test_reopen_after_mutation(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries, "hash", 2, path=path)
        fleet.remove(small_summaries[0].video_id)
        fleet.checkpoint()
        fleet.close()
        reopened = ShardedVideoDatabase(path=path)
        assert (
            small_summaries[0].video_id not in reopened.video_ids()
        )
        assert len(reopened) == len(small_summaries) - 1
        reopened.close()

    def test_crash_discards_uncheckpointed(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries[:8], "hash", 2, path=path)
        fleet.checkpoint()
        fleet.add_summary(small_summaries[8])
        fleet.crash()
        reopened = ShardedVideoDatabase(path=path)
        assert reopened.video_ids() == {
            s.video_id for s in small_summaries[:8]
        }
        reopened.close()

    def test_checkpoint_requires_path(self, small_summaries):
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        with pytest.raises(RuntimeError, match="durable"):
            fleet.checkpoint()
        with pytest.raises(RuntimeError, match="durable"):
            fleet.crash()

    def test_context_manager_closes(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        with make_fleet(small_summaries[:6], "hash", 2, path=path) as fleet:
            assert len(fleet) == 6
        reopened = ShardedVideoDatabase(path=path)
        assert len(reopened) == 6  # close() checkpointed
        reopened.close()


class TestRebalance:
    def test_requires_key_range(self, small_summaries):
        fleet = make_fleet(small_summaries, "hash", 2)
        with pytest.raises(ValueError, match="KeyRangePartitioner"):
            fleet.rebalance()

    def test_splits_hottest_shard(self, small_summaries, small_index):
        fleet = make_fleet(small_summaries, "key_range", 2)
        for query in small_summaries[:4]:
            fleet.knn(query, 5)
        before = len(fleet)
        new_shard = fleet.rebalance()
        assert new_shard is not None
        assert fleet.num_shards == 3
        assert fleet.partitioner.num_shards == 3
        assert len(fleet) == before  # nothing lost, nothing duplicated
        assert [s.shard_id for s in fleet.shards] == [0, 1, 2]
        # Exactness survives the split.
        for query in small_summaries[:4]:
            got = fleet.knn(query, 5)
            expected = small_index.knn(query, 5)
            assert got.videos == expected.videos

    def test_durable_rebalance_survives_reopen(
        self, small_summaries, small_index, tmp_path
    ):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries, "key_range", 2, path=path)
        fleet.knn(small_summaries[0], 5)
        assert fleet.rebalance() is not None
        fleet.close()
        reopened = ShardedVideoDatabase(path=path)
        assert reopened.num_shards == 3
        assert len(reopened) == len(small_summaries)
        got = reopened.knn(small_summaries[0], 5)
        assert got.videos == small_index.knn(small_summaries[0], 5).videos
        reopened.close()

    def test_unsplittable_shard_returns_none(self, small_summaries):
        # One video per populated shard: a single routing key never splits.
        fleet = make_fleet(small_summaries[:1], "key_range", 2)
        assert fleet.rebalance() is None
        assert fleet.num_shards == 2

    def test_queries_are_served_during_the_copy_phase(
        self, small_summaries, small_index
    ):
        """Regression: rebalance must not hold the router lock while it
        scans and copies the hottest shard.

        The copy phase (``hottest.summaries()`` onward) is blocked on an
        event while the main thread runs a query; if the router lock
        were held across the copy — the old coarse-grained behaviour —
        the query would deadlock against the blocked rebalance.
        """
        import threading

        fleet = make_fleet(small_summaries, "key_range", 2)
        for query in small_summaries[:4]:
            fleet.knn(query, 5)

        copy_started = threading.Event()
        release_copy = threading.Event()
        for shard in fleet.shards:
            original = shard.summaries

            def blocking(original=original):
                copy_started.set()
                assert release_copy.wait(timeout=30.0)
                return original()

            shard.summaries = blocking

        result: dict = {}

        def run_rebalance():
            result["new_shard"] = fleet.rebalance()

        rebalancer = threading.Thread(target=run_rebalance)
        rebalancer.start()
        try:
            assert copy_started.wait(timeout=30.0)
            # The copy phase is parked; reads must still complete.
            for query in small_summaries[:4]:
                got = fleet.knn(query, 5)
                expected = small_index.knn(query, 5)
                assert got.videos == expected.videos
        finally:
            release_copy.set()
            rebalancer.join(timeout=30.0)
        assert not rebalancer.is_alive()
        assert result["new_shard"] is not None
        assert fleet.num_shards == 3
        for query in small_summaries[:4]:
            got = fleet.knn(query, 5)
            assert got.videos == small_index.knn(query, 5).videos


class TestShardUnit:
    def test_engine_refreshes_on_content_change(self, small_summaries):
        shard = Shard(0, epsilon=EPSILON)
        for summary in small_summaries[:6]:
            shard.add_summary(summary)
        first = shard.knn(small_summaries[0], 3)
        assert first.videos
        engine = shard.engine()
        token = engine.snapshot_token
        shard.add_summary(small_summaries[6])
        # Same index object, new content: the shard must refresh the
        # engine in place rather than serve the stale snapshot.
        after = shard.knn(small_summaries[6], 1)
        assert after.videos[0] == small_summaries[6].video_id
        assert shard.engine() is engine
        assert engine.snapshot_token != token
        assert shard.queries_served == 2

    def test_key_bounds_cached_per_token(self, small_summaries):
        shard = Shard(0, epsilon=EPSILON)
        for summary in small_summaries[:6]:
            shard.add_summary(summary)
        bounds = shard.key_bounds()
        assert bounds is not None and bounds[0] <= bounds[1]
        assert shard.key_bounds() == bounds  # cached (same token)
        shard.add_summary(small_summaries[6])
        refreshed = shard.key_bounds()
        assert refreshed is not None
        assert refreshed[0] <= bounds[0] and refreshed[1] >= bounds[1]

    def test_empty_shard_metadata(self, small_summaries):
        shard = Shard(0, epsilon=EPSILON)
        assert shard.key_bounds() is None
        assert not shard.may_contain(small_summaries[0])
        assert len(shard) == 0

    def test_may_contain_never_prunes_a_match(self, small_summaries):
        shard = Shard(0, epsilon=EPSILON)
        for summary in small_summaries[:8]:
            shard.add_summary(summary)
        for query in small_summaries:
            local = shard.knn(query, len(small_summaries))
            if any(score > 0.0 for score in local.scores):
                assert shard.may_contain(query)
