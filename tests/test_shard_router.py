"""Tests for the scatter-gather router (repro.shard.router).

The load-bearing property is *exactness*: a sharded database must return
rankings identical to an unsharded :class:`VitriIndex` over the same
content, for every partitioner and fleet size, whether shards prune or
not.  Everything else (durability, the rebuild window, serving metrics,
where the legs run) builds on that.
"""

import json
import os
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
    ShardFault,
    ShardFaultInjector,
)
from repro.utils.clock import Clock, VirtualClock
from repro.utils.counters import CostCounters
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
        # The naive method is the index's alone; the fleet's composed
        # answer ranks the same videos.
        fleet = make_fleet(small_summaries, "hash", 4)
        query = small_summaries[0]
        expected = small_index.knn(query, 5, method="naive")
        got = fleet.knn(query, 5)
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

    def test_a_cached_repeat_skips_the_proof(self, monkeypatch):
        """A shard looks in its engine's result cache before it runs the
        key-bounds proof; a ruled-out query still answers ``pruned``."""
        summaries, far = toy_corpus()
        shard = Shard(0, epsilon=EPSILON)
        for summary in summaries:
            shard.add_summary(summary)
        first = shard.knn(summaries[0], 5)
        proofs = []
        real = shard.may_contain

        def spy(query, **kwargs):
            proofs.append(query)
            return real(query, **kwargs)

        monkeypatch.setattr(shard, "may_contain", spy)
        engine = shard.engine()
        hits, misses = engine.cache_hits, engine.cache_misses
        bundle = CostCounters()
        assert shard.knn(summaries[0], 5, out_counters=bundle) is first
        narrower = shard.knn(summaries[0], 3, out_counters=bundle)
        assert (narrower.videos, narrower.scores) == (
            first.videos[:3],
            first.scores[:3],
        )
        assert not narrower.pruned
        assert proofs == []
        assert bundle.snapshot() == CostCounters().snapshot()
        # Each hit counted once, and no miss for the looks.
        assert (engine.cache_hits, engine.cache_misses) == (hits + 2, misses)
        for _ in range(2):
            assert shard.knn(far, 5).pruned
        assert proofs == [far, far]
        assert (engine.cache_hits, engine.cache_misses) == (hits + 2, misses)

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


class SharedClock(Clock):
    """Virtual time with one reading for every thread and context, so a
    query's clock adds up the sleeps of all its legs."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        self.time += max(0.0, seconds)


class TestScatterPool:
    """A fleet that owns in-process shards runs every leg on the calling
    thread; only a read-only router (``from_shards``) has a pool."""

    @staticmethod
    def read_only_router(summaries, num_shards, **shard_kwargs):
        """A read-only router over a key-range split of ``summaries``
        into :class:`BarrierShard` instances."""
        partitioner = KeyRangePartitioner.fit(list(summaries), num_shards)
        shards = [
            BarrierShard(position, epsilon=EPSILON, **shard_kwargs)
            for position in range(num_shards)
        ]
        for summary in summaries:
            shards[partitioner.shard_for(summary)].add_summary(summary)
        return ShardedVideoDatabase.from_shards(shards, epsilon=EPSILON)

    @staticmethod
    def spawned(before) -> list[threading.Thread]:
        return [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("shard-query")
        ]

    def test_writable_fleet_runs_every_leg_on_the_caller(
        self, small_summaries, monkeypatch
    ):
        """Legs run inline, one after another in shard order, and no
        scatter worker is ever started."""
        before = set(threading.enumerate())
        fleet = make_fleet(small_summaries, "hash", 4)
        populated = [shard.shard_id for shard in fleet.shards if len(shard)]
        legs = []
        original = Shard.knn

        def recording(self, query, k, **kwargs):
            legs.append((threading.current_thread(), self.shard_id))
            return original(self, query, k, **kwargs)

        monkeypatch.setattr(Shard, "knn", recording)
        for query in small_summaries[:5]:
            fleet.knn(query, 5)
        caller = threading.current_thread()
        assert legs == [(caller, shard_id) for shard_id in populated] * 5
        assert self.spawned(before) == []
        fleet.close()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_leaves_the_query_at_once(
        self, small_summaries, monkeypatch, interrupt
    ):
        """An interrupt in a leg is not a shard fault: it propagates as
        itself, not as a ScatterError, and no later leg runs."""
        fleet = make_fleet(small_summaries, "hash", 4)
        ran = []
        original = Shard.knn

        def interrupted(self, query, k, **kwargs):
            ran.append(self.shard_id)
            if len(ran) == 1:
                raise interrupt
            return original(self, query, k, **kwargs)

        monkeypatch.setattr(Shard, "knn", interrupted)
        with pytest.raises(interrupt):
            fleet.knn(small_summaries[0], 5)
        assert len(ran) == 1
        fleet.close()

    def test_a_deadline_bounds_each_inline_leg_not_the_query(
        self, small_summaries, small_index
    ):
        """Each leg's budget starts when the leg does, so an in-process
        query is bounded by the sum of its legs' budgets: legs that each
        fit the budget all answer, though together they overrun it."""
        clock = SharedClock()
        fleet = make_fleet(small_summaries, "hash", 4, clock=clock)
        populated = [shard.shard_id for shard in fleet.shards if len(shard)]
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {shard_id: [ShardFault.slow(0.75)] for shard_id in populated}
            )
        )
        query = small_summaries[0]
        got = fleet.knn(query, 5, fault_policy=FaultPolicy(deadline=1.0))
        assert got.coverage.shards_answered == tuple(populated)
        assert got.videos == small_index.knn(query, 5).videos
        assert clock.now() == 0.75 * len(populated) > 1.0
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

    def test_legs_run_concurrently(
        self, small_summaries, small_index, monkeypatch
    ):
        """A read-only router's four legs all wait at one barrier: the
        caller runs one, three pool workers the rest."""
        router = self.read_only_router(small_summaries, 4)
        monkeypatch.setattr(BarrierShard, "barrier", threading.Barrier(4))
        for query in small_summaries[:4]:
            got = router.knn(query, 5)
            assert got.videos == small_index.knn(query, 5).videos
            assert len(got.scatter.shards_queried + got.scatter.shards_pruned) == 4
        router.close()

    def test_thread_count_stays_flat(self, small_summaries, monkeypatch):
        """200 queries of four legs on a read-only router run on the
        caller plus at most three pool workers, never on a thread per
        leg.  Shards without a result cache keep the memo empty, so
        every query scatters."""
        router = self.read_only_router(small_summaries, 4, cache_size=0)
        ran_on = set()
        original = Shard.knn

        def recording(self, query, k, **kwargs):
            ran_on.add(threading.current_thread())
            return original(self, query, k, **kwargs)

        monkeypatch.setattr(Shard, "knn", recording)
        for position in range(200):
            router.knn(small_summaries[position % len(small_summaries)], 5)
        assert threading.current_thread() in ran_on
        assert 1 < len(ran_on) <= 4
        router.close()

    def test_no_worker_outlives_close(self, small_summaries):
        before = set(threading.enumerate())
        router = self.read_only_router(small_summaries, 4)
        router.knn(small_summaries[0], 5)
        workers = self.spawned(before)
        assert workers
        router.close()
        assert not any(thread.is_alive() for thread in workers)


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

    def test_bad_method(self, small_summaries, small_index):
        # Only the index takes a method; the fleet has no such option.
        with pytest.raises(ValueError, match="method"):
            small_index.knn(small_summaries[0], 5, method="magic")
        fleet = make_fleet(small_summaries[:4], "hash", 2)
        with pytest.raises(TypeError, match="method"):
            fleet.knn(small_summaries[0], 5, method="naive")

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
        with pytest.raises(RuntimeError, match=r"^detach\(\) requires a"):
            fleet.detach()

    def test_context_manager_closes(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        with make_fleet(small_summaries[:6], "hash", 2, path=path) as fleet:
            assert len(fleet) == 6
        reopened = ShardedVideoDatabase(path=path)
        assert len(reopened) == 6  # close() checkpointed
        reopened.close()


def put_on_shard(path, position, summary):
    """Write ``summary`` straight into shard ``position``'s directory of
    the fleet at ``path``, bypassing the router."""
    stray = Shard(
        position,
        epsilon=EPSILON,
        path=os.path.join(path, f"shard-{position:04d}"),
    )
    stray.add_summary(summary)
    stray.checkpoint()
    stray.close()


class TestFixedShards:
    def test_reopen_raises_on_a_video_on_two_shards(
        self, small_summaries, tmp_path
    ):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries[:1], "hash", 2, path=path)
        other = 1 - fleet.shard_of(0)
        fleet.close()
        put_on_shard(path, other, small_summaries[0])
        with pytest.raises(
            ValueError, match="video 0 is on shard 0 and on shard 1"
        ):
            ShardedVideoDatabase(path=path)

    def test_read_only_router_raises_on_a_video_on_two_shards(
        self, small_summaries
    ):
        shards = [Shard(i, epsilon=EPSILON) for i in range(2)]
        for shard in shards:
            shard.add_summary(small_summaries[3])
        with pytest.raises(ValueError, match="video 3 is on shard 0"):
            ShardedVideoDatabase.from_shards(shards, epsilon=EPSILON)

    def test_directories_are_named_by_position(
        self, small_summaries, tmp_path
    ):
        path = str(tmp_path / "fleet")
        make_fleet(small_summaries, "hash", 3, path=path).close()
        with open(os.path.join(path, "shards.json")) as handle:
            manifest = json.load(handle)
        assert manifest["shards"] == ["shard-0000", "shard-0001", "shard-0002"]
        assert "created_shards" not in manifest

    def test_reopens_an_older_manifest(
        self, small_summaries, small_index, tmp_path
    ):
        """A manifest with ``created_shards`` and directories out of
        position order still opens, from the names it lists."""
        path = str(tmp_path / "fleet")
        make_fleet(small_summaries, "key_range", 2, path=path).close()
        manifest_path = os.path.join(path, "shards.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        os.rename(
            os.path.join(path, "shard-0000"), os.path.join(path, "shard-0002")
        )
        manifest["shards"] = ["shard-0002", "shard-0001"]
        manifest["created_shards"] = 3
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        reopened = ShardedVideoDatabase(path=path)
        assert [s.shard_id for s in reopened.shards] == [0, 1]
        assert len(reopened) == len(small_summaries)
        for query in small_summaries[:4]:
            got = reopened.knn(query, 5)
            assert got.videos == small_index.knn(query, 5).videos
        reopened.close()


    def test_regrow_recipe(self, small_summaries, small_index):
        """A fleet grows by rebuilding: fit n + 1 key ranges over every
        shard's summaries and add each one to a new fleet."""
        fleet = make_fleet(small_summaries, "key_range", 2)
        summaries = [s for shard in fleet.shards for s in shard.summaries()]
        grown = ShardedVideoDatabase(
            EPSILON, partitioner=KeyRangePartitioner.fit(summaries, 3)
        )
        for summary in summaries:
            grown.add_summary(summary)
        assert grown.num_shards == 3
        for query in small_summaries[:4]:
            assert grown.knn(query, 5).videos == small_index.knn(query, 5).videos


def in_thread(fn, *args):
    """Start ``fn(*args)`` on a daemon thread; the returned list receives
    its return value or the exception it raised."""
    outcome = []

    def run():
        try:
            outcome.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - checked by the test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def finish(*threads):
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)


class TestRebuildWindow:
    """``rebuild_shard`` side-builds outside the router lock behind a write
    barrier: queries are answered meanwhile, writes wait for the cutover."""

    #: How long a write is given to get past the barrier before the test
    #: calls it blocked; an unblocked write finishes in milliseconds.
    BLOCKED = 0.2

    @pytest.fixture()
    def held(self, small_summaries, tmp_path, monkeypatch):
        """A durable 2-shard fleet whose ``side_build`` waits for
        ``release`` (``started`` is set when one is under way); ``fail``
        makes the held build raise instead of building."""
        import repro.ingest.cutover as cutover

        fleet = make_fleet(
            small_summaries, "key_range", 2, path=str(tmp_path / "fleet")
        )
        fleet.checkpoint()
        started, release, fail = (threading.Event() for _ in range(3))
        original = cutover.side_build

        def holding(database, **kwargs):
            started.set()
            assert release.wait(timeout=30.0)
            if fail.is_set():
                raise RuntimeError("side build failed")
            return original(database, **kwargs)

        monkeypatch.setattr(cutover, "side_build", holding)
        yield fleet, started, release, fail
        release.set()
        fleet.close()

    @staticmethod
    def on_shard_zero(fleet, summaries):
        return [
            s.video_id for s in summaries if fleet.shard_of(s.video_id) == 0
        ]

    def test_queries_are_answered_during_the_side_build(
        self, held, small_summaries, small_index
    ):
        fleet, started, release, _ = held
        rebuilder, outcome = in_thread(fleet.rebuild_shard, 0)
        assert started.wait(timeout=30.0)
        for query in small_summaries[:4]:
            assert fleet.knn(query, 5).videos == small_index.knn(query, 5).videos
        assert rebuilder.is_alive()
        release.set()
        finish(rebuilder)
        assert outcome[0].new_epoch == 1

    def test_writes_wait_and_land_on_the_new_generation(
        self, held, small_summaries
    ):
        fleet, started, release, _ = held
        x, y = self.on_shard_zero(fleet, small_summaries)[:2]

        def write():
            fleet.remove(x)
            fleet.remove(y)
            fleet.add_summary(small_summaries[x])

        rebuilder, _ = in_thread(fleet.rebuild_shard, 0)
        assert started.wait(timeout=30.0)
        writer, written = in_thread(write)
        writer.join(timeout=self.BLOCKED)
        assert writer.is_alive() and written == []
        assert {x, y} <= fleet.shards[0].video_ids()
        release.set()
        finish(rebuilder, writer)
        assert written == [None]
        # y was copied into the new generation, so its absence there
        # shows the writes ran after the cutover.
        database = fleet.shards[0].database
        assert database.epoch == 1
        assert x in database.video_ids() and y not in database.video_ids()
        oracle = VitriIndex.build(
            [s for s in small_summaries if s.video_id != y], EPSILON
        )
        for query in small_summaries[:4]:
            assert fleet.knn(query, 5).videos == oracle.knn(query, 5).videos

    def test_size_and_membership_agree_throughout(self, held, small_summaries):
        """``len(fleet)`` counts what the shards hold and ``video_ids()``
        what the router admitted; ``shard_of`` names a shard holding the
        video.  All three agree before, during and after the window."""
        fleet, started, release, _ = held
        x, y = self.on_shard_zero(fleet, small_summaries)[:2]

        def agree():
            with fleet._lock:  # one view: no write lands between reads
                ids = fleet.video_ids()
                return len(fleet) == len(ids) and all(
                    v in fleet.shards[fleet.shard_of(v)].video_ids()
                    for v in ids
                )

        def write():
            fleet.remove(x)
            fleet.remove(y)
            fleet.add_summary(small_summaries[x])

        samples = [agree()]
        rebuilder, _ = in_thread(fleet.rebuild_shard, 0)
        assert started.wait(timeout=30.0)
        writer, _ = in_thread(write)
        for _ in range(20):
            writer.join(timeout=self.BLOCKED / 20)
            samples.append(agree())
        assert writer.is_alive()
        release.set()
        finish(rebuilder, writer)
        samples.append(agree())
        assert all(samples)
        assert len(fleet) == len(small_summaries) - 1

    def test_checkpoint_and_a_second_rebuild_wait_then_run(self, held):
        fleet, started, release, _ = held
        first, _ = in_thread(fleet.rebuild_shard, 0)
        assert started.wait(timeout=30.0)
        started.clear()
        checkpointer, checkpointed = in_thread(fleet.checkpoint)
        second, rebuilt = in_thread(fleet.rebuild_shard, 0)
        checkpointer.join(timeout=self.BLOCKED)
        second.join(timeout=self.BLOCKED)
        assert checkpointer.is_alive() and second.is_alive()
        assert not started.is_set()  # the second side build has not begun
        release.set()
        finish(first, checkpointer, second)
        assert checkpointed == [None]
        assert rebuilt[0].new_epoch == 2
        assert fleet.shards[0].database.epoch == 2

    def test_a_failed_side_build_releases_every_waiter(
        self, held, small_summaries
    ):
        fleet, started, release, fail = held
        x = self.on_shard_zero(fleet, small_summaries)[0]
        rebuilder, outcome = in_thread(fleet.rebuild_shard, 0)
        assert started.wait(timeout=30.0)
        waiters = [
            in_thread(fleet.remove, x),
            in_thread(fleet.checkpoint),
            in_thread(fleet.build),
        ]
        for thread, _ in waiters:
            thread.join(timeout=self.BLOCKED)
            assert thread.is_alive()
        fail.set()
        release.set()
        finish(rebuilder, *(thread for thread, _ in waiters))
        assert isinstance(outcome[0], RuntimeError)
        assert str(outcome[0]) == "side build failed"
        assert [result for _, result in waiters] == [[None]] * 3
        assert fleet.shards[0].database.epoch == 0
        assert x not in fleet.video_ids()
        assert len(fleet) == len(fleet.video_ids())


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
