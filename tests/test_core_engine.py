"""Tests for the serving engine (repro.core.engine)."""

import threading

import pytest

from repro.core.engine import QueryEngine, query_fingerprint
from repro.core.index import VitriIndex
from repro.utils.counters import CostCounters
from tests.test_golden_rankings import SEEDS, build_corpus
from tests.threshold_recipe import at_least

EPSILON = 0.3


def logical_fields(stats):
    """Every QueryStats field except wall_time."""
    return (
        stats.page_requests,
        stats.physical_reads,
        stats.node_visits,
        stats.similarity_computations,
        stats.candidates,
        stats.ranges,
    )


def serve_concurrently(engine, queries, k, workers, **kwargs):
    """``workers`` threads pull *queries* from a shared cursor and call
    ``engine.knn``; returns ``(results in query order, per-worker
    out_counters bundles)``."""
    results = [None] * len(queries)
    bundles = [CostCounters() for _ in range(workers)]
    cursor = iter(range(len(queries)))
    cursor_lock = threading.Lock()
    errors = []

    def run(worker):
        try:
            while True:
                with cursor_lock:
                    position = next(cursor, None)
                if position is None:
                    return
                results[position] = engine.knn(
                    queries[position], k, out_counters=bundles[worker], **kwargs
                )
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors, errors
    return results, bundles


class TestConstruction:
    def test_rejects_non_index(self):
        with pytest.raises(TypeError, match="VitriIndex"):
            QueryEngine(object())

    def test_rejects_bad_capacity(self, small_index):
        with pytest.raises(ValueError):
            QueryEngine(small_index, buffer_capacity=0)
        with pytest.raises(TypeError):
            QueryEngine(small_index, buffer_capacity="big")

    def test_rejects_bad_cache_size(self, small_index):
        with pytest.raises(ValueError):
            QueryEngine(small_index, cache_size=-1)
        with pytest.raises(TypeError):
            QueryEngine(small_index, cache_size=True)


class TestSingleQuery:
    def test_matches_index_knn(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=0)
        for query in small_summaries[:6]:
            served = engine.knn(query, 5)
            direct = small_index.knn(query, 5)
            assert served.videos == direct.videos
            assert served.scores == direct.scores

    def test_validates_arguments(self, small_index, small_summaries):
        engine = QueryEngine(small_index)
        with pytest.raises(TypeError):
            engine.knn("nope", 5)
        with pytest.raises(ValueError):
            engine.knn(small_summaries[0], 0)
        with pytest.raises(ValueError):
            engine.knn(small_summaries[0], 5, method="magic")

    def test_k_larger_than_num_videos(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=0)
        result = engine.knn(small_summaries[0], 10_000)
        assert 0 < len(result.videos) <= small_index.num_videos
        direct = small_index.knn(small_summaries[0], 10_000)
        assert result.videos == direct.videos


class TestKnnMany:
    """Many threads calling ``engine.knn`` at once over the engine's one
    shared view — the gates the deleted ``knn_many`` batch entry point
    carried (ids kept; see EXPERIMENTS.md gate ledger, PR 24)."""

    def test_workers4_rankings_identical_to_serial(
        self, small_index, small_summaries
    ):
        queries = list(small_summaries) + list(small_summaries[:4])
        serial = [small_index.knn(query, 5) for query in queries]
        engine = QueryEngine(small_index, cache_size=0)
        results, _ = serve_concurrently(engine, queries, 5, workers=4)
        for expected, got in zip(serial, results):
            assert got.videos == expected.videos
            assert got.scores == expected.scores

    def test_per_query_stats_equal_solo_runs(
        self, small_index, small_summaries
    ):
        """Under 4 threads every query's logical stats equal its solo
        run.  (Physical reads are excluded: the threads share one pool,
        so who finds a page cached depends on the interleaving.)"""
        queries = list(small_summaries[:10])
        engine = QueryEngine(small_index, buffer_capacity=64, cache_size=0)
        results, _ = serve_concurrently(engine, queries, 5, workers=4)
        solo_engine = QueryEngine(
            small_index, buffer_capacity=64, cache_size=0
        )
        for query, got in zip(queries, results):
            expected = solo_engine.knn(query, 5)
            want = logical_fields(expected.stats)
            have = logical_fields(got.stats)
            assert have[0] == want[0] and have[2:] == want[2:]

    def test_stress_counters_lose_no_updates(
        self, small_index, small_summaries
    ):
        """N threads x M queries: the callers' ``out_counters`` bundles
        must sum to the per-query stats exactly, the L1 tallies must
        account for every call (no lost updates), and the rankings must
        equal the serial ones."""
        queries = list(small_summaries) * 4  # 80 queries
        engine = QueryEngine(small_index, buffer_capacity=32, cache_size=4)
        results, bundles = serve_concurrently(engine, queries, 5, workers=8)
        assert engine.cache_hits + engine.cache_misses == len(queries)
        # A hit folds nothing into out_counters, so only the executed
        # results' (distinct objects) costs are in the bundles.
        executed = {id(result): result for result in results}.values()
        assert len(executed) == engine.cache_misses
        assert sum(b.page_requests for b in bundles) == sum(
            result.stats.page_requests for result in executed
        )
        assert sum(b.page_reads for b in bundles) == sum(
            result.stats.physical_reads for result in executed
        )
        serial = [small_index.knn(query, 5) for query in queries]
        for expected, got in zip(serial, results):
            assert got.videos == expected.videos

    def test_results_in_query_order(self, small_index, small_summaries):
        """No cross-talk: each concurrent caller gets *its* query's
        answer (a self-query always ranks itself first)."""
        engine = QueryEngine(small_index, cache_size=0)
        results, _ = serve_concurrently(
            engine, list(small_summaries), 3, workers=4
        )
        for query, result in zip(small_summaries, results):
            assert result.videos[0] == query.video_id

    def test_empty_batch(self, small_index):
        """An engine that has served nothing reports nothing."""
        engine = QueryEngine(small_index, range_cache_size=4)
        results, bundles = serve_concurrently(engine, [], 5, workers=2)
        assert results == []
        assert all(bundle.page_requests == 0 for bundle in bundles)
        assert engine.cache_hits == engine.cache_misses == 0
        assert engine.cache_len == 0
        assert engine.range_cache_hits == 0

    def test_validates_workers(self, small_index, small_summaries):
        """Every worker count returns the serial rankings and scores."""
        queries = list(small_summaries[:8])
        serial = [small_index.knn(query, 5) for query in queries]
        for workers in (1, 2, 8):
            engine = QueryEngine(small_index, cache_size=0)
            results, _ = serve_concurrently(engine, queries, 5, workers)
            assert [(r.videos, r.scores) for r in results] == [
                (r.videos, r.scores) for r in serial
            ]

class TestResultCache:
    def test_hit_returns_memoised_result(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=8)
        first = engine.knn(small_summaries[0], 5)
        second = engine.knn(small_summaries[0], 5)
        assert second is first  # memoised object, original stats included
        assert engine.cache_hits == 1
        assert engine.cache_misses == 1

    def test_cached_vs_cold_stats_consistent(
        self, small_index, small_summaries
    ):
        """A cache hit must replay the cold run's stats verbatim — the
        memoised QueryStats, not a recomputed (warm) one."""
        engine = QueryEngine(small_index, buffer_capacity=64, cache_size=8)
        cold = engine.knn(small_summaries[1], 5, cold=True)
        cached = engine.knn(small_summaries[1], 5, cold=True)
        assert logical_fields(cached.stats) == logical_fields(cold.stats)
        assert cached.stats.physical_reads > 0  # the cold run's reads

    def test_key_includes_k_and_method(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=8)
        engine.knn(small_summaries[0], 5)
        engine.knn(small_summaries[0], 6)
        engine.knn(small_summaries[0], 5, method="naive")
        assert engine.cache_hits == 0
        assert engine.cache_misses == 3

    def test_lru_eviction(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=1)
        engine.knn(small_summaries[0], 5)
        engine.knn(small_summaries[1], 5)  # evicts query 0
        assert engine.cache_len == 1
        engine.knn(small_summaries[0], 5)
        assert engine.cache_hits == 0

    def test_cache_disabled(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=0)
        engine.knn(small_summaries[0], 5)
        engine.knn(small_summaries[0], 5)
        assert engine.cache_hits == 0
        assert engine.cache_len == 0

    def test_clear_cache(self, small_index, small_summaries):
        engine = QueryEngine(small_index, cache_size=8)
        engine.knn(small_summaries[0], 5)
        engine.clear_cache()
        assert engine.cache_len == 0
        engine.knn(small_summaries[0], 5)
        assert engine.cache_hits == 0

    def test_batch_reports_hits(self, small_index, small_summaries):
        """Four repeats: one miss pays for the query, three hits fold
        nothing into the caller's bundle."""
        engine = QueryEngine(small_index, cache_size=8)
        counters = CostCounters()
        results = [
            engine.knn(small_summaries[0], 5, out_counters=counters)
            for _ in range(4)
        ]
        assert engine.cache_hits == 3
        assert engine.cache_misses == 1
        assert counters.page_requests == results[0].stats.page_requests


class TestFingerprint:
    def test_content_based(self, small_summaries):
        import copy

        clone = copy.deepcopy(small_summaries[0])
        assert query_fingerprint(clone) == query_fingerprint(
            small_summaries[0]
        )
        assert query_fingerprint(small_summaries[0]) != query_fingerprint(
            small_summaries[1]
        )

    def test_rejects_non_summary(self):
        with pytest.raises(TypeError):
            query_fingerprint({"video_id": 1})


class TestDegenerate:
    def test_engine_over_emptied_index(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        for summary in small_summaries:
            index.remove_video(summary.video_id)
        engine = QueryEngine(index)
        result = engine.knn(small_summaries[0], 5)
        assert result.videos == ()

    def test_snapshot_reflects_build_time_state(self, small_summaries):
        """The engine serves the index as of construction (snapshot)."""
        index = VitriIndex.build(small_summaries[:-1], EPSILON)
        engine = QueryEngine(index, cache_size=0)
        before = engine.knn(small_summaries[0], 20)
        assert small_summaries[-1].video_id not in before.videos


class TestCacheEpoch:
    """Regression: the result-cache key must include a content token.

    A fingerprint of only (query, k, method) would keep serving rankings
    computed over *old* content after the index mutates and the engine
    refreshes — the sharded router relies on this invalidation every time
    a shard's content changes between queries.
    """

    def test_refresh_invalidates_stale_cached_results(self, small_summaries):
        index = VitriIndex.build(small_summaries[:-1], EPSILON)
        engine = QueryEngine(index, cache_size=8)
        query = small_summaries[-1]
        stale = engine.knn(query, 5)
        assert engine.knn(query, 5) is stale  # memoised pre-mutation
        assert query.video_id not in stale.videos

        index.insert_video(small_summaries[-1])
        engine.refresh()
        fresh = engine.knn(query, 5)
        assert fresh is not stale
        # The inserted video is its own best match; a stale cache entry
        # could never contain it.
        assert fresh.videos[0] == query.video_id

    def test_token_moves_with_content(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        engine = QueryEngine(index, cache_size=8)
        token = engine.snapshot_token
        assert token == index.content_token()
        index.remove_video(small_summaries[0].video_id)
        assert index.content_token() != token
        engine.refresh()
        assert engine.snapshot_token == index.content_token()

    def test_removal_drops_video_from_refreshed_results(
        self, small_summaries
    ):
        index = VitriIndex.build(small_summaries, EPSILON)
        engine = QueryEngine(index, cache_size=8)
        query = small_summaries[0]
        before = engine.knn(query, 5)
        assert before.videos[0] == query.video_id
        index.remove_video(query.video_id)
        engine.refresh()
        after = engine.knn(query, 5)
        assert query.video_id not in after.videos

    def test_query_overlapping_refresh_caches_one_snapshot(
        self, small_summaries, monkeypatch
    ):
        """A query that runs while refresh() is half done must compute
        and cache under one snapshot.  Swapping the token before the
        tree let it cache the old tree's ranking under the new token,
        which every later query then hit."""
        from repro.btree.tree import BPlusTree
        from repro.core.vitri import VideoSummary

        index = VitriIndex.build(small_summaries, EPSILON)
        engine = QueryEngine(index, cache_size=8)
        query = small_summaries[0]
        engine.knn(query, 5)
        twin = VideoSummary(video_id=10**6, vitris=query.vitris)
        index.insert_video(twin)

        opening, release = threading.Event(), threading.Event()
        open_tree = BPlusTree.open

        def blocked_open(cls, pool):
            opening.set()
            assert release.wait(timeout=30)
            return open_tree(pool)

        monkeypatch.setattr(BPlusTree, "open", classmethod(blocked_open))
        refresher = threading.Thread(target=engine.refresh)
        refresher.start()
        try:
            assert opening.wait(timeout=30)
            engine.knn(query, 5)  # overlaps the refresh
        finally:
            release.set()
            refresher.join(timeout=30)
        assert not refresher.is_alive()
        monkeypatch.undo()

        got = engine.knn(query, 5)
        want = QueryEngine(index, cache_size=0).knn(query, 5)
        assert twin.video_id in want.videos
        assert (got.videos, got.scores) == (want.videos, want.scores)

    def test_distinct_indexes_never_share_entries(self, small_summaries):
        """Two engines over different content must not collide even if
        they see the same (query, k, method) triple."""
        left = VitriIndex.build(small_summaries[:10], EPSILON)
        right = VitriIndex.build(small_summaries[10:], EPSILON)
        assert left.content_token() != right.content_token()
        query = small_summaries[0]
        served_left = QueryEngine(left, cache_size=8).knn(query, 20)
        served_right = QueryEngine(right, cache_size=8).knn(query, 20)
        assert set(served_left.videos).isdisjoint(served_right.videos)


class TestSimilarityRange:
    """The threshold recipe (a full ranking cut at the threshold, see
    :mod:`tests.threshold_recipe`) goes through the same executor,
    snapshot and caches as any other ``knn``."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("method", ["composed", "naive"])
    def test_bit_identical_to_the_index_on_the_golden_corpora(
        self, seed, method
    ):
        summaries, index = build_corpus(seed)
        engine = QueryEngine(index, buffer_capacity=64, cache_size=0)
        every = index.num_videos
        for query in summaries:
            served = engine.knn(query, every, method=method, cold=True)
            direct = index.knn(query, every, method=method, cold=True)
            for threshold in (0.05, 0.5):
                assert at_least(served, threshold) == at_least(
                    direct, threshold
                )
            assert logical_fields(served.stats) == logical_fields(
                direct.stats
            )

    def test_repeats_are_l1_hits_that_read_nothing(
        self, small_index, small_summaries
    ):
        engine = QueryEngine(small_index, cache_size=8)
        every = small_index.num_videos
        first = engine.knn(small_summaries[0], every)
        counters = CostCounters()
        again = engine.knn(small_summaries[0], every, out_counters=counters)
        assert again is first
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        assert counters.page_requests == 0
