"""Tests for the VitriIndex (paper Section 5)."""

import math

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScan
from repro.core.index import VitriIndex
from repro.core.similarity import video_similarity
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary, ViTri
from tests.threshold_recipe import at_least

EPSILON = 0.3


def brute_force_knn(summaries, query, k):
    """Reference implementation: full pairwise video similarity."""
    scored = []
    for summary in summaries:
        score = video_similarity(query, summary)
        if score > 0.0:
            scored.append((summary.video_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(video for video, _ in scored[:k])


class TestBuild:
    def test_basic_properties(self, small_index, small_summaries):
        assert small_index.num_videos == len(small_summaries)
        assert small_index.num_vitris == sum(len(s) for s in small_summaries)
        assert small_index.epsilon == EPSILON
        assert small_index.dim == small_summaries[0].dim

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VitriIndex.build([], EPSILON)

    def test_duplicate_video_ids_rejected(self, small_summaries):
        with pytest.raises(ValueError, match="duplicate"):
            VitriIndex.build(
                [small_summaries[0], small_summaries[0]], EPSILON
            )

    def test_mixed_dims_rejected(self, small_summaries):
        other = VideoSummary(
            video_id=999,
            vitris=(ViTri(position=np.zeros(3), radius=0.1, count=1),),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            VitriIndex.build([small_summaries[0], other], EPSILON)

    def test_direct_construction_rejected(self):
        with pytest.raises(RuntimeError):
            VitriIndex()

    def test_heap_clustered_by_key(self, small_index):
        """Bulk build numbers ViTri records in key order, so the
        sequential scan's heap (vitri_id order) is key-clustered too."""
        keys = []
        codec = small_index._codec
        for _, payload in SequentialScan(small_index).heap.scan():
            record = codec.decode(payload)
            keys.append(small_index.transform.key(record.position))
        assert keys == sorted(keys)


class TestKnn:
    def test_matches_brute_force(self, small_index, small_summaries):
        for query_id in (0, 3, 7, 12):
            query = small_summaries[query_id]
            expected = brute_force_knn(small_summaries, query, 5)
            got = small_index.knn(query, 5).videos
            assert got == expected

    def test_naive_equals_composed(self, small_index, small_summaries):
        for query_id in (0, 5, 10):
            query = small_summaries[query_id]
            composed = small_index.knn(query, 8, method="composed", cold=True)
            naive = small_index.knn(query, 8, method="naive", cold=True)
            assert composed.videos == naive.videos
            assert np.allclose(composed.scores, naive.scores)

    def test_matches_sequential_scan(self, small_index, small_summaries):
        scan = SequentialScan(small_index)
        for query_id in (1, 6, 14):
            query = small_summaries[query_id]
            a = small_index.knn(query, 10, cold=True)
            b = scan.knn(query, 10)
            assert a.videos == b.videos
            assert np.allclose(a.scores, b.scores)

    def test_self_query_ranks_first(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[4], 3)
        assert result.videos[0] == 4
        assert result.scores[0] == pytest.approx(1.0)

    def test_scores_sorted_descending(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[0], 10)
        assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_k_larger_than_matches(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[0], 10_000)
        assert len(result) <= small_index.num_videos

    def test_stats_populated(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[0], 5, cold=True)
        stats = result.stats
        assert stats.page_requests > 0
        assert stats.physical_reads > 0
        assert stats.similarity_computations > 0
        assert stats.ranges >= 1
        assert stats.wall_time >= 0.0

    def test_naive_costs_at_least_composed(self, small_index, small_summaries):
        # Query composition can only reduce page accesses.
        for query_id in range(0, 15, 3):
            query = small_summaries[query_id]
            composed = small_index.knn(query, 5, method="composed", cold=True)
            naive = small_index.knn(query, 5, method="naive", cold=True)
            assert naive.stats.page_requests >= composed.stats.page_requests

    def test_warm_cache_fewer_physical_reads(self, small_index, small_summaries):
        query = small_summaries[2]
        small_index.knn(query, 5, cold=True)
        warm = small_index.knn(query, 5, cold=False)
        assert warm.stats.physical_reads == 0

    def test_invalid_arguments(self, small_index, small_summaries):
        with pytest.raises(ValueError):
            small_index.knn(small_summaries[0], 0)
        with pytest.raises(ValueError):
            small_index.knn(small_summaries[0], 5, method="magic")
        with pytest.raises(TypeError):
            small_index.knn("not a summary", 5)

    def test_dim_mismatch(self, small_index):
        query = VideoSummary(
            video_id=0,
            vitris=(ViTri(position=np.zeros(3), radius=0.1, count=1),),
        )
        with pytest.raises(ValueError):
            small_index.knn(query, 5)


class TestDynamicInsertion:
    def build_pair(self, small_summaries):
        """An index built on a prefix, to insert the rest dynamically."""
        static = VitriIndex.build(small_summaries[:10], EPSILON)
        return static

    def test_insert_then_query(self, small_summaries):
        index = self.build_pair(small_summaries)
        for summary in small_summaries[10:]:
            index.insert_video(summary)
        assert index.num_videos == len(small_summaries)
        # Dynamic index returns the same results as a one-off build.
        full = VitriIndex.build(small_summaries, EPSILON)
        for query_id in (0, 11, 15):
            a = index.knn(small_summaries[query_id], 5, cold=True)
            b = full.knn(small_summaries[query_id], 5, cold=True)
            assert a.videos == b.videos

    def test_duplicate_insert_rejected(self, small_summaries):
        index = self.build_pair(small_summaries)
        with pytest.raises(ValueError, match="already indexed"):
            index.insert_video(small_summaries[0])

    def test_insert_wrong_dim(self, small_summaries):
        index = self.build_pair(small_summaries)
        bad = VideoSummary(
            video_id=999,
            vitris=(ViTri(position=np.zeros(3), radius=0.1, count=1),),
        )
        with pytest.raises(ValueError):
            index.insert_video(bad)

    def test_drift_angle_small_for_same_distribution(self, small_summaries):
        index = self.build_pair(small_summaries)
        for summary in small_summaries[10:]:
            index.insert_video(summary)
        assert index.drift_angle() < math.radians(30.0)

    def test_rebuild_preserves_results(self, small_summaries):
        index = self.build_pair(small_summaries)
        for summary in small_summaries[10:]:
            index.insert_video(summary)
        rebuilt = index.rebuild()
        assert rebuilt.num_videos == index.num_videos
        assert rebuilt.num_vitris == index.num_vitris
        for query_id in (0, 12):
            a = index.knn(small_summaries[query_id], 5, cold=True)
            b = rebuilt.knn(small_summaries[query_id], 5, cold=True)
            assert a.videos == b.videos
            assert np.allclose(a.scores, b.scores)


class TestContentToken:
    @staticmethod
    def hashed_from_scratch(index):
        """The token's definition, recomputed without the memo."""
        import hashlib
        import struct

        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            struct.pack(
                "<IdQQ",
                index.dim,
                index.epsilon,
                index.meta_dict()["next_vitri_id"],
                index.num_vitris,
            )
        )
        digest.update(index.transform.reference_point_.tobytes())
        for video_id, frames in sorted(index.video_frames.items()):
            digest.update(struct.pack("<QQ", video_id, frames))
        return digest.hexdigest()

    def test_memoised_until_the_content_changes(self, small_summaries, monkeypatch):
        import hashlib

        index = VitriIndex.build(small_summaries[:10], EPSILON)
        token = index.content_token()
        assert token == self.hashed_from_scratch(index)

        hashed = []
        real = hashlib.blake2b
        monkeypatch.setattr(
            "repro.core.index.hashlib.blake2b",
            lambda *a, **kw: hashed.append(1) or real(*a, **kw),
        )
        assert index.content_token() == token
        assert hashed == []  # a shard asks twice per query: no rehash

        index.insert_video(small_summaries[10])
        inserted = index.content_token()
        assert inserted != token
        assert inserted == self.hashed_from_scratch(index)
        index.remove_video(small_summaries[3].video_id)
        removed = index.content_token()
        assert removed not in (token, inserted)
        assert removed == self.hashed_from_scratch(index)
        assert len(hashed) == 4  # one per change, plus the test's own two

    def test_a_refused_insert_keeps_the_token(self, small_summaries):
        index = VitriIndex.build(small_summaries[:10], EPSILON)
        token = index.content_token()
        with pytest.raises(ValueError, match="already indexed"):
            index.insert_video(small_summaries[0])
        assert index.content_token() == token == self.hashed_from_scratch(index)


class TestSimilarityRange:
    """Every video scoring at least a threshold: a full ``knn`` ranking
    cut at the threshold (:func:`tests.threshold_recipe.at_least`)."""

    def test_threshold_filtering(self, small_index, small_summaries):
        """The full ranking holds every video a brute-force score of all
        stored summaries puts at or above the threshold."""
        query = small_summaries[0]
        everything = small_index.knn(query, small_index.num_videos)
        brute = {
            summary.video_id: video_similarity(query, summary)
            for summary in small_summaries
        }
        for threshold in (0.05, 0.3, 0.9):
            videos, scores = at_least(everything, threshold)
            assert set(videos) == {
                video for video, score in brute.items() if score >= threshold
            }
            assert all(s >= threshold for s in scores)

    def test_self_always_included_at_one(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[5], small_index.num_videos)
        assert 5 in at_least(result, 1.0)[0]

    def test_sorted_descending(self, small_index, small_summaries):
        result = small_index.knn(small_summaries[0], small_index.num_videos)
        scores = at_least(result, 0.01)[1]
        assert list(scores) == sorted(scores, reverse=True)


class TestRadiusValidation:
    """Indexed radii must respect R <= eps/2, or the key filter would
    silently miss results (the summary must use the index's epsilon)."""

    def oversized_summary(self, dim):
        return VideoSummary(
            video_id=5000,
            vitris=(ViTri(position=np.zeros(dim), radius=0.9, count=3),),
        )

    def test_build_rejects_oversized_radius(self, small_summaries):
        bad = self.oversized_summary(small_summaries[0].dim)
        with pytest.raises(ValueError, match="epsilon"):
            VitriIndex.build([small_summaries[0], bad], EPSILON)

    def test_insert_rejects_oversized_radius(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        with pytest.raises(ValueError, match="epsilon"):
            index.insert_video(self.oversized_summary(small_summaries[0].dim))

    def test_boundary_radius_accepted(self, small_summaries):
        dim = small_summaries[0].dim
        boundary = VideoSummary(
            video_id=5001,
            vitris=(
                ViTri(position=np.zeros(dim), radius=EPSILON / 2.0, count=3),
            ),
        )
        index = VitriIndex.build(small_summaries, EPSILON)
        index.insert_video(boundary)  # must not raise


class TestSimilarityRangeBoundaries:
    def test_threshold_exactly_one(self, small_index, small_summaries):
        query = small_summaries[3]
        result = small_index.knn(query, small_index.num_videos)
        videos, scores = at_least(result, 1.0)
        # The video itself always scores 1.0, so the boundary keeps it.
        assert query.video_id in videos
        assert all(score >= 1.0 - 1e-12 for score in scores)

    def test_threshold_just_above_zero(self, small_index, small_summaries):
        """The full ranking is every candidate video: none scores zero,
        so a threshold just above zero keeps them all."""
        query = small_summaries[0]
        full = small_index.knn(query, small_index.num_videos)
        assert at_least(full, 1e-12)[0] == full.videos

    def test_reports_own_stats(self, small_index, small_summaries):
        """A full ranking costs the candidate pass of any ``k``: the cut
        happens after the pass, so every logical cost field agrees over
        the same warm pools (only wall_time may differ)."""
        query = small_summaries[2]
        result = small_index.knn(query, small_index.num_videos)
        knn_stats = small_index.knn(query, 1).stats
        assert result.stats.ranges > 0
        assert result.stats.candidates > 0
        assert result.stats.page_requests > 0
        assert result.stats.page_requests == knn_stats.page_requests
        assert result.stats.node_visits == knn_stats.node_visits
        assert (
            result.stats.similarity_computations
            == knn_stats.similarity_computations
        )
        assert result.stats.candidates == knn_stats.candidates
        assert result.stats.ranges == knn_stats.ranges


class TestConcurrentAccounting:
    """Regression for the global-delta accounting bug: two queries running
    in lockstep must each report exactly their solo-run stats.  (The old
    implementation derived QueryStats from before/after deltas of the
    shared pool counters, so interleaved queries swallowed each other's
    page accesses.)"""

    def test_lockstep_queries_report_solo_stats(self, small_summaries):
        import sys
        import threading

        index = VitriIndex.build(small_summaries, EPSILON)
        queries = [small_summaries[0], small_summaries[7]]
        k = 5

        # Warm the pools so physical reads are deterministically zero and
        # every remaining stats field is interleave-independent.
        for query in queries:
            index.knn(query, k)
        solo = [index.knn(query, k).stats for query in queries]

        observed: dict[int, object] = {}
        barrier = threading.Barrier(len(queries))

        def run(slot: int) -> None:
            barrier.wait()
            observed[slot] = index.knn(queries[slot], k).stats

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force tight interleaving
        try:
            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(len(queries))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)

        for slot, expected in enumerate(solo):
            got = observed[slot]
            assert got.page_requests == expected.page_requests
            assert got.physical_reads == expected.physical_reads
            assert got.node_visits == expected.node_visits
            assert (
                got.similarity_computations
                == expected.similarity_computations
            )
            assert got.candidates == expected.candidates
            assert got.ranges == expected.ranges


class TestConcurrentInsertAndQuery:
    """Lockstep insert + knn on one index: the serving snapshot contract.

    :class:`~repro.core.engine.QueryEngine` treats the pager as a
    read-only snapshot; ``insert_video`` keeps its mutations in the
    index's own buffer pool until the next flush.  So queries served
    *during* an insert must be bit-identical to pre-insert queries —
    never a mixed state — and only an explicit ``refresh()`` (which
    flushes and re-snapshots) makes the new video visible.
    """

    def test_snapshot_stable_during_insert_refresh_sees_it(
        self, small_summaries, small_dataset
    ):
        import sys
        import threading

        from repro.core.engine import QueryEngine

        base = list(small_summaries)
        index = VitriIndex.build(base, EPSILON)
        # cache_size=0: every query re-executes against the snapshot
        # instead of replaying a memoised ranking.
        engine = QueryEngine(index, cache_size=0)
        k = 5
        probes = base[:3]
        before = [
            (tuple(r.videos), tuple(r.scores))
            for r in (engine.knn(probe, k) for probe in probes)
        ]

        # Newcomers reuse existing videos' frames, so post-insert they
        # tie the originals at full similarity — guaranteed to crack
        # the originals' top-k once visible.
        newcomers = [
            summarize_video(
                len(base) + i, small_dataset.frames(i), EPSILON, seed=777 + i
            )
            for i in range(3)
        ]

        served: list = []
        barrier = threading.Barrier(2)

        def writer() -> None:
            barrier.wait()
            for newcomer in newcomers:
                index.insert_video(newcomer)

        def reader() -> None:
            barrier.wait()
            for _ in range(8):
                for probe in probes:
                    result = engine.knn(probe, k)
                    served.append((tuple(result.videos), tuple(result.scores)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force tight interleaving
        try:
            threads = [
                threading.Thread(target=writer),
                threading.Thread(target=reader),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)

        # Every mid-insert query matched its pre-insert ranking exactly.
        assert served == before * 8

        # The mutation is real — the index itself serves the newcomers —
        # but the engine's snapshot still predates it.
        new_ids = {summary.video_id for summary in newcomers}
        assert new_ids & set(index.knn(probes[0], k + 3).videos)
        assert engine.snapshot_token != index.content_token()
        stale = engine.knn(probes[0], k)
        assert not new_ids & set(stale.videos)

        engine.refresh()
        assert engine.snapshot_token == index.content_token()
        oracle = VitriIndex.build(base + newcomers, EPSILON)
        for probe in probes:
            expected = oracle.knn(probe, k)
            got = engine.knn(probe, k)
            assert tuple(got.videos) == tuple(expected.videos)
            assert np.allclose(got.scores, expected.scores)
        assert new_ids & set(engine.knn(probes[0], k).videos)
