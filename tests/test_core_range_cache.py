"""Tests for the engine's second cache tier (``range_cache_size``).

The tier is the spill segment of the engine's buffer pool: pages the
``buffer_capacity`` segment evicts wait there, and a pool miss looks
there before it reads.  Unit tests pin the tier's own contract — size
validation, hit/miss tallies, LRU bounds, a fresh tier per snapshot —
and the engine-level tests pin what makes it safe to enable: rankings
and the logical cost signature are identical with the tier on or off,
only physical reads drop on a hit, and the memory it holds is bounded by
its page count.  The hot-pages/warm round trip is what replica attach
replays, so it is pinned here too.
"""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.index import VitriIndex
from repro.core.summarize import summarize_video
from repro.core.transform import OneDimensionalTransform
from repro.core.vitri import VideoSummary
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.storage.page import PAGE_CONTENT_SIZE
from repro.storage.pager import Pager
from repro.storage.serialization import ViTriRecordCodec
from repro.utils.counters import CostCounters

EPSILON = 0.3


def build_index(**paths):
    config = DatasetConfig(
        dim=8,
        num_families=10,
        family_size=3,
        num_distractors=60,
    )
    dataset = generate_dataset(config, seed=7)
    summaries = [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(dataset.num_videos)
    ]
    index = VitriIndex.build(summaries, EPSILON, buffer_capacity=16, **paths)
    return summaries, index


def held_bytes(engine) -> int:
    """Bytes of page images and record blocks reachable from *engine*,
    not counting the index it serves (its files, pools and model)."""
    shared = (
        VitriIndex,
        Pager,
        OneDimensionalTransform,
        ViTriRecordCodec,
        type,
        types.ModuleType,
        types.FunctionType,
    )
    seen: set[int] = set()
    stack = [engine]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, np.ndarray):
            if obj.base is None:
                total += obj.nbytes
            else:
                stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return total


class TestRangeCacheUnit:
    def test_capacity_validation(self):
        _, index = build_index()
        with pytest.raises(TypeError):
            QueryEngine(index, range_cache_size="four")
        with pytest.raises(TypeError):
            QueryEngine(index, range_cache_size=True)
        with pytest.raises(ValueError):
            QueryEngine(index, range_cache_size=-1)
        assert QueryEngine(index, range_cache_size=0).range_cache_size == 0

    def test_hits_and_misses_are_tallied(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=64
        )
        hits, misses = engine.range_cache_hits, engine.range_cache_misses
        first = CostCounters()
        engine.knn(summaries[0], 3, out_counters=first)
        # Every request the first segment missed is one tier lookup.
        assert first.extra["range_cache_misses"] == first.page_reads > 0
        assert engine.range_cache_misses - misses == first.page_reads
        assert engine.range_cache_hits - hits == first.extra["range_cache_hits"]
        second = CostCounters()
        engine.knn(summaries[0], 3, out_counters=second)
        # Warm: one page fits the first segment, the tier holds the rest.
        assert second.page_reads == 0
        assert second.extra["range_cache_misses"] == 0
        assert second.extra["range_cache_hits"] > 0
        assert engine.range_cache_hits - hits == (
            first.extra["range_cache_hits"] + second.extra["range_cache_hits"]
        )

    def test_hit_charges_records_scanned(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=64
        )
        engine.knn(summaries[3], 3)
        warm, cold = CostCounters(), CostCounters()
        engine.knn(summaries[3], 3, out_counters=warm)
        engine.refresh()  # a fresh pool: the cold scan
        engine.knn(summaries[3], 3, out_counters=cold)
        # Tier hits hand the query the same leaves a cold scan reads.
        assert warm.extra["range_cache_hits"] > 0
        assert warm.page_reads == 0 < cold.page_reads
        assert warm.records_scanned == cold.records_scanned > 0

    def test_lru_eviction_bounds_the_tier(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=2
        )
        for query in summaries:
            engine.knn(query, 3)
        assert len(engine.hot_pages()) == 1 + 2
        # The tier is full and LRU: the query that touched the most
        # pages cannot be served from three of them.
        widest = max(summaries, key=lambda q: index.knn(q, 3).stats.page_requests)
        counters = CostCounters()
        engine.knn(widest, 3, out_counters=counters)
        assert counters.page_reads > 0

    def test_epoch_scoping_on_the_content_token(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=64
        )
        engine.knn(summaries[0], 3)
        assert engine.hot_pages()
        hits = engine.range_cache_hits
        index.insert_video(
            VideoSummary(video_id=10**6, vitris=summaries[0].vitris)
        )
        engine.refresh()
        # A fresh snapshot starts with a fresh pool, holding what a new
        # engine's would: no pre-refresh page image can feed a query.
        # The tallies carry over.
        fresh = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=64
        )
        assert engine.hot_pages() == fresh.hot_pages()
        assert engine.range_cache_hits == hits
        got = engine.knn(summaries[0], 3)
        want = QueryEngine(index, cache_size=0).knn(summaries[0], 3)
        assert got.videos == want.videos
        assert 10**6 in got.videos


class TestEngineRangeTier:
    def test_k_variant_hits_the_range_tier_below_l1(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=32
        )
        bare = QueryEngine(index, buffer_capacity=1, cache_size=0)
        query = summaries[0]
        engine.knn(query, 3)
        assert engine.range_cache_misses > 0

        # Same query, different k: L1 would miss (different key), but
        # the composed ranges cover the same leaves.
        misses_before = engine.range_cache_misses
        hits_before = engine.range_cache_hits
        got = engine.knn(query, 5)
        want = bare.knn(query, 5)
        assert engine.range_cache_hits > hits_before
        assert engine.range_cache_misses == misses_before
        assert got.videos == want.videos
        assert [repr(s) for s in got.scores] == [repr(s) for s in want.scores]

    def test_logical_signature_identical_tier_on_or_off(self):
        summaries, index = build_index()
        engine = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=32
        )
        bare = QueryEngine(index, buffer_capacity=1, cache_size=0)
        query = summaries[1]
        engine.knn(query, 3)  # heat the tier

        cached_counters = CostCounters()
        bare_counters = CostCounters()
        engine.knn(query, 3, out_counters=cached_counters)
        bare.knn(query, 3, out_counters=bare_counters)  # a fresh pool
        for field in (
            "similarity_computations",
            "distance_computations",
            "records_scanned",
            "records_decoded",
            "page_requests",
            "btree_node_visits",
        ):
            assert getattr(cached_counters, field) == getattr(
                bare_counters, field
            ), field
        # The tier's whole point: served from memory, no physical read.
        assert cached_counters.page_reads == 0
        assert bare_counters.page_reads > 0

    def test_warm_replays_another_engines_hot_pages(self):
        summaries, index = build_index()
        source = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=32
        )
        target = QueryEngine(
            index, buffer_capacity=1, cache_size=0, range_cache_size=32
        )
        query = summaries[2]
        want = source.knn(query, 4)
        hot = source.hot_pages()
        assert hot

        assert target.warm(hot) == len(hot)
        assert target.hot_pages() == hot
        counters = CostCounters()
        got = target.knn(query, 4, out_counters=counters)
        assert counters.page_reads == 0
        assert got.videos == want.videos
        assert [repr(s) for s in got.scores] == [repr(s) for s in want.scores]

    def test_disabled_tier_reports_zeroes(self):
        summaries, index = build_index()
        engine = QueryEngine(index, buffer_capacity=8, cache_size=0)
        counters = CostCounters()
        engine.knn(summaries[0], 3, out_counters=counters)
        assert "range_cache_hits" not in counters.extra
        assert engine.range_cache_size == 0
        assert engine.range_cache_hits == 0
        assert engine.range_cache_misses == 0
        assert engine.hot_pages() == []
        assert engine.warm([0]) == 0

    def test_memory_bounded_by_page_count(self, tmp_path):
        """Pool and tier together hold at most ``buffer_capacity +
        range_cache_size`` page images, however many distinct queries
        ran and however much their ranges overlap."""
        summaries, index = build_index(
            btree_path=str(tmp_path / "index.btree"),
            heap_path=str(tmp_path / "index.heap"),
        )
        capacity, tier = 2, 4
        engine = QueryEngine(
            index, buffer_capacity=capacity, cache_size=0, range_cache_size=tier
        )
        for query in summaries:
            engine.knn(query, 3)
        assert held_bytes(engine) <= (capacity + tier) * PAGE_CONTENT_SIZE
        assert len(engine.hot_pages()) == capacity + tier  # the bound is met
