"""Tests for placement strategies (repro.shard.partitioner)."""

import numpy as np
import pytest

from repro.shard.partitioner import (
    HashPartitioner,
    KeyRangePartitioner,
    Partitioner,
    _mix64,
    make_partitioner,
    partitioner_from_dict,
)
from repro.utils.validation import MAX_SHARDS


class TestMix64:
    def test_known_value(self):
        # SplitMix64's first output for seed 0 — a cross-implementation
        # constant, so placement is stable across processes and versions.
        assert _mix64(0) == 0xE220A8397B1DCDAF

    def test_deterministic_and_spread(self):
        values = [_mix64(i) for i in range(64)]
        assert values == [_mix64(i) for i in range(64)]
        assert len(set(values)) == 64
        assert all(0 <= v < 2**64 for v in values)


class TestHashPartitioner:
    def test_routes_in_range_and_deterministic(self, small_summaries):
        part = HashPartitioner(4)
        shards = [part.shard_for(s) for s in small_summaries]
        assert all(0 <= shard < 4 for shard in shards)
        assert shards == [part.shard_for(s) for s in small_summaries]

    def test_spreads_across_shards(self, small_summaries):
        part = HashPartitioner(4)
        used = {part.shard_for(s) for s in small_summaries}
        assert len(used) > 1  # 20 videos cannot all hash to one shard

    def test_rejects_non_summary(self):
        with pytest.raises(TypeError):
            HashPartitioner(2).shard_for("video")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            HashPartitioner(MAX_SHARDS + 1)

    def test_dict_round_trip(self, small_summaries):
        part = HashPartitioner(8)
        rebuilt = partitioner_from_dict(part.to_dict())
        assert isinstance(rebuilt, HashPartitioner)
        assert rebuilt.num_shards == 8
        assert [rebuilt.shard_for(s) for s in small_summaries] == [
            part.shard_for(s) for s in small_summaries
        ]

    def test_name(self):
        assert HashPartitioner(2).name == "hash"


class TestKeyRangePartitioner:
    def test_routing_key_matches_mean_distance(self, small_summaries):
        part = KeyRangePartitioner([0.5])
        summary = small_summaries[0]
        positions = summary.positions()
        expected = float(np.linalg.norm(positions, axis=1).mean())
        assert part.routing_key(summary) == pytest.approx(expected)

    def test_routing_key_honours_reference_point(self, small_summaries):
        summary = small_summaries[0]
        positions = summary.positions()
        reference = positions.mean(axis=0)
        part = KeyRangePartitioner([0.5], reference_point=reference)
        expected = float(
            np.linalg.norm(positions - reference, axis=1).mean()
        )
        assert part.routing_key(summary) == pytest.approx(expected)
        # Distances to the centroid are smaller than to the origin.
        assert part.routing_key(summary) < KeyRangePartitioner(
            [0.5]
        ).routing_key(summary)

    def test_reference_dimension_mismatch(self, small_summaries):
        part = KeyRangePartitioner([0.5], reference_point=np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            part.routing_key(small_summaries[0])

    def test_shard_for_bisects(self, small_summaries):
        part = KeyRangePartitioner.fit(small_summaries, 4)
        boundaries = part.boundaries
        for summary in small_summaries:
            key = part.routing_key(summary)
            shard = part.shard_for(summary)
            assert 0 <= shard < 4
            if shard > 0:
                assert key >= boundaries[shard - 1]
            if shard < 3:
                assert key < boundaries[shard]

    def test_fit_balances(self, small_summaries):
        part = KeyRangePartitioner.fit(small_summaries, 4)
        counts = [0] * 4
        for summary in small_summaries:
            counts[part.shard_for(summary)] += 1
        # Quantile boundaries: no shard may be empty or hold everything.
        assert all(count > 0 for count in counts)
        assert max(counts) < len(small_summaries)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            KeyRangePartitioner.fit([], 2)

    def test_uniform_boundaries(self):
        part = KeyRangePartitioner.uniform(4, low=0.0, high=1.0)
        assert part.boundaries == (0.25, 0.5, 0.75)
        with pytest.raises(ValueError):
            KeyRangePartitioner.uniform(2, low=1.0, high=1.0)
        with pytest.raises(ValueError):
            KeyRangePartitioner.uniform(2, low=0.0, high=float("inf"))

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            KeyRangePartitioner([0.5, 0.25])  # decreasing
        with pytest.raises(ValueError):
            KeyRangePartitioner([float("nan")])
        with pytest.raises(ValueError):
            KeyRangePartitioner([0.1] * MAX_SHARDS)  # too many shards

    def test_dict_round_trip(self, small_summaries):
        part = KeyRangePartitioner(
            [0.3, 0.6], reference_point=np.full(16, 0.1)
        )
        rebuilt = partitioner_from_dict(part.to_dict())
        assert isinstance(rebuilt, KeyRangePartitioner)
        assert rebuilt.boundaries == part.boundaries
        assert [rebuilt.shard_for(s) for s in small_summaries] == [
            part.shard_for(s) for s in small_summaries
        ]

    def test_dict_round_trip_no_reference(self):
        rebuilt = partitioner_from_dict(KeyRangePartitioner([0.5]).to_dict())
        assert rebuilt.boundaries == (0.5,)

    def test_name(self):
        assert KeyRangePartitioner([0.5]).name == "key_range"


class TestFactories:
    def test_make_hash(self):
        part = make_partitioner("hash", 4)
        assert isinstance(part, HashPartitioner)
        assert part.num_shards == 4

    def test_make_key_range_uniform(self):
        part = make_partitioner("key_range", 4)
        assert isinstance(part, KeyRangePartitioner)
        assert part.num_shards == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("round_robin", 2)
        with pytest.raises(ValueError, match="unknown partitioner"):
            partitioner_from_dict({"kind": "round_robin"})

    def test_validates_shard_count(self):
        with pytest.raises(ValueError):
            make_partitioner("hash", 0)
        with pytest.raises(ValueError):
            make_partitioner("hash", None)

    def test_interface(self):
        assert issubclass(HashPartitioner, Partitioner)
        assert issubclass(KeyRangePartitioner, Partitioner)
