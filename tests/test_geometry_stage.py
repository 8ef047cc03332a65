"""The vectorized geometry stage's contract, lane by lane and slice by slice.

The candidate pass selects each query ViTri's candidates as one
contiguous slice of the key-sorted block (two ``searchsorted`` calls,
column views, no mask copy), and ``_estimate_batch`` decides point-mass
and disjoint pairs on the full arrays before doing the lens arithmetic
on the remaining ``near`` pairs only.  Both restructurings must be
invisible: every lane equals the scalar oracle bitwise, and every slice
holds exactly the rows the inclusive ``vlow <= key <= vhigh`` mask held.
"""

import numpy as np
import pytest

import repro.core.index as index_module
from repro.core.composition import compose_ranges
from repro.core.index import VitriIndex
from repro.core.similarity import _estimate_batch, _estimate_from_scalars
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary, ViTri
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.storage.serialization import ViTriColumns
from repro.utils.rng import ensure_rng

EPSILON = 0.3


def assert_lanes_match_oracle(dim, radius_q, count_q, radii, counts, distances):
    radii = np.asarray(radii, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    got = _estimate_batch(dim, radius_q, count_q, radii, counts, distances)
    for i in range(distances.size):
        want = _estimate_from_scalars(
            dim,
            radius_q,
            count_q,
            float(radii[i]),
            int(counts[i]),
            float(distances[i]),
        )
        assert got[i] == want, (
            f"lane {i}: batch={got[i]!r} oracle={want!r} "
            f"(rq={radius_q}, r={radii[i]}, d={distances[i]})"
        )
    return got


class TestDisjointFirstKernel:
    """Adversarial lanes for the point-mass / disjoint / near split."""

    @pytest.mark.parametrize("dim", [1, 3, 16, 64])
    def test_case_boundaries(self, dim):
        rq, r = 0.5, 0.25
        lanes = [
            (r, rq + r),  # d == big + small: disjoint, exactly 0
            (r, rq - r),  # d == big - small: contained
            (r, 0.0),  # coincident centres
            (rq, 0.0),  # equal radii, coincident
            (rq, rq),  # equal radii, lens
            (rq, 2 * rq),  # equal radii, touching
            (0.75, 0.75 - rq),  # candidate bigger, query contained
            (0.75, 0.75 + rq),  # candidate bigger, touching
            (r, np.nextafter(rq + r, 0.0)),  # one ulp inside the lens
            (r, np.nextafter(rq - r, 1.0)),  # one ulp past containment
        ]
        radii, distances = zip(*lanes)
        got = assert_lanes_match_oracle(
            dim, rq, 40, radii, [25] * len(lanes), distances
        )
        assert got[0] == 0.0 and got[5] == 0.0 and got[7] == 0.0
        assert got[1] > 0.0

    @pytest.mark.parametrize("radius_q", [0.0, 0.4])
    def test_point_masses_on_either_side(self, radius_q):
        radii = [0.0, 0.0, 0.0, 0.4, 1.0, 0.2]
        distances = [0.0, 0.4, 0.41, 0.0, 0.4, 0.6]
        assert_lanes_match_oracle(
            8, radius_q, 12, radii, [3, 30, 7, 9, 11, 5], distances
        )

    def test_near_empty(self):
        """Every lane disjoint or an outside point mass: nothing reaches
        the lens arithmetic and every estimate is exactly 0."""
        got = assert_lanes_match_oracle(
            16, 0.3, 10, [0.1, 0.2, 0.0, 0.3], [5, 6, 7, 8],
            [0.4, 0.5, 0.31, 0.9],
        )
        assert not got.any()

    def test_near_full(self):
        """Every lane contained or in a lens."""
        got = assert_lanes_match_oracle(
            16, 0.3, 10, [0.1, 0.2, 0.3, 0.5], [5, 6, 7, 8],
            [0.0, 0.15, 0.3, 0.6],
        )
        assert got.all()

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_near_partial_random(self, seed):
        """Random mixes where ``near`` is a strict, scattered subset."""
        rng = ensure_rng(seed)
        size = 200
        radii = rng.uniform(0.0, 0.3, size=size)
        radii[rng.random(size) < 0.1] = 0.0
        distances = rng.uniform(0.0, 1.2, size=size)
        # Pin some lanes to the exact boundaries.
        distances[:20] = radii[:20] + 0.25
        distances[20:40] = np.abs(radii[20:40] - 0.25)
        got = assert_lanes_match_oracle(
            32, 0.25, 60, radii, rng.integers(1, 200, size=size), distances
        )
        assert 0 < np.count_nonzero(got) < size

    def test_empty_batch(self):
        got = _estimate_batch(
            8, 0.3, 10, np.empty(0), np.empty(0), np.empty(0)
        )
        assert got.shape == (0,)


# ---------------------------------------------------------------------------
# Contiguous selection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def twin_index():
    """An index where every key is stored twice (each video is indexed
    again under a second id), so interval bounds can sit on duplicates."""
    config = DatasetConfig(
        dim=8,
        num_families=2,
        family_size=3,
        num_distractors=6,
        duration_classes=((40, 0.5), (20, 0.5)),
    )
    dataset = generate_dataset(config, seed=5)
    summaries = [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(dataset.num_videos)
    ]
    twins = [
        VideoSummary(video_id=len(summaries) + s.video_id, vitris=s.vitris)
        for s in summaries
    ]
    return summaries, VitriIndex.build(summaries + twins, EPSILON)


def stored_entries(index):
    keys, records = [], []
    for key, payload in index.btree.iter_entries():
        keys.append(key)
        records.append(index.codec.decode(payload))
    return np.asarray(keys), records


@pytest.fixture()
def boundary_query(twin_index, monkeypatch):
    """A three-ViTri query whose key intervals are pinned to stored
    duplicate keys: ``[a, b]``, an empty interval strictly between two
    keys, and ``[b, c]`` touching the first at ``b``.  Returns the index,
    the query and the similarity evaluations the inclusive mask implies
    per method."""
    _, index = twin_index
    keys, records = stored_entries(index)
    distinct, multiplicity = np.unique(keys, return_counts=True)
    assert (multiplicity >= 2).all()
    a, b, c = distinct[2], distinct[6], distinct[11]
    gap = (distinct[8] + distinct[9]) / 2.0
    assert distinct[8] < gap < distinct[9]
    per_vitri = [(a, b), (gap, gap), (b, c)]

    def pinned(query, transform, epsilon, method="composed"):
        search = per_vitri if method == "naive" else compose_ranges(per_vitri)
        return list(per_vitri), search

    monkeypatch.setattr(index_module, "query_key_ranges", pinned)
    at = {float(key): record for key, record in zip(keys, records)}
    query = VideoSummary(
        video_id=10**6,
        vitris=tuple(
            ViTri(
                position=at[float(key)].position,
                radius=at[float(key)].radius,
                count=at[float(key)].count,
            )
            for key in (a, b, c)
        ),
    )
    mask_evaluations = sum(
        int(np.count_nonzero((keys >= low) & (keys <= high)))
        for low, high in per_vitri
    )
    return index, query, mask_evaluations


class TestContiguousSelection:
    @pytest.mark.parametrize("method", ["composed", "naive"])
    def test_duplicate_bounds_and_empty_interval(self, boundary_query, method):
        index, query, mask_evaluations = boundary_query
        scalar = index.knn(query, 50, method=method, impl="scalar")
        vector = index.knn(query, 50, method=method)
        assert vector.videos == scalar.videos
        assert vector.scores == scalar.scores
        assert vector.videos
        assert (
            vector.stats.similarity_computations
            == scalar.stats.similarity_computations
            == mask_evaluations
        )

    def test_slice_take_returns_views(self):
        rng = ensure_rng(1)
        columns = ViTriColumns(
            video_ids=np.arange(6),
            vitri_ids=np.arange(6),
            counts=np.ones(6, dtype=np.int64),
            radii=rng.random(6),
            positions=rng.random((6, 4)),
        )
        sliced = columns.take(slice(1, 4))
        masked = columns.take(np.arange(6) % 2 == 0)
        for name in ("video_ids", "vitri_ids", "counts", "radii", "positions"):
            assert np.shares_memory(getattr(sliced, name), getattr(columns, name))
            assert not np.shares_memory(
                getattr(masked, name), getattr(columns, name)
            )
        assert np.array_equal(sliced.positions, columns.positions[1:4])


class TestSingleBlockDecode:
    def test_single_block_query_concatenates_no_records(
        self, twin_index, monkeypatch
    ):
        """A composed query whose ranges merge into one block decodes it
        as is; a multi-range query concatenates its record blocks once."""
        summaries, index = twin_index
        record_dtype = index.codec.record_dtype
        original = np.concatenate
        record_concatenations = []

        def counting(arrays, *args, **kwargs):
            arrays = list(arrays)
            if arrays and arrays[0].dtype == record_dtype:
                record_concatenations.append(len(arrays))
            return original(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        seen = set()
        for query in summaries:
            result = index.knn(query, 5)
            expected = 0 if result.stats.ranges == 1 else 1
            assert len(record_concatenations) == expected, result.stats.ranges
            seen.add(expected)
            record_concatenations.clear()
        assert seen == {0, 1}
