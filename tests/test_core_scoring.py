"""Tests for the shared KNN scoring accumulator."""

import numpy as np
import pytest

from repro.core.scoring import ScoreAccumulator
from repro.core.similarity import video_similarity
from repro.core.vitri import VideoSummary, ViTri
from repro.storage.serialization import ViTriRecord


def vitri(offset, radius=0.4, count=10, dim=4):
    position = np.zeros(dim)
    position[0] = offset
    return ViTri(position=position, radius=radius, count=count)


def record(video_id, vitri_id, offset, radius=0.4, count=10, dim=4):
    position = np.zeros(dim)
    position[0] = offset
    return ViTriRecord(
        video_id=video_id,
        vitri_id=vitri_id,
        count=count,
        radius=radius,
        position=position,
    )


def summary(video_id, offsets, dim=4):
    return VideoSummary(
        video_id=video_id,
        vitris=tuple(vitri(o, dim=dim) for o in offsets),
    )


class TestScoreAccumulator:
    def test_matches_video_similarity(self):
        """Feeding a database summary's clusters through the accumulator
        reproduces video_similarity exactly."""
        query = summary(0, [0.0, 2.0, 5.0])
        database = summary(1, [0.1, 2.2, 9.0])
        accumulator = ScoreAccumulator(
            query, {1: database.num_frames}
        )
        for j, db_vitri in enumerate(database.vitris):
            rec = ViTriRecord(
                video_id=1,
                vitri_id=j,
                count=db_vitri.count,
                radius=db_vitri.radius,
                position=db_vitri.position,
            )
            accumulator.evaluate(rec, range(len(query.vitris)))
        expected = video_similarity(query, database)
        assert accumulator.scores()[1] == pytest.approx(expected)

    def test_zero_similarity_videos_excluded(self):
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {5: 10})
        accumulator.evaluate(record(5, 0, offset=50.0), [0])
        assert accumulator.scores() == {}

    def test_evaluation_count(self):
        query = summary(0, [0.0, 1.0])
        accumulator = ScoreAccumulator(query, {1: 10})
        performed = accumulator.evaluate(record(1, 0, 0.0), [0, 1])
        assert performed == 2
        assert accumulator.evaluations == 2

    def test_partial_indices(self):
        """Evaluating only a subset of query ViTris (the naive method's
        per-range behaviour) accumulates only those contributions."""
        query = summary(0, [0.0, 0.0])
        full = ScoreAccumulator(query, {1: 10})
        full.evaluate(record(1, 0, 0.0), [0, 1])
        partial = ScoreAccumulator(query, {1: 10})
        partial.evaluate(record(1, 0, 0.0), [0])
        partial.evaluate(record(1, 0, 0.0), [1])
        assert full.scores()[1] == pytest.approx(partial.scores()[1])

    def test_db_side_capped_at_cluster_count(self):
        # Two overlapping query clusters both hit the same small database
        # cluster; the database side must not exceed its frame count.
        query = summary(0, [0.0, 0.01])
        accumulator = ScoreAccumulator(query, {1: 5})
        accumulator.evaluate(record(1, 0, 0.0, count=5), [0, 1])
        # query side <= 10+10, db side <= 5; denominator 20 + 5.
        assert accumulator.scores()[1] <= (20 + 5) / 25

    def test_score_clipped_at_one(self):
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {1: 1})
        # A tiny "video" of 1 frame fully covered.
        accumulator.evaluate(record(1, 0, 0.0, count=1), [0])
        assert accumulator.scores()[1] <= 1.0

    def test_ranked_order_and_tiebreak(self):
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {1: 10, 2: 10, 3: 10})
        accumulator.evaluate(record(1, 0, 0.0), [0])     # strong match
        accumulator.evaluate(record(2, 1, 0.3), [0])     # weaker
        accumulator.evaluate(record(3, 2, 0.3), [0])     # tie with 2
        ranked = accumulator.ranked(3)
        assert ranked[0][0] == 1
        assert [video for video, _ in ranked[1:]] == [2, 3]  # id tie-break

    def test_ranked_k_truncation(self):
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {i: 10 for i in range(1, 6)})
        for i in range(1, 6):
            accumulator.evaluate(record(i, i, 0.0), [0])
        assert len(accumulator.ranked(2)) == 2

    def test_db_side_fold_is_a_plain_left_to_right_add(self):
        """From Python 3.12 on the builtin sum() compensates float
        addition; the oracle must fold like np.bincount on every
        interpreter, so 0.1 + 0.2 + 0.3 keeps its rounding error."""
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {1: 90})
        accumulator._per_video_query[1] = np.zeros(1)
        accumulator._per_video_db[1] = {7: 0.3, 5: 0.1, 6: 0.2}
        accumulator._db_counts.update({5: 9, 6: 9, 7: 9})
        assert accumulator.scores()[1] == ((0.1 + 0.2) + 0.3) / 100
        assert (0.1 + 0.2) + 0.3 != 0.6

    def test_score_arrays_match_scores(self):
        query = summary(0, [0.0, 2.0])
        frames = {i: 10 for i in range(1, 6)}
        scalar = ScoreAccumulator(query, frames)
        arrays = ScoreAccumulator(query, frames)
        records = [record(6 - i, i, 0.1 * i) for i in range(1, 6)]
        for rec in records:
            scalar.evaluate(rec, [0, 1])
        for index in (0, 1):
            arrays.evaluate_arrays(
                index,
                np.array([r.video_id for r in records]),
                np.array([r.vitri_id for r in records]),
                np.array([r.count for r in records]),
                np.array([r.radius for r in records]),
                np.stack([r.position for r in records]),
            )
        for accumulator in (scalar, arrays):
            video_ids, scores = accumulator.score_arrays()
            assert video_ids.tolist() == sorted(accumulator.scores())
            assert dict(zip(video_ids.tolist(), scores.tolist())) == scalar.scores()

    def test_mixing_scalar_and_array_contributions_is_refused(self):
        query = summary(0, [0.0])
        accumulator = ScoreAccumulator(query, {1: 10})
        rec = record(1, 0, 0.0)
        accumulator.evaluate(rec, [0])
        accumulator.evaluate_arrays(
            0,
            np.array([1]),
            np.array([1]),
            np.array([rec.count]),
            np.array([rec.radius]),
            rec.position[None, :],
        )
        with pytest.raises(RuntimeError, match="mixed"):
            accumulator.scores()
