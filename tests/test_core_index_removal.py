"""Tests for VitriIndex.remove_video (tombstoned removal)."""

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScan
from repro.core.index import TOMBSTONE_VIDEO_ID, VitriIndex
from repro.core.vitri import VideoSummary, ViTri

EPSILON = 0.3


class TestRemoveVideo:
    def test_removed_video_disappears_from_results(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        victim = small_summaries[1].video_id
        removed = index.remove_video(victim)
        assert removed == len(small_summaries[1])
        for query_id in (0, 2, 5):
            result = index.knn(small_summaries[query_id], 20, cold=True)
            assert victim not in result.videos

    def test_num_videos_updated(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(0)
        assert index.num_videos == len(small_summaries) - 1
        assert 0 not in index.video_frames

    def test_btree_entries_removed(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        before = index.btree.num_entries
        removed = index.remove_video(3)
        assert index.btree.num_entries == before - removed

    def test_seqscan_agrees_after_removal(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(2)
        index.remove_video(7)
        scan = SequentialScan(index)
        for query_id in (0, 4, 10):
            a = index.knn(small_summaries[query_id], 10, cold=True)
            b = scan.knn(small_summaries[query_id], 10)
            assert a.videos == b.videos
            assert np.allclose(a.scores, b.scores)

    def test_reinsert_after_removal(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(0)
        index.insert_video(small_summaries[0])
        result = index.knn(small_summaries[0], 3, cold=True)
        assert result.videos[0] == 0
        assert result.scores[0] == pytest.approx(1.0)

    def test_rebuild_after_removal_drops_tombstones(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(1)
        rebuilt = index.rebuild()
        assert rebuilt.num_videos == len(small_summaries) - 1
        assert rebuilt.num_vitris == index.btree.num_entries
        result = rebuilt.knn(small_summaries[0], 20, cold=True)
        assert 1 not in result.videos

    def test_remove_unknown_video(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        with pytest.raises(ValueError, match="not indexed"):
            index.remove_video(12345)

    def test_remove_twice_rejected(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(0)
        with pytest.raises(ValueError):
            index.remove_video(0)

    def test_reserved_video_id_rejected_at_build(self):
        summary = VideoSummary(
            video_id=TOMBSTONE_VIDEO_ID,
            vitris=(ViTri(position=np.zeros(4), radius=0.1, count=1),),
        )
        with pytest.raises(ValueError, match="reserved"):
            VitriIndex.build([summary], EPSILON)

    def test_reserved_video_id_rejected_at_insert(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        summary = VideoSummary(
            video_id=TOMBSTONE_VIDEO_ID,
            vitris=(
                ViTri(
                    position=np.zeros(small_summaries[0].dim),
                    radius=0.1,
                    count=1,
                ),
            ),
        )
        with pytest.raises(ValueError, match="reserved"):
            index.insert_video(summary)

    def test_drift_angle_still_works_after_removal(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        index.remove_video(0)
        assert 0.0 <= index.drift_angle() <= np.pi / 2


class TestRemoveEverything:
    """Degenerate path: an index whose every video has been removed."""

    def emptied_index(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        for summary in small_summaries:
            index.remove_video(summary.video_id)
        return index

    def test_knn_returns_empty(self, small_summaries):
        index = self.emptied_index(small_summaries)
        assert index.num_videos == 0
        assert index.btree.num_entries == 0
        result = index.knn(small_summaries[0], 5)
        assert result.videos == ()
        assert result.scores == ()
        # The query still ran real range searches over the emptied tree.
        assert result.stats.ranges > 0
        assert result.stats.candidates == 0

    def test_reinsert_revives_queries(self, small_summaries):
        index = self.emptied_index(small_summaries)
        index.insert_video(small_summaries[3])
        result = index.knn(small_summaries[3], 5)
        assert result.videos[0] == small_summaries[3].video_id
