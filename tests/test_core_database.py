"""Tests for the VideoDatabase facade."""

import numpy as np
import pytest

from repro.core.database import VideoDatabase


def video(rng, anchor_scale=1.0, frames=25, dim=12):
    anchor = rng.dirichlet(np.full(dim, 0.1)) * anchor_scale
    noise = rng.normal(0, 0.01, (frames, dim))
    block = np.clip(anchor[None, :] + noise, 0, None)
    return block / block.sum(axis=1, keepdims=True)


@pytest.fixture()
def library(rng):
    return [video(rng) for _ in range(12)]


class TestAdd:
    def test_auto_ids(self, library):
        db = VideoDatabase(epsilon=0.3)
        ids = db.add_many(library)
        assert ids == list(range(12))
        assert len(db) == 12

    def test_explicit_id(self, library):
        db = VideoDatabase()
        assert db.add(library[0], video_id=42) == 42
        assert db.add(library[1]) == 43  # continues after the explicit id

    def test_duplicate_id_rejected_pending(self, library):
        db = VideoDatabase()
        db.add(library[0], video_id=1)
        with pytest.raises(ValueError, match="already present"):
            db.add(library[1], video_id=1)

    def test_duplicate_id_rejected_after_build(self, library):
        db = VideoDatabase()
        db.add_many(library[:4])
        db.build()
        with pytest.raises(ValueError, match="already present"):
            db.add(library[4], video_id=0)

    def test_add_after_build_uses_dynamic_insertion(self, library):
        db = VideoDatabase()
        db.add_many(library[:6])
        db.build()
        before = db.index.num_videos
        db.add(library[6])
        assert db.index.num_videos == before + 1


class TestQuery:
    def test_self_query_ranks_first(self, library):
        db = VideoDatabase(epsilon=0.3)
        db.add_many(library)
        result = db.query(library[3], k=3)
        assert result.videos[0] == 3
        assert result.scores[0] == pytest.approx(1.0)

    def test_query_builds_lazily(self, library):
        db = VideoDatabase()
        db.add_many(library)
        assert db.index is None
        db.query(library[0], k=1)
        assert db.index is not None

    def test_query_matches_pre_and_post_build_adds(self, library):
        eager = VideoDatabase()
        eager.add_many(library)
        eager.build()
        lazy = VideoDatabase()
        lazy.add_many(library[:6])
        lazy.build()
        for frames in library[6:]:
            lazy.add(frames)
        for probe in (library[0], library[8]):
            assert eager.query(probe, 4).videos == lazy.query(probe, 4).videos

    def test_query_unknown_content_short_results(self, library, rng):
        db = VideoDatabase()
        db.add_many(library[:5])
        stranger = video(rng)
        result = db.query(stranger, k=5)
        assert len(result) <= 5


class TestRemove:
    def test_remove_pending(self, library):
        db = VideoDatabase()
        db.add_many(library[:3])
        db.remove(1)
        assert len(db) == 2
        result = db.query(library[1], k=3)
        assert 1 not in result.videos

    def test_remove_indexed(self, library):
        db = VideoDatabase()
        db.add_many(library)
        db.build()
        db.remove(2)
        assert 2 not in db.query(library[2], k=12).videos

    def test_remove_unknown(self, library):
        db = VideoDatabase()
        db.add(library[0])
        with pytest.raises(ValueError):
            db.remove(99)


class TestLifecycle:
    def test_build_empty_rejected(self):
        with pytest.raises(ValueError):
            VideoDatabase().build()

    def test_drift_angle(self, library):
        db = VideoDatabase()
        db.add_many(library)
        assert 0.0 <= db.drift_angle() <= np.pi / 2

    def test_auto_rebuild_policy(self, rng):
        """The database reports drift and never rebuilds behind the
        caller's back; ``VitriIndex.rebuild()`` is the remedy."""
        db = VideoDatabase(epsilon=0.3)
        dim = 12
        # Founding content varies along axis 0, later content along axis 5.
        for i in range(6):
            frames = np.full((10, dim), 1.0 / dim)
            frames[:, 0] += 0.05 * i
            db.add(frames / frames.sum(axis=1, keepdims=True))
        db.build()
        built = db.index
        for i in range(20):
            frames = np.full((10, dim), 1.0 / dim)
            frames[:, 5] += 0.05 * (i + 1)
            db.add(frames / frames.sum(axis=1, keepdims=True))
        assert db.index is built
        assert db.drift_angle() > np.radians(5.0)
        assert built.rebuild().drift_angle() < np.radians(5.0)

    def test_repr(self, library):
        db = VideoDatabase()
        assert "pending" in repr(db)
        db.add(library[0])
        db.build()
        assert "built" in repr(db)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            VideoDatabase(epsilon=0.0)


class TestDurable:
    """Directory-backed databases (crash-safety itself is covered by
    tests/test_storage_recovery.py and the stateful crash machine)."""

    def test_round_trip_reopen(self, library, tmp_path):
        with VideoDatabase(epsilon=0.3, path=tmp_path / "db") as db:
            ids = [db.add(frames) for frames in library[:4]]
            result = db.query(library[0], k=2)
        with VideoDatabase(path=tmp_path / "db") as db:
            assert len(db) == 4
            reopened = db.query(library[0], k=2)
            assert reopened.videos == result.videos
            assert np.allclose(reopened.scores, result.scores)
            assert sorted(db.index.video_frames) == sorted(ids)

    def test_reopen_with_all_videos_removed(self, library, tmp_path):
        """Regression: a checkpointed index whose records are all
        tombstoned must reopen (found by the stateful crash machine)."""
        path = tmp_path / "db"
        with VideoDatabase(epsilon=0.3, path=path) as db:
            video_id = db.add(library[0])
            db.checkpoint()
            db.remove(video_id)
        with VideoDatabase(path=path) as db:
            assert len(db) == 0
            db.add(library[1])
            result = db.query(library[1], k=1)
            assert len(result.videos) == 1

    def test_stored_settings_win_on_reopen(self, library, tmp_path):
        path = tmp_path / "db"
        with VideoDatabase(epsilon=0.25, path=path) as db:
            db.add(library[0])
        with VideoDatabase(epsilon=0.7, path=path) as db:
            assert db.epsilon == 0.25

    def test_operations_after_close_rejected(self, library, tmp_path):
        db = VideoDatabase(epsilon=0.3, path=tmp_path / "db")
        db.close()
        db.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            db.add(library[0])

    def test_memory_database_rejects_durable_options(self):
        from repro.storage.faults import FaultInjector

        with pytest.raises(ValueError, match="durable"):
            VideoDatabase(fault_injector=FaultInjector())

    def test_durable_rejects_policy_and_object_reference(self, tmp_path):
        from repro.core.reference import OptimalReference

        with pytest.raises(ValueError, match="named reference"):
            VideoDatabase(path=tmp_path / "db", reference=OptimalReference())


class TestInsertProbe:
    """Regression: every insert used to materialise ``video_ids()`` — a
    fresh set over a full copy of the index's frame table — so bulk load
    was quadratic in the shard size."""

    def test_inserts_never_materialise_the_id_set(self, library, monkeypatch):
        from repro.core.index import VitriIndex
        from repro.core.summarize import summarize_video

        summaries = [
            summarize_video(i, frames, 0.3, seed=i)
            for i, frames in enumerate(library)
        ]
        db = VideoDatabase(epsilon=0.3)
        db.add_summaries(summaries[:3])
        db.build()

        def forbidden(*args):
            raise AssertionError("an insert materialised every video id")

        monkeypatch.setattr(VideoDatabase, "video_ids", forbidden)
        monkeypatch.setattr(VitriIndex, "video_frames", property(forbidden))
        db.add_summaries(summaries[3:5])
        db.add_summary(summaries[5])
        db.remove(summaries[5].video_id)
        with pytest.raises(ValueError, match="already present"):
            db.add_summary(summaries[0])
        with pytest.raises(ValueError, match="already present"):
            db.add_summaries([summaries[6], summaries[4]])
        assert len(db) == 5
