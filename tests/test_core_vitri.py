"""Tests for the ViTri and VideoSummary models."""

import math

import numpy as np
import pytest

from repro.core.vitri import VideoSummary, ViTri
from repro.geometry.volumes import sphere_volume


def vitri(dim=4, radius=0.5, count=10, offset=0.0):
    return ViTri(position=np.full(dim, offset), radius=radius, count=count)


class TestViTri:
    def test_basic_properties(self):
        v = vitri()
        assert v.dim == 4
        assert v.radius == 0.5
        assert v.count == 10

    def test_density_definition(self):
        v = vitri(dim=3, radius=1.0, count=8)
        assert v.density == pytest.approx(8.0 / sphere_volume(3, 1.0))

    def test_log_density_consistent(self):
        v = vitri(dim=5, radius=0.7, count=3)
        assert math.exp(v.log_density) == pytest.approx(v.density, rel=1e-10)

    def test_point_mass_density_infinite(self):
        v = vitri(radius=0.0)
        assert v.log_volume == -math.inf
        assert v.log_density == math.inf
        assert v.density == math.inf

    def test_high_dim_density_overflow_handled(self):
        v = ViTri(position=np.zeros(256), radius=0.01, count=5)
        assert v.density == math.inf  # linear value overflows...
        assert math.isfinite(v.log_density)  # ...but the log is fine

    def test_frozen(self):
        v = vitri()
        with pytest.raises(AttributeError):
            v.radius = 1.0

    def test_position_validated(self):
        with pytest.raises(ValueError):
            ViTri(position=np.array([[1.0]]), radius=0.1, count=1)
        with pytest.raises(ValueError):
            ViTri(position=np.array([np.nan]), radius=0.1, count=1)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            vitri(radius=-0.1)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            vitri(count=0)
        with pytest.raises(TypeError):
            ViTri(position=np.zeros(2), radius=0.1, count=1.5)

    def test_numpy_count_accepted(self):
        v = ViTri(position=np.zeros(2), radius=0.1, count=np.int64(3))
        assert v.count == 3
        assert isinstance(v.count, int)


class TestVideoSummary:
    def test_basic(self):
        summary = VideoSummary(
            video_id=3, vitris=(vitri(count=4), vitri(count=6))
        )
        assert summary.video_id == 3
        assert len(summary) == 2
        assert summary.num_frames == 10
        assert summary.dim == 4

    def test_explicit_num_frames_must_match(self):
        with pytest.raises(ValueError, match="num_frames"):
            VideoSummary(video_id=0, vitris=(vitri(count=4),), num_frames=5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VideoSummary(video_id=0, vitris=())

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            VideoSummary(video_id=0, vitris=(vitri(dim=3), vitri(dim=4)))

    def test_non_vitri_rejected(self):
        with pytest.raises(TypeError):
            VideoSummary(video_id=0, vitris=("not a vitri",))

    def test_matrix_accessors(self):
        summary = VideoSummary(
            video_id=0,
            vitris=(
                vitri(count=2, radius=0.1, offset=0.0),
                vitri(count=3, radius=0.2, offset=1.0),
            ),
        )
        assert summary.positions().shape == (2, 4)
        assert np.allclose(summary.radii(), [0.1, 0.2])
        assert np.array_equal(summary.counts(), [2, 3])

    def test_accepts_list_of_vitris(self):
        summary = VideoSummary(video_id=1, vitris=[vitri()])
        assert isinstance(summary.vitris, tuple)


class TestFromArrays:
    """``VideoSummary.from_arrays`` checks each invariant once over the
    arrays and must accept and reject what the per-ViTri constructors
    do, with the same exception types."""

    def summary(self):
        return VideoSummary(
            3, (vitri(offset=0.5, count=4), vitri(radius=0.0, count=6)), 10
        )

    def per_vitri(self, video_id, positions, radii, counts, num_frames):
        return VideoSummary(
            video_id,
            tuple(ViTri(p, r, c) for p, r, c in zip(positions, radii, counts)),
            num_frames,
        )

    def test_inverse_of_the_array_accessors(self):
        s = self.summary()
        rebuilt = VideoSummary.from_arrays(
            s.video_id, s.positions(), s.radii(), s.counts(), s.num_frames
        )
        assert rebuilt.video_id == s.video_id
        assert rebuilt.num_frames == s.num_frames
        for mine, theirs in zip(rebuilt.vitris, s.vitris):
            assert mine.position.tobytes() == theirs.position.tobytes()
            assert (mine.radius, mine.count) == (theirs.radius, theirs.count)
            assert type(mine.radius) is float and type(mine.count) is int

    def test_positions_are_a_private_copy(self):
        s = self.summary()
        positions = s.positions()
        rebuilt = VideoSummary.from_arrays(
            s.video_id, positions, s.radii(), s.counts(), 0
        )
        positions[:] = 99.0
        assert rebuilt.vitris[0].position[0] == 0.5
        assert rebuilt.num_frames == 10  # 0 stands for the counts' sum

    @pytest.mark.parametrize(
        "change",
        [
            {"positions": np.array([[np.nan] * 4, [0.0] * 4])},
            {"positions": np.array([[0.0] * 4, [np.inf] * 4])},
            {"radii": np.array([0.5, -0.1])},
            {"radii": np.array([np.nan, 0.5])},
            {"radii": np.array([0.5, np.inf])},
            {"counts": np.array([0, 10])},
            {"counts": np.array([4.0, 6.0])},
            {"counts": np.array([True, True])},
            {"num_frames": 11},
            {"video_id": True},
            {"video_id": 1.5},
        ],
    )
    def test_rejects_what_the_constructors_reject(self, change):
        s = self.summary()
        fields = {
            "video_id": s.video_id,
            "positions": s.positions(),
            "radii": s.radii(),
            "counts": s.counts(),
            "num_frames": s.num_frames,
        }
        fields.update(change)
        with pytest.raises((TypeError, ValueError)) as before:
            self.per_vitri(**fields)
        with pytest.raises((TypeError, ValueError)) as now:
            VideoSummary.from_arrays(**fields)
        assert type(now.value) is type(before.value)

    def test_rejects_misshapen_arrays(self):
        s = self.summary()
        with pytest.raises(ValueError, match="one ViTri per row"):
            VideoSummary.from_arrays(0, s.positions()[0], s.radii(), s.counts(), 0)
        with pytest.raises(ValueError, match="one ViTri per row"):
            VideoSummary.from_arrays(0, s.positions(), s.radii()[:1], s.counts(), 0)
        with pytest.raises(ValueError, match="at least one"):
            VideoSummary.from_arrays(0, np.zeros((0, 4)), [], np.zeros(0, int), 0)
