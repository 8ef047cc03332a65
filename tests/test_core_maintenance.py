"""Tests for the drift-triggered rebuild policy (paper Section 6.3.3).

The policy is: measure ``VitriIndex.drift_angle()`` every N insertions
and rebuild once it passes the allowed degree.  Its cadence and
threshold live in :class:`repro.ingest.drift.DriftMonitor`; the rebuild
is :meth:`VitriIndex.rebuild` offline and ``repro.ingest.cutover``
online.  (``core/maintenance.py``'s ``RebuildPolicy`` and
``ManagedVitriIndex`` were a second, in-memory copy of this and are
gone; the test ids are kept on the surviving code.)
"""

import numpy as np
import pytest

from repro.core.index import VitriIndex
from repro.core.vitri import VideoSummary, ViTri
from repro.ingest.drift import DriftCheck, DriftMonitor

EPSILON = 0.3
DIM = 6
X_AXIS = np.eye(DIM)[0]
Y_AXIS = np.eye(DIM)[1]


def summaries_along(direction, ids):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return [
        VideoSummary(
            video_id=video_id,
            vitris=(
                ViTri(position=(0.1 + 0.2 * i) * direction, radius=0.05, count=5),
            ),
        )
        for i, video_id in enumerate(ids)
    ]


def maintain(index, monitor, stream):
    """The paper's loop: insert, let the monitor measure, swap in a
    rebuilt index when it says so.  Returns ``(index, rebuilds)``."""
    rebuilds = 0
    for summary in stream:
        index.insert_video(summary)
        check = monitor.observe("library", index)
        if check is not None and check.rebuild:
            index = index.rebuild()
            rebuilds += 1
    return index, rebuilds


class TestRebuildPolicy:
    def test_checks_only_every_n(self, small_summaries):
        index = VitriIndex.build(small_summaries[:10], EPSILON)
        # The angle threshold is absurdly small so any check fires, but
        # the first four insertions must not check at all.
        monitor = DriftMonitor(max_angle_degrees=1e-9, check_every=5)
        assert [monitor.observe("s", index) for _ in range(4)] == [None] * 4
        assert monitor.checks == 0
        assert isinstance(monitor.observe("s", index), DriftCheck)
        assert monitor.checks == 1

    def test_fires_on_drift(self):
        index = VitriIndex.build(summaries_along(X_AXIS, range(10)), EPSILON)
        # Insert videos along an orthogonal direction: the first principal
        # component rotates.
        for summary in summaries_along(Y_AXIS, range(100, 140)):
            index.insert_video(summary)
        monitor = DriftMonitor(max_angle_degrees=10.0, check_every=1)
        check = monitor.observe("s", index)
        assert check.rebuild
        assert check.angle == index.drift_angle() > check.threshold
        assert check.threshold == pytest.approx(np.radians(10.0))

    def test_quiet_without_drift(self, small_summaries):
        index = VitriIndex.build(small_summaries, EPSILON)
        monitor = DriftMonitor(max_angle_degrees=89.0, check_every=1)
        assert not monitor.observe("s", index).rebuild

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DriftMonitor(max_angle_degrees=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(check_every=0)
        with pytest.raises(ValueError):
            DriftMonitor(check_every=2.5)


class TestManagedVitriIndex:
    """An index maintained by the policy loop (:func:`maintain`)."""

    def test_forwards_queries(self, small_summaries):
        """A rebuilt index answers every query with the rankings of the
        index it replaces (the reference point moves, the content does
        not)."""
        index = VitriIndex.build(small_summaries, EPSILON)
        rebuilt = index.rebuild()
        for query in small_summaries[:5]:
            assert rebuilt.knn(query, 5).videos == index.knn(query, 5).videos

    def test_rebuild_swaps_index(self):
        original = VitriIndex.build(summaries_along(X_AXIS, range(8)), EPSILON)
        monitor = DriftMonitor(max_angle_degrees=10.0, check_every=1)
        index, rebuilds = maintain(
            original, monitor, summaries_along(Y_AXIS, range(100, 160))
        )
        assert rebuilds >= 1
        assert index is not original
        # Content preserved across the rebuild.
        assert index.num_videos == 8 + 60
        assert index.drift_angle() <= monitor.threshold_radians

    def test_no_rebuild_without_drift(self, small_summaries):
        original = VitriIndex.build(small_summaries[:10], EPSILON)
        monitor = DriftMonitor(max_angle_degrees=89.0, check_every=1)
        index, rebuilds = maintain(original, monitor, small_summaries[10:])
        assert rebuilds == 0
        assert index is original

    def test_type_check(self):
        with pytest.raises(TypeError):
            DriftMonitor(max_angle_degrees="15")
