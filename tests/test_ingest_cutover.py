"""Tests for the online rebuild (repro.ingest.cutover).

The load-bearing properties: the side build never touches the serving
file set; the ``epoch.json`` replace is the *only* commit point (a
crash-at-every-step sweep recovers to exactly one of {old complete,
new complete}); and rankings are bit-identical across the cutover —
scores depend only on the query and each video's ViTris, never on the
reference point the rebuild refits.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.database import read_epoch_pointer
from repro.core.index import VitriIndex
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.ingest import commit_cutover, side_build
from repro.replication.shipper import database_token
from repro.shard.shard import Shard
from repro.storage.faults import FaultInjector, SimulatedCrash

EPSILON = 0.3
_SWEEP_MODES = ("drop", "torn", "duplicate")


def make_summaries(count: int = 12, *, seed: int = 7, dim: int = 8):
    config = DatasetConfig(
        dim=dim,
        num_families=2,
        family_size=3,
        num_distractors=max(count - 6, 1),
    )
    dataset = generate_dataset(config, seed=seed)
    return [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(min(count, dataset.num_videos))
    ]


def make_shard(path, summaries) -> Shard:
    shard = Shard(0, epsilon=EPSILON, path=str(path))
    for summary in summaries:
        shard.add_summary(summary)
    shard.checkpoint()
    return shard


def rebuild(shard, *, reference: str | None = None):
    """Side-build, then cut over: ``ShardedVideoDatabase.rebuild_shard``
    without the fleet's write barrier (nothing else writes here)."""
    return commit_cutover(shard, side_build(shard.database, reference=reference))


def rankings(server, probes, k=5):
    results = []
    for probe in probes:
        result = server.knn(probe, k)
        results.append((tuple(result.videos), tuple(result.scores)))
    return results


class TestValidation:
    def test_side_build_rejects_non_database(self):
        with pytest.raises(TypeError, match="VideoDatabase"):
            side_build(object())

    def test_side_build_requires_durability(self):
        shard = Shard(0, epsilon=EPSILON)  # in-memory
        for summary in make_summaries(8):
            shard.add_summary(summary)
        with pytest.raises(ValueError, match="durable"):
            side_build(shard.database)

    def test_side_build_requires_content(self, tmp_path):
        shard = Shard(0, epsilon=EPSILON, path=str(tmp_path / "empty"))
        with pytest.raises(ValueError, match="empty"):
            side_build(shard.database)

    def test_commit_rejects_non_result(self, tmp_path):
        shard = make_shard(tmp_path / "s", make_summaries(8))
        with pytest.raises(TypeError, match="SideBuildResult"):
            commit_cutover(shard, {"generation": "gen-0001"})


class TestOnlineRebuild:
    def test_cutover_preserves_rankings_exactly(self, tmp_path):
        summaries = make_summaries(14)
        shard = make_shard(tmp_path / "shard", summaries)
        probes = summaries[:5]
        before = rankings(shard, probes)

        report = rebuild(shard)

        assert report.old_epoch == 0
        assert report.new_epoch == 1
        assert report.generation == "gen-0001"
        assert report.old_token != report.new_token
        assert report.videos == len(summaries)
        assert shard.database.epoch == 1
        assert shard.database.index.content_token() == report.new_token

        after = rankings(shard, probes)
        for (old_videos, old_scores), (new_videos, new_scores) in zip(
            before, after
        ):
            assert new_videos == old_videos
            assert new_scores == old_scores  # bit-identical, not just close

        oracle = VitriIndex.build(summaries, EPSILON)
        for probe, (videos, scores) in zip(probes, after):
            expected = oracle.knn(probe, 5)
            assert videos == tuple(expected.videos)
            assert np.allclose(scores, expected.scores)

    def test_reopen_lands_on_new_epoch_and_sweeps_old(self, tmp_path):
        path = tmp_path / "shard"
        summaries = make_summaries(10)
        shard = make_shard(path, summaries)
        report = rebuild(shard)
        shard.checkpoint()
        shard.close()

        assert read_epoch_pointer(str(path)) == ("gen-0001", 1)
        reopened = Shard(0, epsilon=EPSILON, path=str(path))
        assert reopened.database.epoch == 1
        assert reopened.database.index.content_token() == report.new_token
        assert len(reopened) == len(summaries)
        # The flat epoch-0 file set was swept: only the pointer and the
        # live generation remain in the root.
        assert sorted(os.listdir(path)) == ["epoch.json", "gen-0001"]
        reopened.close()

    def test_engine_and_caches_invalidate(self, tmp_path):
        summaries = make_summaries(10)
        shard = make_shard(tmp_path / "shard", summaries)
        engine_before = shard.engine()
        token_before = engine_before.snapshot_token

        report = rebuild(shard)

        engine_after = shard.engine()
        assert engine_after is not engine_before
        assert engine_after.snapshot_token == report.new_token
        assert engine_after.snapshot_token != token_before

    def test_successive_rebuilds_advance_epochs(self, tmp_path):
        shard = make_shard(tmp_path / "shard", make_summaries(10))
        first = rebuild(shard)
        second = rebuild(shard)
        assert (first.new_epoch, second.new_epoch) == (1, 2)
        assert second.generation == "gen-0002"
        assert shard.database.epoch == 2


def run_cutover_crash_sweep(
    path: str | os.PathLike,
    summaries: list[VideoSummary],
    *,
    epsilon: float,
    k: int = 5,
    num_probes: int = 3,
    reference: str | None = None,
    buffer_capacity: int = 32,
) -> dict:
    """Crash an online rebuild at every disk operation; prove recovery.

    Builds one golden durable shard over ``summaries``, records its
    probe rankings, counts the disk operations of a full
    side build and cutover (open included — the
    open-time WAL recovery and stale-generation sweep are part of the
    workload), then replays the rebuild once per operation index with a
    terminal fault scripted there, damage mode cycling
    drop/torn/duplicate.  After each crash the directory is reopened
    with a plain pager and the sweep asserts:

    * the content token matches whichever side the ``epoch.json``
      pointer names — *old* before the pointer replace landed, *new*
      after; no third state;
    * every video is present and every probe ranking is bit-identical
      to the golden reference.

    Returns ``{"crash_points", "recovered", "outcomes": {"old", "new"}}``;
    the caller gates ``recovered == crash_points``.
    """
    if not summaries:
        raise ValueError("summaries must be non-empty")
    path = os.fspath(path)
    probes = summaries[: max(1, min(num_probes, len(summaries)))]

    def build_golden(directory: str) -> None:
        shard = Shard(
            0,
            epsilon=epsilon,
            path=directory,
            buffer_capacity=buffer_capacity,
        )
        for summary in summaries:
            shard.add_summary(summary)
        shard.checkpoint()
        shard.close()

    golden = os.path.join(path, "golden")
    build_golden(golden)
    reopened = Shard(
        0, epsilon=epsilon, path=golden, buffer_capacity=buffer_capacity
    )
    expected_rankings = rankings(reopened, probes, k)
    reopened.close()

    def run_rebuild(directory: str, injector: FaultInjector):
        # The Shard open is *inside* the crash scope: operation 1 is the
        # open-time WAL recovery truncate, and the sweep must cover it.
        shard = None
        try:
            shard = Shard(
                0,
                epsilon=epsilon,
                path=directory,
                buffer_capacity=buffer_capacity,
                fault_injector=injector,
            )
            report = rebuild(shard, reference=reference)
            shard.close()
            return report
        except SimulatedCrash:
            if shard is not None:
                shard.crash()
            return None

    # Pass 1: count the workload's operations (no crash scripted).
    count_dir = os.path.join(path, "count")
    shutil.copytree(golden, count_dir)
    counting = FaultInjector(crash_after=None)
    report = run_rebuild(count_dir, counting)
    if report is None:
        raise RuntimeError("operation-counting pass crashed unexpectedly")
    total_ops = counting.ops
    if total_ops == 0:
        raise RuntimeError("rebuild performed no injected disk operations")
    old_token, new_token = report.old_token, report.new_token

    recovered = 0
    outcomes = {"old": 0, "new": 0}
    failures: list[str] = []
    for point in range(1, total_ops + 1):
        sweep_dir = os.path.join(path, f"sweep-{point:04d}")
        shutil.copytree(golden, sweep_dir)
        injector = FaultInjector(
            crash_after=point, mode=_SWEEP_MODES[point % len(_SWEEP_MODES)]
        )
        run_rebuild(sweep_dir, injector)

        generation, _ = read_epoch_pointer(sweep_dir)
        expected_token = old_token if generation is None else new_token
        side = "old" if generation is None else "new"
        shard = Shard(
            0, epsilon=epsilon, path=sweep_dir, buffer_capacity=buffer_capacity
        )
        try:
            token = database_token(shard.database)
            if token != expected_token:
                failures.append(
                    f"point {point}: recovered token {token[:12]} does not "
                    f"match the {side} side named by epoch.json"
                )
                continue
            if len(shard) != len(summaries):
                failures.append(
                    f"point {point}: {len(shard)} videos after recovery, "
                    f"expected {len(summaries)}"
                )
                continue
            if rankings(shard, probes, k) != expected_rankings:
                failures.append(
                    f"point {point}: probe rankings diverged from the "
                    f"golden reference on the {side} side"
                )
                continue
        finally:
            shard.close()
            shutil.rmtree(sweep_dir)
        outcomes[side] += 1
        recovered += 1

    if failures:
        raise RuntimeError(
            f"{len(failures)}/{total_ops} crash points failed recovery: "
            + "; ".join(failures[:5])
        )
    return {
        "crash_points": total_ops,
        "recovered": recovered,
        "outcomes": outcomes,
    }


class TestCrashSweep:
    def test_every_crash_point_recovers_to_one_side(self, tmp_path):
        report = run_cutover_crash_sweep(
            str(tmp_path / "sweep"), make_summaries(8), epsilon=EPSILON
        )
        assert report["crash_points"] > 0
        assert report["recovered"] == report["crash_points"]
        # Both sides of the pointer must be reachable, or the sweep is
        # not actually straddling the commit point.
        assert report["outcomes"]["old"] > 0
        assert report["outcomes"]["new"] > 0
