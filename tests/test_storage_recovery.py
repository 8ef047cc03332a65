"""Crash-point sweep: recovery must work from *every* disk operation.

The deterministic fault injector counts every disk operation of a
workload.  A sweep first runs the workload fault-free to measure its
operation count and record the state committed at each sync/checkpoint,
then re-runs it once per operation index k, crashing (and damaging the
k-th operation) and reopening the files with a plain, fault-free stack.

The recovery contract asserted for every k:

* all page checksums verify;
* structural invariants hold (B+-tree checker; the leaf chain holds
  records of exactly the videos the metadata lists);
* the recovered state equals one of the committed snapshots — never a
  partial or mixed state;
* the recovered snapshot is at least as new as the last sync that fully
  completed before operation k (a crash *during* a commit may legally
  recover forward to that commit, but never backward past a completed
  one);
* at database level, every video committed before the crash is still
  present and queryable.

``RECOVERY_SEED`` (environment) varies the workload data and the damage
modes; CI runs the sweep under several seeds.
"""

import os

import numpy as np
import pytest

from repro.btree.checker import check_tree
from repro.btree.tree import BPlusTree
from repro.core.database import VideoDatabase
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FaultInjectingPager, FaultInjector, SimulatedCrash
from repro.storage.pager import Pager
from repro.utils.rng import ensure_rng

SEED = int(os.environ.get("RECOVERY_SEED", "0"))
_MODES = ("drop", "torn", "duplicate")


def _mode_for(k: int) -> str:
    return _MODES[(k + SEED) % len(_MODES)]


def _leaf_videos(db) -> set[int]:
    """Video ids of the records in the reopened index's leaf chain."""
    return set(db.index.records()[1]["video_id"].tolist())


class TestPagerSweep:
    """Sweep a plain pager workload of three syncs."""

    ROUNDS = 3
    PAGES = 4

    def _run(self, pager):
        """Three rounds of writes+sync; returns (snapshots, ops_after)."""
        snapshots = []
        ops_after = []
        for round_index in range(self.ROUNDS):
            if pager.num_pages == 0:
                for _ in range(self.PAGES):
                    pager.allocate_page()
            for page_id in range(self.PAGES):
                page = pager.read_page(page_id)
                page.data[:8] = bytes([round_index + 1 + SEED % 100]) * 8
                pager.write_page(page)
            pager.sync()
            snapshots.append(bytes([round_index + 1 + SEED % 100]) * 8)
            ops_after.append(pager.faults.ops if hasattr(pager, "faults") else 0)
        return snapshots, ops_after

    def test_sweep_every_crash_point(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        pager = FaultInjectingPager(baseline_dir / "d.pages")
        snapshots, ops_after = self._run(pager)
        pager.close()
        total_ops = pager.faults.ops
        assert total_ops > 0

        for k in range(1, total_ops + 1):
            workdir = tmp_path / f"k{k}"
            workdir.mkdir()
            path = workdir / "d.pages"
            crashed = False
            try:
                faulted = FaultInjectingPager(
                    path, crash_after=k, mode=_mode_for(k)
                )
                self._run(faulted)
                faulted.close()
            except SimulatedCrash:
                crashed = True
            assert crashed, f"k={k}: crash point never reached"

            with Pager(path) as recovered:
                recovered.verify_checksums()
                if recovered.num_pages == 0:
                    state = None  # nothing ever committed
                else:
                    assert recovered.num_pages == self.PAGES
                    contents = {
                        bytes(recovered.read_page(p).data[:8])
                        for p in range(self.PAGES)
                    }
                    assert len(contents) == 1, (
                        f"k={k}: pages from different commits: {contents}"
                    )
                    state = contents.pop()
            completed = sum(1 for ops in ops_after if ops < k)
            if state is None:
                assert completed == 0, (
                    f"k={k}: lost {completed} completed sync(s)"
                )
            else:
                recovered_round = snapshots.index(state)
                assert recovered_round + 1 >= completed, (
                    f"k={k}: recovered round {recovered_round + 1} but "
                    f"{completed} syncs completed before the crash"
                )


class TestBTreeSweep:
    """Sweep a B+-tree workload: inserts in committed batches."""

    BATCHES = 3
    BATCH = 25

    def _payload(self, key: float) -> bytes:
        return int(key).to_bytes(8, "little")

    def _keys(self):
        rng = ensure_rng(SEED)
        keys = rng.permutation(self.BATCHES * self.BATCH).astype(float)
        return [float(k) for k in keys]

    def _run(self, pager):
        pool = BufferPool(pager, capacity=8)
        tree = BPlusTree.create(pool, payload_size=8)
        keys = self._keys()
        ops_after = []
        for batch_index in range(self.BATCHES):
            for key in keys[
                batch_index * self.BATCH : (batch_index + 1) * self.BATCH
            ]:
                tree.insert(key, self._payload(key))
            tree.flush()
            pager.sync()
            ops_after.append(pager.faults.ops if hasattr(pager, "faults") else 0)
        return ops_after

    def test_sweep_every_crash_point(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        pager = FaultInjectingPager(baseline_dir / "t.pages")
        ops_after = self._run(pager)
        pager.close()
        total_ops = pager.faults.ops
        keys = self._keys()

        for k in range(1, total_ops + 1):
            workdir = tmp_path / f"k{k}"
            workdir.mkdir()
            path = workdir / "t.pages"
            try:
                faulted = FaultInjectingPager(
                    path, crash_after=k, mode=_mode_for(k)
                )
                self._run(faulted)
                faulted.close()
                raise AssertionError(f"k={k}: crash point never reached")
            except SimulatedCrash:
                pass

            with Pager(path) as recovered:
                recovered.verify_checksums()
                if recovered.num_pages == 0:
                    completed = sum(1 for ops in ops_after if ops < k)
                    assert completed == 0, (
                        f"k={k}: lost {completed} completed batch(es)"
                    )
                    continue
                pool = BufferPool(recovered, capacity=8)
                tree = BPlusTree.open(pool)
                check_tree(tree)
                # The entry count must be a whole number of batches, at
                # least every batch fully synced before the crash.
                assert tree.num_entries % self.BATCH == 0, (
                    f"k={k}: {tree.num_entries} entries is a partial batch"
                )
                batches = tree.num_entries // self.BATCH
                completed = sum(1 for ops in ops_after if ops < k)
                assert batches >= completed, (
                    f"k={k}: recovered {batches} batch(es) but {completed} "
                    "completed before the crash"
                )
                for key in keys[: batches * self.BATCH]:
                    found = tree.search(key)
                    assert self._payload(key) in found, (
                        f"k={k}: committed key {key} lost"
                    )


class TestDatabaseSweep:
    """Sweep the durable VideoDatabase: checkpointed videos survive any
    crash and stay queryable (the PR's acceptance criterion)."""

    VIDEOS = 3
    DIM = 4
    FRAMES = 12

    def _frames(self, video_id: int) -> np.ndarray:
        rng = ensure_rng(1000 * SEED + video_id)
        base = np.zeros((1, self.DIM))
        base[0, video_id % self.DIM] = 10.0 * (video_id + 1)
        return base + 0.05 * rng.normal(size=(self.FRAMES, self.DIM))

    def _run(self, path, fault_injector=None):
        db = VideoDatabase(
            epsilon=0.4, path=path, fault_injector=fault_injector
        )
        ops_after = []
        try:
            for video_id in range(self.VIDEOS):
                db.add(self._frames(video_id), video_id)
                db.checkpoint()
                if fault_injector is not None:
                    ops_after.append(fault_injector.ops)
            db.close()
        except SimulatedCrash:
            db.crash()
            raise
        return ops_after

    def test_sweep_every_crash_point(self, tmp_path):
        injector = FaultInjector()  # counting only
        ops_after = self._run(tmp_path / "baseline", injector)
        total_ops = injector.ops
        assert total_ops > 0

        for k in range(1, total_ops + 1):
            path = tmp_path / f"k{k}"
            try:
                self._run(
                    path,
                    FaultInjector(crash_after=k, mode=_mode_for(k)),
                )
                raise AssertionError(f"k={k}: crash point never reached")
            except SimulatedCrash:
                pass

            db = VideoDatabase(path=path)
            try:
                committed = sorted(db.index.video_frames) if db.index else []
                completed = sum(1 for ops in ops_after if ops < k)
                assert len(committed) >= completed, (
                    f"k={k}: {len(committed)} video(s) survive but "
                    f"{completed} checkpoint(s) completed before the crash"
                )
                assert committed == list(range(len(committed))), (
                    f"k={k}: non-prefix video set {committed}"
                )
                if db.index is not None:
                    check_tree(db.index.btree)
                    db.index.btree.buffer_pool.pager.verify_checksums()
                    assert _leaf_videos(db) == set(committed)
                    for video_id in committed:
                        result = db.query(self._frames(video_id), k=1)
                        assert result.videos == (video_id,), (
                            f"k={k}: committed video {video_id} not "
                            f"queryable (got {result.videos})"
                        )
            finally:
                db.close()

    def test_crash_during_recovery_is_recoverable(self, tmp_path):
        """Crashing while *recovering* must itself be recoverable: run the
        workload, crash mid-commit, then crash the reopen at every one of
        its operations and verify a final clean reopen."""
        # Build a directory whose WAL holds a committed-but-unapplied txn
        # by crashing just before the post-commit apply completes.
        injector = FaultInjector()
        self._run(tmp_path / "baseline", injector)
        total_ops = injector.ops

        crash_k = max(1, total_ops - 2)
        path = tmp_path / "victim"
        with pytest.raises(SimulatedCrash):
            self._run(path, FaultInjector(crash_after=crash_k, mode="drop"))

        # Sweep the reopen itself.
        reopen_injector = FaultInjector()
        db = VideoDatabase(path=path, fault_injector=reopen_injector)
        expect_videos = sorted(db.index.video_frames) if db.index else []
        db.close()
        # db.close() committed (clean), so re-prime the directory.
        path2 = tmp_path / "victim2"
        with pytest.raises(SimulatedCrash):
            self._run(path2, FaultInjector(crash_after=crash_k, mode="drop"))
        reopen_ops = reopen_injector.ops
        for k in range(1, reopen_ops + 1):
            try:
                db = VideoDatabase(
                    path=path2,
                    fault_injector=FaultInjector(crash_after=k, mode=_mode_for(k)),
                )
                db.crash()
            except SimulatedCrash:
                pass
        # After arbitrarily many interrupted recoveries, a clean reopen
        # still lands on the committed state.
        db = VideoDatabase(path=path2)
        got = sorted(db.index.video_frames) if db.index else []
        assert got == expect_videos
        if db.index is not None:
            check_tree(db.index.btree)
            assert _leaf_videos(db) == set(got)
        db.close()
