"""The leaf chain is the only copy of a record, and nothing derived from
the full record set changes a bit.

Indexes used to keep a second copy of every record in a flat heap
(appended at build in key order, appended on insert, tombstoned on
removal) and derived the reopened streaming moments, the drift angle,
rebuild summaries and the sequential scan's input from it.  This file
keeps a frozen copy of that heap and of the old derivations
(:class:`_ReferenceHeap`, :func:`_reference_positions`,
:func:`_reference_summaries`, :func:`_reference_scan`), replays the same
bulk build / insert / remove on it, and checks that the leaf-chain
versions match it bit for bit across a durable reopen.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
import pytest

from repro.baselines.seqscan import SequentialScan
from repro.core.database import DatabaseFormatError, VideoDatabase
from repro.core.index import TOMBSTONE_VIDEO_ID, VitriIndex
from repro.core.scoring import ScoreAccumulator
from repro.core.summarize import summarize_video
from repro.core.vitri import VideoSummary, ViTri
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.pca.incremental import IncrementalMoments
from repro.pca.pca import principal_angle
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap_file import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialization import ViTriColumns, ViTriRecord, ViTriRecordCodec
from repro.utils.counters import CostCounters

EPSILON = 0.2
BULK = 30  # videos bulk-built; the rest are inserted one by one
REMOVED = (3, 31)  # one bulk-built video, one inserted one


# ----------------------------------------------------------------------
# Frozen reference: the flat heap and the derivations that read it
# ----------------------------------------------------------------------
class _ReferenceHeap:
    """The heap copy an index used to keep beside its B+-tree."""

    def __init__(self, index: VitriIndex, bulk: list[VideoSummary]) -> None:
        self.codec = ViTriRecordCodec(index.dim)
        self.heap = HeapFile.create(
            BufferPool(Pager(), capacity=256), self.codec.record_size
        )
        self.next_vitri_id = 0
        flat = [(s.video_id, vitri) for s in bulk for vitri in s.vitris]
        positions = np.stack([vitri.position for _, vitri in flat])
        keys = index.transform.keys(positions)
        for position_in_key_order in np.argsort(keys, kind="stable"):
            self._append(*flat[position_in_key_order])

    def _append(self, video_id: int, vitri: ViTri) -> None:
        record = ViTriRecord(
            video_id=video_id,
            vitri_id=self.next_vitri_id,
            count=vitri.count,
            radius=vitri.radius,
            position=vitri.position,
        )
        self.next_vitri_id += 1
        self.heap.append(self.codec.encode(record))

    def insert(self, summary: VideoSummary) -> None:
        for vitri in summary.vitris:
            self._append(summary.video_id, vitri)

    def remove(self, video_id: int) -> list[np.ndarray]:
        """Tombstone the video's records; their positions, heap order."""
        removed = []
        for record_id, payload in list(self.heap.scan()):
            record = self.codec.decode(payload)
            if record.video_id != video_id:
                continue
            tombstone = ViTriRecord(
                video_id=TOMBSTONE_VIDEO_ID,
                vitri_id=record.vitri_id,
                count=record.count,
                radius=record.radius,
                position=record.position,
            )
            # The heap's old in-place overwrite.
            page = self.heap.buffer_pool.fetch(record_id.page_id)
            offset = 2 + record_id.slot * self.codec.record_size
            page.data[offset : offset + self.codec.record_size] = (
                self.codec.encode(tombstone)
            )
            page.mark_dirty()
            removed.append(record.position)
        return removed


def _reference_positions(ref: _ReferenceHeap, dim: int) -> np.ndarray:
    positions = [
        record.position
        for record in (ref.codec.decode(p) for _, p in ref.heap.scan())
        if record.video_id != TOMBSTONE_VIDEO_ID
    ]
    if not positions:
        return np.zeros((0, dim))
    return np.stack(positions)


def _reference_summaries(
    ref: _ReferenceHeap, video_frames: dict[int, int]
) -> list[VideoSummary]:
    by_video: dict[int, list[ViTri]] = defaultdict(list)
    for _, payload in ref.heap.scan():
        record = ref.codec.decode(payload)
        if record.video_id == TOMBSTONE_VIDEO_ID:
            continue
        by_video[record.video_id].append(
            ViTri(position=record.position, radius=record.radius, count=record.count)
        )
    return [
        VideoSummary(
            video_id=video_id,
            vitris=tuple(vitris),
            num_frames=video_frames[video_id],
        )
        for video_id, vitris in sorted(by_video.items())
    ]


def _reference_scan(ref: _ReferenceHeap, query, k, video_frames):
    """The old sequential scan over the heap copy: ``(videos, scores,
    page_requests)``."""
    ref.heap.buffer_pool.clear()
    counters = CostCounters()
    accumulator = ScoreAccumulator(query, video_frames)
    pages = [
        ref.codec.decode_columns(block, used, counters=counters)
        for _, used, block in ref.heap.scan_batches(counters=counters)
    ]
    columns = ViTriColumns.concat(pages, ref.codec.dim)
    columns = columns.take(columns.video_ids != TOMBSTONE_VIDEO_ID)
    for i in range(len(query.vitris)):
        accumulator.evaluate_arrays(
            i,
            columns.video_ids,
            columns.vitri_ids,
            columns.counts,
            columns.radii,
            columns.positions,
        )
    ranked = accumulator.ranked(k)
    return (
        tuple(video for video, _ in ranked),
        tuple(score for _, score in ranked),
        counters.page_requests,
    )


# ----------------------------------------------------------------------
# Bit-level views
# ----------------------------------------------------------------------
def _summary_bits(summaries):
    return [
        (
            s.video_id,
            s.num_frames,
            [
                (v.position.tobytes(), float(v.radius).hex(), v.count)
                for v in s.vitris
            ],
        )
        for s in summaries
    ]


def _moment_bits(moments: IncrementalMoments):
    return (
        moments.count,
        moments.mean.tobytes(),
        moments._scatter.tobytes(),
        moments.first_component().tobytes(),
    )


@pytest.fixture(scope="module")
def corpus():
    config = DatasetConfig(
        dim=16,
        num_families=5,
        family_size=3,
        num_distractors=20,
        duration_classes=((60, 0.5), (120, 0.5)),
    )
    dataset = generate_dataset(config, seed=53)
    return [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(dataset.num_videos)
    ]


@pytest.fixture(scope="module")
def lifecycle(corpus, tmp_path_factory):
    """Bulk build, inserts, removals and a durable reopen, on a database
    and on the frozen heap reference side by side."""
    path = str(tmp_path_factory.mktemp("leaf-chain") / "db")
    db = VideoDatabase(EPSILON, path=path)
    db.add_summaries(corpus[:BULK])
    db.build()
    ref = _ReferenceHeap(db.index, corpus[:BULK])
    for summary in corpus[BULK:]:
        db.add_summary(summary)
        ref.insert(summary)
    before_removal = {
        "scan": [
            _scan_triple(SequentialScan(db.index), q) for q in corpus[::4]
        ],
        "ref_scan": [
            _reference_scan(ref, q, 10, db.index.video_frames) for q in corpus[::4]
        ],
    }
    # A live index's moments: folded at build in summary order, updated
    # per insert, downdated per removed record in heap order.
    live_expected = IncrementalMoments(db.index.dim)
    live_expected.update(np.concatenate([s.positions() for s in corpus[:BULK]]))
    for summary in corpus[BULK:]:
        live_expected.update(summary.positions())
    for video_id in REMOVED:
        db.remove(video_id)
        for position in ref.remove(video_id):
            live_expected.downdate(position[None, :])
    live = (
        _moment_bits(db.index._streaming_moments()),
        _moment_bits(live_expected),
    )
    db.close()
    reopened = VideoDatabase(path=path)
    yield {
        "db": reopened,
        "ref": ref,
        "corpus": corpus,
        "live_moments": live,
        "before_removal": before_removal,
    }
    reopened.close()


def _scan_triple(scan: SequentialScan, query):
    result = scan.knn(query, 10)
    return result.videos, result.scores, result.stats.page_requests


class TestBitIdentity:
    def test_summaries_match_the_heap_reference(self, lifecycle):
        index, ref = lifecycle["db"].index, lifecycle["ref"]
        reference = _reference_summaries(ref, index.video_frames)
        assert _summary_bits(index.summaries()) == _summary_bits(reference)
        assert len(reference) == len(lifecycle["corpus"]) - len(REMOVED)

    def test_reopened_moments_and_drift(self, lifecycle):
        index, ref = lifecycle["db"].index, lifecycle["ref"]
        expected = IncrementalMoments(index.dim)
        expected.update(_reference_positions(ref, index.dim))
        assert _moment_bits(index._streaming_moments()) == _moment_bits(expected)
        angle = principal_angle(
            np.asarray(index.meta_dict()["built_component"]),
            expected.first_component(),
        )
        assert index.drift_angle().hex() == float(angle).hex()

    def test_removal_downdates_in_heap_order(self, lifecycle):
        """``remove_video`` downdates the video's records one at a time
        in ``vitri_id`` order, the order the heap held them in."""
        got, expected = lifecycle["live_moments"]
        assert got == expected

    def test_rebuild_reference_point(self, lifecycle):
        index, ref = lifecycle["db"].index, lifecycle["ref"]
        expected = VitriIndex.build(
            _reference_summaries(ref, index.video_frames),
            EPSILON,
            reference=index.transform.strategy,
        )
        rebuilt = index.rebuild()
        assert (
            rebuilt.transform.reference_point_.tobytes()
            == expected.transform.reference_point_.tobytes()
        )
        assert rebuilt.content_token() == expected.content_token()

    def test_records_are_in_vitri_id_order(self, lifecycle):
        keys, records = lifecycle["db"].index.records()
        ids = records["vitri_id"].astype(np.int64)
        assert np.all(np.diff(ids) > 0)
        assert keys.size == records.size == lifecycle["db"].index.num_vitris


class TestSequentialScanMatchesTheHeap:
    def test_before_removal_bit_identical_with_same_pages(self, lifecycle):
        got = lifecycle["before_removal"]["scan"]
        expected = lifecycle["before_removal"]["ref_scan"]
        for (videos, scores, pages), (ref_videos, ref_scores, ref_pages) in zip(
            got, expected
        ):
            assert videos == ref_videos
            assert [s.hex() for s in scores] == [s.hex() for s in ref_scores]
            assert pages == ref_pages

    def test_after_removal_rankings_bit_identical(self, lifecycle):
        """The scan's heap holds live records only, so after a removal
        it reads no more pages than the tombstoned copy did."""
        index, ref = lifecycle["db"].index, lifecycle["ref"]
        scan = SequentialScan(index)
        for query in lifecycle["corpus"][1::5]:
            videos, scores, pages = _scan_triple(scan, query)
            ref_videos, ref_scores, ref_pages = _reference_scan(
                ref, query, 10, index.video_frames
            )
            assert videos == ref_videos
            assert [s.hex() for s in scores] == [s.hex() for s in ref_scores]
            assert pages <= ref_pages

    def test_heap_follows_the_content_token(self, corpus):
        index = VitriIndex.build(corpus[:BULK], EPSILON)
        scan = SequentialScan(index)
        first = scan.heap
        assert scan.heap is first
        index.insert_video(corpus[BULK])
        assert scan.heap is not first
        assert scan.heap.num_records == index.num_vitris


class TestOneFileLayout:
    def test_directory_holds_no_heap(self, lifecycle):
        db = lifecycle["db"]
        names = sorted(os.listdir(db.data_dir))
        assert names == ["db.json", "db.wal", "index.btree"]

    def test_opening_reads_only_the_metadata_page(self, lifecycle, corpus):
        path = os.path.join(os.path.dirname(lifecycle["db"].path), "open-cost")
        with VideoDatabase(EPSILON, path=path) as db:
            db.add_summaries(corpus)
        reopened = VideoDatabase(path=path)
        try:
            pool = reopened.index.btree.buffer_pool
            assert pool.page_ids() == [0]
            reopened.drift_angle()  # the first drift check walks the leaves
            assert len(pool.page_ids()) > 1
        finally:
            reopened.detach()


class TestFormatOneRefused:
    @staticmethod
    def _format_one_directory(root) -> str:
        path = os.path.join(str(root), "old")
        os.makedirs(path)
        with open(os.path.join(path, "db.json"), "w", encoding="utf-8") as handle:
            handle.write(
                '{"format": 1, "epsilon": 0.3, "reference": "optimal", '
                '"summarize_seed": 0, "next_video_id": 0, "index": null}'
            )
        with open(os.path.join(path, "index.heap"), "wb") as handle:
            handle.write(b"\0" * 4096)
        return path

    def test_database_refuses_it(self, tmp_path):
        path = self._format_one_directory(tmp_path)
        before = sorted(os.listdir(path))
        with pytest.raises(DatabaseFormatError, match="format 1"):
            VideoDatabase(path=path)
        # Refused before anything is opened or created.
        assert sorted(os.listdir(path)) == before

    def test_an_unapplied_first_checkpoint_is_refused_by_its_heap(self, tmp_path):
        path = self._format_one_directory(tmp_path)
        os.remove(os.path.join(path, "db.json"))
        with pytest.raises(DatabaseFormatError, match="format 1"):
            VideoDatabase(path=path)

    def test_check_names_the_format(self, tmp_path, capsys):
        from repro.cli import main

        path = self._format_one_directory(tmp_path)
        assert main(["check", "--index", path]) == 1
        err = capsys.readouterr().err
        assert "unsupported format 1" in err and "reads format 2" in err
