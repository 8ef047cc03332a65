"""Sequential scan over a flat heap of the index's ViTris.

The brute-force comparator of Figures 17-19: every heap data page is read
and every (query ViTri, database ViTri) pair is evaluated.  Because the
B+-tree's key filter is lossless (pruned pairs provably share zero
frames), the sequential scan returns *exactly* the same KNN results as
:class:`~repro.core.index.VitriIndex` — only the cost differs, which the
tests assert and the benchmarks plot.

The index keeps each record once, in its B+-tree leaves, so the scan
writes its own in-memory heap file from them (``vitri_id`` order, the
order records were added in) and rewrites it whenever the index's
content token moves.
"""

from __future__ import annotations

from repro.core.index import KNNResult, QueryStats, VitriIndex, _check_query_args
from repro.core.scoring import ScoreAccumulator
from repro.core.vitri import VideoSummary
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap_file import HeapFile
from repro.storage.pager import Pager
from repro.storage.serialization import ViTriColumns
from repro.utils.counters import CostCounters, Timer

__all__ = ["SequentialScan"]


class SequentialScan:
    """Brute-force KNN over a flat heap of an index's live records.

    The heap's buffer pool has the index's pool capacity, so I/O numbers
    are directly comparable.
    """

    def __init__(self, index: VitriIndex) -> None:
        if not isinstance(index, VitriIndex):
            raise TypeError("index must be a VitriIndex")
        self._index = index
        self._heap: HeapFile | None = None
        self._heap_token: str | None = None

    @property
    def heap(self) -> HeapFile:
        """The scanned heap, current with the index's content."""
        token = self._index.content_token()
        if self._heap is None or token != self._heap_token:
            _, records = self._index.records()
            heap = HeapFile.create(
                BufferPool(
                    Pager(), capacity=self._index.btree.buffer_pool.capacity
                ),
                self._index.codec.record_size,
            )
            for record in records:
                heap.append(record.tobytes())
            self._heap, self._heap_token = heap, token
        return self._heap

    def knn(self, query: VideoSummary, k: int, *, cold: bool = True) -> KNNResult:
        """Top-``k`` most similar videos by scanning every ViTri record.

        Parameters
        ----------
        query:
            ViTri summary of the query video.
        k:
            Number of results.
        cold:
            Clear the heap's buffer pool first (default: a sequential scan
            is always cold in the paper's model).
        """
        _check_query_args(query, k, self._index.dim)

        heap = self.heap
        codec = self._index.codec
        video_frames = self._index.video_frames
        if cold:
            heap.buffer_pool.clear()

        # Per-query bundle: the scan's page accesses are attributed to
        # this query alone (never derived from global pool deltas).
        counters = CostCounters()
        accumulator = ScoreAccumulator(query, video_frames)
        candidates = 0

        with Timer() as timer:
            # Page-batched scan: each heap page is decoded with a single
            # columnar buffer view instead of one decode per record.
            pages = [
                codec.decode_columns(block, used, counters=counters)
                for _, used, block in heap.scan_batches(counters=counters)
            ]
            columns = ViTriColumns.concat(pages, codec.dim)
            candidates = len(columns)
            if candidates:
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
        stats = QueryStats(
            page_requests=counters.page_requests,
            physical_reads=counters.page_reads,
            node_visits=0,
            similarity_computations=accumulator.evaluations,
            candidates=candidates,
            ranges=0,
            wall_time=timer.elapsed,
        )
        return KNNResult(
            videos=tuple(video for video, _ in ranked),
            scores=tuple(score for _, score in ranked),
            stats=stats,
        )
