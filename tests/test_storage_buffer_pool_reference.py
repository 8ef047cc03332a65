"""The buffer pool against two references.

* A plain reference LRU of ``capacity + spill`` pages: with a spill
  segment (:meth:`BufferPool.with_spill`) the pool's two segments must
  behave exactly as that one LRU — contents and order, requests, hits,
  misses, spill hits (hits on a page the first ``capacity`` entries no
  longer held), per-bundle reads and the pager's write-back order.
* For ``spill=0``, a frozen copy of the pool as it was before the spill
  segment existed (:class:`FrozenBufferPool` below): the plain pool must
  stay that pool, request for request.

Both references take a run one id at a time in request order, while the
pool takes first the ids it held when the run began (:func:`held_first`):
each reference is fed that order, and the rows are compared in request
order.

Random operation sequences mix single fetches, runs (repeated ids, runs
longer than the pool, runs of consecutive ids that the pager reads in one
go), writes and ``clear()``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import PAGE_CONTENT_SIZE, Page
from repro.storage.pager import Pager
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

NUM_PAGES = 12
CAPACITIES = (0, 1, 2, 5, 8)
SPILLS = (0, 1, 3, 16)

_PENDING = object()


class FrozenBufferPool:
    """The pool's access path before the spill segment, kept verbatim
    (docstrings and comments trimmed) as the ``spill=0`` oracle."""

    def __init__(self, pager: Pager, capacity: int = 128) -> None:
        self._pager = pager
        self._capacity = capacity
        self._pages: OrderedDict[int, Page] = OrderedDict()
        self._lock = make_lock("FrozenBufferPool._lock")
        self.requests = 0
        self.hits = 0
        self.misses = 0

    def fetch(self, page_id, counters=None):
        (source,), images = self._access((page_id,), counters)
        if isinstance(source, Page):
            return source
        with self._lock:
            page = self._pages.get(page_id)
        if page is None:
            page = Page(page_id, images[source])
            page.owner = self
            page.evicted = True
        return page

    def fetch_run(self, page_ids, counters=None):
        sources, images = self._access(page_ids, counters)
        if images is not None and len(images) == len(sources):
            return images
        out = np.empty((len(sources), PAGE_CONTENT_SIZE), dtype=np.uint8)
        for position, source in enumerate(sources):
            out[position] = (
                np.frombuffer(source.data, dtype=np.uint8)
                if isinstance(source, Page)
                else images[source]
            )
        return out

    def _access(self, page_ids, counters):
        pages = self._pages
        sources = []
        missed = []
        pending = {}
        tail = []
        with self._lock:
            for page_id in page_ids:
                page = pages.get(page_id)
                if page is not None:
                    pages.move_to_end(page_id)
                    sources.append(pending[page_id] if page is _PENDING else page)
                    continue
                sources.append(len(missed))
                missed.append(page_id)
                if self._capacity > 0:
                    pending[page_id] = sources[-1]
                    pages[page_id] = _PENDING
                    if len(pages) > self._capacity:
                        self._evict_overflow(pending)
            self.requests += len(sources)
            self.hits += len(sources) - len(missed)
            self.misses += len(missed)
            if counters is not None:
                counters.page_requests += len(sources)
                counters.page_reads += len(missed)
            if pending:
                waiting = len(pending)
                for page_id in reversed(pages):
                    tail.append(page_id)
                    if page_id in pending:
                        waiting -= 1
                        if waiting == 0:
                            break
                for page_id in pending:
                    del pages[page_id]
        if not missed:
            return sources, None
        images = self._pager.read_run(missed)
        with self._lock:
            for page_id in reversed(tail):
                if page_id in pages:
                    pages.move_to_end(page_id)
                elif page_id in pending:
                    self._admit(Page(page_id, images[pending[page_id]]))
        return sources, images

    def _admit(self, page):
        page.owner = self
        if self._capacity == 0:
            page.evicted = True
            if page.dirty:
                self._pager.write_page(page)
            return
        page.evicted = False
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id)
        self._evict_overflow()

    def _evict_overflow(self, pending=None):
        while len(self._pages) > self._capacity:
            page_id, evicted = self._pages.popitem(last=False)
            if evicted is _PENDING:
                del pending[page_id]
                continue
            if evicted.dirty:
                self._pager.write_page(evicted)
            evicted.evicted = True

    def write_through(self, page):
        self._pager.write_page(page)

    def flush(self):
        with self._lock:
            for page in self._pages.values():
                if page.dirty:
                    self._pager.write_page(page)

    def clear(self):
        with self._lock:
            self.flush()
            for page in self._pages.values():
                page.evicted = True
            self._pages.clear()

    def page_ids(self):
        return list(self._pages)


class ReferenceLRU:
    """One LRU of ``capacity + spill`` page ids with dirty flags."""

    def __init__(self, capacity: int, spill: int) -> None:
        self.first = capacity
        self.size = capacity + spill
        self.order: OrderedDict[int, bool] = OrderedDict()  # id -> dirty
        self.requests = self.hits = self.misses = self.spill_hits = 0
        self.writes: list[int] = []

    def access(self, page_id: int) -> tuple[int, int]:
        """``(reads, spill hits)`` of one request."""
        self.requests += 1
        if page_id in self.order:
            self.hits += 1
            ids = list(self.order)
            spilled = int(len(ids) - ids.index(page_id) > self.first)
            self.spill_hits += spilled
            self.order.move_to_end(page_id)
            return 0, spilled
        self.misses += 1
        if self.size > 0:
            self.order[page_id] = False
            while len(self.order) > self.size:
                evicted, dirty = self.order.popitem(last=False)
                if dirty:
                    self.writes.append(evicted)
        return 1, 0

    def mark_dirty(self, page_id: int) -> None:
        if page_id in self.order:
            self.order[page_id] = True
        else:  # nothing is cached: the write goes through
            self.writes.append(page_id)

    def clear(self) -> None:
        self.writes.extend(page_id for page_id, dirty in self.order.items() if dirty)
        self.order.clear()


def held_first(ids, cached_ids) -> list[int]:
    """The order in which a pool serves the run *ids*: first the
    requests for pages it held (*cached_ids*) when the run began, then
    the rest, each part in request order."""
    cached = set(cached_ids)
    return [page_id for page_id in ids if page_id in cached] + [
        page_id for page_id in ids if page_id not in cached
    ]


def make_pager() -> tuple[Pager, list[int]]:
    """A pager of ``NUM_PAGES`` pages (byte 0 = version 0) whose
    ``write_page`` calls are logged by page id."""
    pager = Pager()
    for _ in range(NUM_PAGES):
        pager.write_page(Page(pager.allocate_page()))
    writes: list[int] = []
    write_page = pager.write_page

    def logged(page):
        writes.append(page.page_id)
        write_page(page)

    pager.write_page = logged
    return pager, writes


page_ids = st.integers(0, NUM_PAGES - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("fetch"), page_ids),
        st.tuples(st.just("run"), st.lists(page_ids, max_size=24)),
        st.tuples(
            st.just("consecutive"), st.integers(0, NUM_PAGES - 1), st.integers(1, 12)
        ),
        st.tuples(st.just("dirty"), page_ids),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


def expand(operation) -> list[int]:
    """The ids a read operation requests, in order."""
    kind = operation[0]
    if kind == "clear":
        return []
    if kind in ("fetch", "dirty"):
        return [operation[1]]
    if kind == "run":
        return list(operation[1])
    start, length = operation[1], operation[2]
    return list(range(start, min(NUM_PAGES, start + length)))


def apply(pool, operation, versions: dict[int, int]) -> tuple[CostCounters, list]:
    """Run one operation; returns its bundle and the byte 0 of every
    page image it handed out."""
    bundle = CostCounters()
    kind = operation[0]
    if kind == "clear":
        pool.clear()
        return bundle, []
    if kind in ("fetch", "dirty"):
        page = pool.fetch(operation[1], bundle)
        seen = [page.data[0]]
        if kind == "dirty":
            versions[operation[1]] += 1
            page.data[0] = versions[operation[1]] % 256
            page.mark_dirty()
        return bundle, seen
    images = pool.fetch_run(expand(operation), bundle)
    assert images.shape == (len(expand(operation)), PAGE_CONTENT_SIZE)
    return bundle, [int(row[0]) for row in images]


@pytest.mark.parametrize("spill", SPILLS)
@pytest.mark.parametrize("capacity", CAPACITIES)
@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_segments_are_one_lru_of_the_summed_capacity(capacity, spill, ops):
    pager, writes = make_pager()
    pool = BufferPool.with_spill(pager, capacity, spill)
    reference = ReferenceLRU(capacity, spill)
    versions = dict.fromkeys(range(NUM_PAGES), 0)
    for operation in ops:
        want = [versions[page_id] % 256 for page_id in expand(operation)]
        bundle, seen = apply(pool, operation, versions)
        if operation[0] == "clear":
            reference.clear()
        else:
            reads = spilled = 0
            for page_id in held_first(expand(operation), reference.order):
                read, hit = reference.access(page_id)
                reads += read
                spilled += hit
            if operation[0] == "dirty":
                reference.mark_dirty(operation[1])
            assert seen == want, "a request saw a stale page image"
            assert bundle.page_requests == len(want)
            assert bundle.page_reads == reads
            if spill:
                assert bundle.extra["range_cache_hits"] == spilled
                assert bundle.extra["range_cache_misses"] == reads
            else:
                assert "range_cache_hits" not in bundle.extra
        assert pool.page_ids() == list(reference.order)
        assert (pool.requests, pool.hits, pool.misses) == (
            reference.requests,
            reference.hits,
            reference.misses,
        )
        assert pool.spill_hits == reference.spill_hits
        assert pool.spill_misses == (reference.misses if spill else 0)
        assert writes == reference.writes
    pool.clear()
    reference.clear()
    assert writes == reference.writes
    assert pool.page_ids() == []
    assert [int(row[0]) for row in pager.read_run(range(NUM_PAGES))] == [
        versions[page_id] % 256 for page_id in range(NUM_PAGES)
    ]


@pytest.mark.parametrize("capacity", CAPACITIES)
@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_plain_pool_is_the_frozen_pool(capacity, ops):
    pager, writes = make_pager()
    frozen_pager, frozen_writes = make_pager()
    pool = BufferPool.with_spill(pager, capacity, 0)
    frozen = FrozenBufferPool(frozen_pager, capacity)
    versions = dict.fromkeys(range(NUM_PAGES), 0)
    frozen_versions = dict(versions)
    for operation in ops:
        ids = expand(operation)
        frozen_operation = operation
        if operation[0] in ("run", "consecutive"):
            frozen_operation = ("run", held_first(ids, frozen.page_ids()))
        bundle, seen = apply(pool, operation, versions)
        frozen_bundle, frozen_seen = apply(frozen, frozen_operation, frozen_versions)
        frozen_by_id = dict(zip(expand(frozen_operation), frozen_seen))
        assert seen == [frozen_by_id[page_id] for page_id in ids]
        assert bundle.snapshot() == frozen_bundle.snapshot()
        assert pool.page_ids() == frozen.page_ids()
        assert (pool.requests, pool.hits, pool.misses) == (
            frozen.requests,
            frozen.hits,
            frozen.misses,
        )
        assert pool.spill_hits == pool.spill_misses == 0
        assert writes == frozen_writes
        assert pager.physical_reads == frozen_pager.physical_reads
        assert pager.physical_writes == frozen_pager.physical_writes


def test_with_spill_validates_the_segment_size():
    with pytest.raises(TypeError):
        BufferPool.with_spill(Pager(), 4, "two")
    with pytest.raises(TypeError):
        BufferPool.with_spill(Pager(), 4, True)
    with pytest.raises(ValueError):
        BufferPool.with_spill(Pager(), 4, -1)
    pager, _ = make_pager()
    pool = BufferPool.with_spill(pager, 4, 2)
    pool.fetch_run(range(NUM_PAGES))
    assert pool.page_ids() == list(range(NUM_PAGES - 6, NUM_PAGES))


def test_dirty_page_waits_in_the_spill_segment():
    """A dirty page the first segment evicts is written back only when
    it leaves the pool, not when it spills."""
    pager, writes = make_pager()
    pool = BufferPool.with_spill(pager, 1, 1)
    page = pool.fetch(0)
    page.data[0] = 7
    page.mark_dirty()
    pool.fetch(1)  # 0 spills, dirty
    assert writes == [] and not page.evicted
    assert pool.fetch(0) is page  # a spill hit hands out the same object
    assert pool.spill_hits == 1
    pool.fetch_run([2, 3])  # 0 leaves the pool
    assert writes == [0] and page.evicted
    assert pager.read_page(0).data[0] == 7
