"""LRU buffer pool with logical-request accounting.

Sits between the access methods (B+-tree, heap file) and the
:class:`~repro.storage.pager.Pager`.  Every page access is a *logical
request*; only misses become physical reads.  The distinction matters for
the paper's Figure 16: query composition saves I/O precisely because the
naive per-ViTri KNN re-reads the same leaf pages, and whether those repeats
hit the pool or the disk is a buffer-size question the benchmark sweeps.

Accounting happens at two scopes: the pool's cumulative ``requests`` /
``hits`` / ``misses`` attributes (a lifetime aggregate, useful for
benchmark sweeps), and an optional per-query
:class:`~repro.utils.counters.CostCounters` bundle passed to
:meth:`BufferPool.fetch` / :meth:`BufferPool.fetch_run` — the per-query
bundle is what
:class:`~repro.core.index.QueryStats` is built from, so interleaved
queries can never misattribute each other's page accesses.

All cache and counter mutations are guarded by an internal lock, so a
pool may be shared by concurrent readers (the query engine additionally
gives each worker its own pool to avoid cache-interference between
queries; the lock makes even the shared-pool case lose no updates).
Miss reads happen outside the lock so concurrent misses overlap their
simulated disk waits; a pool shared by concurrent *mutators* of the
same page additionally needs serialisation above this layer (the engine
serialises structural writes, so in practice shared pools only serve
reads).

A pool built by :meth:`BufferPool.with_spill` has a second segment: the
pages its ``capacity`` segment evicts move into a *spill* segment of
``spill`` pages, and a miss looks there before it asks the pager.  The
two segments together are exactly one LRU of ``capacity + spill`` pages
(same contents, order and write-back order); the split only tells which
hits the first segment alone would have missed (``spill_hits``).  The
serving engine uses it as its second cache tier: each leaf is held once,
whichever query ranges cover it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Sequence

import numpy as np

from repro.storage.page import PAGE_CONTENT_SIZE, Page
from repro.storage.pager import Pager
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["BufferPool"]

_PENDING = object()
"""Placeholder for a page being read; never visible outside the pool lock."""


def _check_size(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


class BufferPool:
    """Fixed-capacity LRU cache of pages.

    Parameters
    ----------
    pager:
        The underlying page store.
    capacity:
        Maximum number of pages cached.  ``0`` disables caching entirely
        (every request is a physical read) — useful to make I/O counts
        exactly equal to logical accesses.

    Attributes
    ----------
    requests / hits / misses:
        Cumulative logical-access counters (a spill hit is a hit).
    spill_hits / spill_misses:
        The spill segment's own lookups: the requests the ``capacity``
        segment missed, split by whether the spill segment held the
        page.  Both stay 0 without a spill segment.
    """

    def __init__(self, pager: Pager, capacity: int = 128) -> None:
        _check_size("capacity", capacity)
        self._pager = pager
        self._capacity = capacity
        self._pages: OrderedDict[int, Page] = OrderedDict()
        # Pages the capacity segment evicted, LRU first; empty unless
        # with_spill() gave the pool a spill segment.
        self._spill: OrderedDict[int, Page] = OrderedDict()
        self._spill_capacity = 0
        self._lock = make_lock("BufferPool._lock")
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.spill_hits = 0
        self.spill_misses = 0

    @classmethod
    def with_spill(cls, pager: Pager, capacity: int, spill: int) -> "BufferPool":
        """A pool whose ``capacity`` segment spills its evictions into a
        second segment of ``spill`` pages (``spill=0``: a plain pool)."""
        _check_size("spill", spill)
        pool = cls(pager, capacity)
        pool._spill_capacity = spill
        return pool

    @property
    def pager(self) -> Pager:
        """The underlying page store."""
        return self._pager

    @property
    def capacity(self) -> int:
        """Maximum number of pages in the first segment."""
        return self._capacity

    def page_ids(self) -> list[int]:
        """Every cached page id, least-recently-used first (spill
        segment, then the capacity segment)."""
        with self._lock:
            return [*self._spill, *self._pages]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def fetch(self, page_id: int, counters: CostCounters | None = None) -> Page:
        """Return the page, from cache if possible.

        The returned :class:`Page` object is shared: mutate ``page.data``
        in place and call ``page.mark_dirty()`` so eviction/flush writes it
        back.  This is the one-element case of :meth:`fetch_run` (same
        accounting, same miss discipline) that hands out the cached
        object instead of an image of it.

        Parameters
        ----------
        page_id:
            The page to fetch.
        counters:
            Optional per-query cost bundle: every fetch bumps
            ``page_requests`` and every miss additionally bumps
            ``page_reads``.  This is the only sanctioned source for
            query-cost reporting (the pool's own attributes are lifetime
            aggregates shared by every caller).
        """
        (source,), images = self._access((page_id,), counters)
        if isinstance(source, Page):
            return source
        with self._lock:
            # Admitted by _access (into the spill segment when capacity is 0).
            page = self._pages.get(page_id) or self._spill.get(page_id)
        if page is None:
            # Nothing stays cached (capacity 0): hand out an already
            # "evicted" page, whose mark_dirty() writes through.
            page = Page(page_id, images[source])
            page.owner = self
            page.evicted = True
        return page

    def fetch_run(
        self, page_ids: Sequence[int], counters: CostCounters | None = None
    ) -> np.ndarray:
        """Fetch many pages for reading: ``(len(page_ids),
        PAGE_CONTENT_SIZE)`` uint8, row ``i`` a private image of page
        ``page_ids[i]`` (not the pool's shared :class:`Page` objects).

        Requests, hits, misses, the per-query ``counters`` and the final
        LRU order are exactly those of :meth:`fetch` per id in order,
        but the misses reach the pager as one
        :meth:`~repro.storage.pager.Pager.read_run` — one file read per
        run of consecutive ids — and only the missed pages still cached
        when the run ends are materialised as :class:`Page` objects.
        """
        sources, images = self._access(page_ids, counters)
        if images is None:
            # Every request hit: one copy of the pages' joined bytes.
            joined = bytearray().join([page.data for page in sources])
            return np.frombuffer(joined, dtype=np.uint8).reshape(
                len(sources), PAGE_CONTENT_SIZE
            )
        if len(images) == len(sources):
            return images  # every request missed: the rows are in order
        out = np.empty((len(sources), PAGE_CONTENT_SIZE), dtype=np.uint8)
        for position, source in enumerate(sources):
            out[position] = (
                np.frombuffer(source.data, dtype=np.uint8)
                if isinstance(source, Page)
                else images[source]
            )
        return out

    def _access(
        self, page_ids: Sequence[int], counters: CostCounters | None
    ) -> "tuple[list[Page | int], np.ndarray | None]":
        """The pool's one accounting path: ``(sources, images)`` — per
        requested id the cached :class:`Page` on a hit, else the row of
        ``images`` holding its freshly read content.

        The physical reads happen *outside* the pool lock: the pager
        models per-read service time, and holding the pool lock across
        it would serialise concurrent misses that real storage hardware
        overlaps.  So the ids are first replayed against the LRU with
        placeholders for the missed pages (evicting, and writing dirty
        pages back, exactly when a per-id loop would); the surviving
        placeholders are taken out before the lock is released, and
        after the read their pages are admitted at the replayed LRU
        positions.  Each miss performs and accounts exactly one physical
        read even when two threads miss the same page at once — the
        loser of the re-admission race keeps the winner's cached page
        but has already paid (and counted) its own read, keeping
        ``sum(page_reads) == misses`` exact.

        With a spill segment the replay runs over both segments: a
        capacity-segment miss that the spill segment holds is a hit
        moved back to the front, and a placeholder the capacity segment
        evicts spills like a page, so a run longer than ``capacity``
        still leaves exactly the summed LRU behind.
        """
        pages = self._pages
        spill = self._spill if self._spill_capacity else None
        sources: "list[Page | int]" = []
        missed: list[int] = []
        pending: dict[int, int] = {}  # placeholder id -> its images row
        tail: list[int] = []
        spilled = 0
        with self._lock:
            for page_id in page_ids:
                page = pages.get(page_id)
                if page is not None:
                    pages.move_to_end(page_id)
                    sources.append(pending[page_id] if page is _PENDING else page)
                    continue
                if spill is not None and page_id in spill:
                    spilled += 1
                    page = spill.pop(page_id)
                    sources.append(pending[page_id] if page is _PENDING else page)
                else:
                    sources.append(len(missed))
                    missed.append(page_id)
                    if self._capacity == 0 and spill is None:
                        continue
                    page = _PENDING
                    pending[page_id] = sources[-1]
                pages[page_id] = page
                if len(pages) > self._capacity:
                    self._evict_overflow(pending)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            self.requests += len(sources)
            self.hits += len(sources) - len(missed)
            self.misses += len(missed)
            if spill is not None:
                self.spill_hits += spilled
                self.spill_misses += len(missed)
            if counters is not None:
                counters.page_requests += len(sources)
                counters.page_reads += len(missed)
                if spill is not None:
                    extra = counters.extra
                    extra["range_cache_hits"] = extra.get("range_cache_hits", 0) + spilled
                    extra["range_cache_misses"] = (
                        extra.get("range_cache_misses", 0) + len(missed)
                    )
            if pending:
                # The LRU suffix from the oldest surviving placeholder on:
                # replaying it after the read restores the exact order.
                waiting = len(pending)
                newest_first = (
                    reversed(pages)
                    if spill is None
                    else chain(reversed(pages), reversed(spill))
                )
                for page_id in newest_first:
                    tail.append(page_id)
                    if page_id in pending:
                        waiting -= 1
                        if waiting == 0:
                            break
                for page_id in pending:
                    if spill is None or page_id in pages:
                        del pages[page_id]
                    else:
                        del spill[page_id]
        if not missed:
            return sources, None
        images = self._pager.read_run(missed)
        with self._lock:
            for page_id in reversed(tail):
                if page_id in pages:
                    # Cached all along, or admitted by a racing miss: keep
                    # that copy so every caller shares one Page per id.
                    pages.move_to_end(page_id)
                    continue
                if spill is not None and page_id in spill:
                    page = spill.pop(page_id)
                elif page_id in pending:
                    page = Page(page_id, images[pending[page_id]])
                else:
                    continue
                self._admit(page)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
        return sources, images

    def allocate(self) -> Page:
        """Allocate a fresh page and cache it."""
        with self._lock:
            page_id = self._pager.allocate_page()  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            page = Page(page_id)
            self._admit(page)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            return page

    def _admit(self, page: Page) -> None:
        # Callers hold self._lock (_access/allocate); the RLock makes the
        # invariant cheap to keep even if _admit gains other callers.
        page.owner = self
        if self._capacity == 0 and self._spill_capacity == 0:
            # Cache disabled: the page is immediately "evicted", so any
            # later mark_dirty() on it writes through via the owner hook.
            page.evicted = True
            if page.dirty:
                self._pager.write_page(page)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            return
        page.evicted = False
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id)
        self._evict_overflow()  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update

    def _evict_overflow(self, pending: "dict[int, int] | None" = None) -> None:
        """Evict down to capacity (lock held), through the spill segment
        when there is one.  A placeholder of :meth:`_access` spills like
        a page; evicted from the pool, it has no page to write back: it
        leaves *pending*."""
        while len(self._pages) > self._capacity:
            page_id, evicted = self._pages.popitem(last=False)
            if self._spill_capacity:
                self._spill[page_id] = evicted
                if len(self._spill) <= self._spill_capacity:
                    continue
                page_id, evicted = self._spill.popitem(last=False)
            if evicted is _PENDING:
                del pending[page_id]
                continue
            if evicted.dirty:
                self._pager.write_page(evicted)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            evicted.evicted = True

    def write_through(self, page: Page) -> None:
        """Persist a page immediately (used by capacity-0 pools and tests)."""
        self._pager.write_page(page)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back every dirty cached page (pages stay cached)."""
        with self._lock:
            for page in chain(self._spill.values(), self._pages.values()):
                if page.dirty:
                    self._pager.write_page(page)  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update

    def clear(self) -> None:
        """Flush then drop the whole cache, both segments (cold-start a
        benchmark run)."""
        with self._lock:
            self.flush()  # vilint: disable=blocking-while-locked -- eviction write-back journals to the WAL (or memory); bounded work that must stay atomic with the LRU update
            for page in chain(self._spill.values(), self._pages.values()):
                page.evicted = True
            self._spill.clear()
            self._pages.clear()

    def reset_counters(self) -> None:
        """Zero the logical-access counters (physical counters live on the
        pager)."""
        with self._lock:
            self.requests = 0
            self.hits = 0
            self.misses = 0
            self.spill_hits = 0
            self.spill_misses = 0

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"BufferPool(capacity={self._capacity}, "
                f"cached={len(self._pages)}, "
                f"requests={self.requests}, hits={self.hits})"
            )
