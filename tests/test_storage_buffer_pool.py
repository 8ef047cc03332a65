"""Tests for repro.storage.buffer_pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import PAGE_CONTENT_SIZE, Page
from repro.storage.pager import Pager
from repro.utils.counters import CostCounters
from tests.test_storage_buffer_pool_reference import held_first


def make_pool(capacity=4):
    pager = Pager()
    return pager, BufferPool(pager, capacity=capacity)


class TestBufferPool:
    def test_fetch_caches(self):
        pager, pool = make_pool()
        page = pool.allocate()
        reads_before = pager.physical_reads
        for _ in range(5):
            assert pool.fetch(page.page_id) is page
        assert pager.physical_reads == reads_before

    def test_hit_miss_counters(self):
        pager, pool = make_pool(capacity=1)
        a = pool.allocate()
        b = pool.allocate()  # evicts a
        pool.fetch(b.page_id)  # hit
        pool.fetch(a.page_id)  # miss (evicted)
        assert pool.requests == 2
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction_order(self):
        pager, pool = make_pool(capacity=2)
        a = pool.allocate()
        b = pool.allocate()
        pool.fetch(a.page_id)          # a is now most recent
        pool.allocate()                # evicts b (least recent)
        pager_reads = pager.physical_reads
        pool.fetch(a.page_id)          # still cached
        assert pager.physical_reads == pager_reads
        pool.fetch(b.page_id)          # must be re-read
        assert pager.physical_reads == pager_reads + 1

    def test_dirty_page_written_on_eviction(self):
        pager, pool = make_pool(capacity=1)
        a = pool.allocate()
        a.data[:2] = b"ok"
        a.mark_dirty()
        pool.allocate()  # evicts a, must write it back
        page = pager.read_page(a.page_id)
        assert bytes(page.data[:2]) == b"ok"

    def test_clean_page_not_written_on_eviction(self):
        pager, pool = make_pool(capacity=1)
        a = pool.allocate()
        writes = pager.physical_writes
        pool.allocate()  # evicts clean a
        # Only the allocation write happened.
        assert pager.physical_writes == writes + 1

    def test_flush_writes_dirty(self):
        pager, pool = make_pool()
        a = pool.allocate()
        a.data[0] = 7
        a.mark_dirty()
        pool.flush()
        assert pager.read_page(a.page_id).data[0] == 7
        assert not a.dirty

    def test_clear_drops_cache(self):
        pager, pool = make_pool()
        a = pool.allocate()
        pool.clear()
        reads = pager.physical_reads
        pool.fetch(a.page_id)
        assert pager.physical_reads == reads + 1

    def test_capacity_zero_always_misses(self):
        pager, pool = make_pool(capacity=0)
        pid = pager.allocate_page()
        pool.fetch(pid)
        pool.fetch(pid)
        assert pool.hits == 0
        assert pool.misses == 2

    def test_capacity_zero_write_through(self):
        pager, pool = make_pool(capacity=0)
        page = pool.allocate()
        page.data[0] = 5
        page.mark_dirty()
        pool.write_through(page)
        assert pager.read_page(page.page_id).data[0] == 5

    def test_reset_counters(self):
        pager, pool = make_pool()
        page = pool.allocate()
        pool.fetch(page.page_id)
        pool.reset_counters()
        assert pool.requests == 0
        assert pool.hits == 0
        assert pool.misses == 0

    def test_invalid_capacity(self):
        pager = Pager()
        with pytest.raises(ValueError):
            BufferPool(pager, capacity=-1)
        with pytest.raises(TypeError):
            BufferPool(pager, capacity=2.5)

    def test_never_exceeds_capacity(self):
        pager, pool = make_pool(capacity=3)
        for _ in range(10):
            pool.allocate()
        assert len(pool._pages) <= 3


class TestOrphanWriteThrough:
    """Mutating a page object after its eviction must not lose data."""

    def test_capacity_zero_mutation_persists(self):
        pager, pool = make_pool(capacity=0)
        page = pool.allocate()
        page.data[:3] = b"abc"
        page.mark_dirty()
        assert bytes(pager.read_page(page.page_id).data[:3]) == b"abc"

    def test_evicted_page_mutation_persists(self):
        pager, pool = make_pool(capacity=1)
        a = pool.allocate()
        pool.allocate()  # evicts a (clean)
        a.data[:2] = b"hi"
        a.mark_dirty()   # orphan write-through
        assert bytes(pager.read_page(a.page_id).data[:2]) == b"hi"

    def test_cleared_page_mutation_persists(self):
        pager, pool = make_pool(capacity=4)
        a = pool.allocate()
        pool.clear()
        a.data[0] = 9
        a.mark_dirty()
        assert pager.read_page(a.page_id).data[0] == 9

    def test_cached_page_not_written_until_eviction(self):
        pager, pool = make_pool(capacity=4)
        a = pool.allocate()
        writes = pager.physical_writes
        a.data[0] = 1
        a.mark_dirty()
        # Still cached: deferred write-back, no physical write yet.
        assert pager.physical_writes == writes

    def test_btree_build_works_with_tiny_pool(self):
        import struct
        from repro.btree.checker import check_tree
        from repro.btree.tree import BPlusTree

        pool = BufferPool(Pager(), capacity=2)
        tree = BPlusTree.create(pool, payload_size=8)
        for i in range(2000):
            tree.insert(float(i % 101), struct.pack("<q", i))
        check_tree(tree)
        assert len(tree.search(50.0)) == 2000 // 101 + (1 if 50 < 2000 % 101 else 0)


class TestPerQueryCounters:
    def test_fetch_populates_bundle(self):
        from repro.utils.counters import CostCounters

        pager, pool = make_pool(capacity=4)
        page = pool.allocate()
        pool.clear()
        counters = CostCounters()
        pool.fetch(page.page_id, counters)  # cold: miss
        pool.fetch(page.page_id, counters)  # warm: hit
        assert counters.page_requests == 2
        assert counters.page_reads == 1

    def test_bundle_isolated_between_queries(self):
        from repro.utils.counters import CostCounters

        pager, pool = make_pool(capacity=4)
        page = pool.allocate()
        first, second = CostCounters(), CostCounters()
        pool.fetch(page.page_id, first)
        pool.fetch(page.page_id, second)
        assert first.page_requests == 1
        assert second.page_requests == 1


class TestThreadSafety:
    def test_concurrent_fetches_lose_no_counts(self):
        """N threads x M fetches over one shared pool: the pool's global
        counters and the per-thread bundles must both be exact."""
        import sys
        import threading

        from repro.utils.counters import CostCounters

        pager = Pager()
        setup = BufferPool(pager, capacity=8)
        page_ids = [setup.allocate().page_id for _ in range(8)]
        setup.flush()

        pool = BufferPool(pager, capacity=3)  # small: constant churn
        num_threads, per_thread = 8, 400
        bundles = [CostCounters() for _ in range(num_threads)]
        barrier = threading.Barrier(num_threads)

        def run(slot: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                pool.fetch(page_ids[(slot + i) % len(page_ids)], bundles[slot])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch)

        total = num_threads * per_thread
        assert pool.requests == total
        assert pool.hits + pool.misses == total
        assert sum(b.page_requests for b in bundles) == total
        assert sum(b.page_reads for b in bundles) == pool.misses
        for bundle in bundles:
            assert bundle.page_requests == per_thread

    @staticmethod
    def race_runs_and_fetches(spill: int, num_threads: int = 6):
        """Threads (six by default) racing runs and single fetches on one
        small pool; returns the pool and the per-thread bundles.

        Each thread's 6-id window steps forward one id per round and,
        every fourth round, back three: that round re-reads pages the
        5-page main segment has already evicted, so a spill segment is
        hit even by a thread running alone."""
        import sys
        import threading

        from repro.utils.counters import CostCounters

        pager = Pager()
        for page_id in range(24):
            page = Page(pager.allocate_page())
            page.data[0] = page_id
            pager.write_page(page)
        pool = BufferPool.with_spill(pager, 5, spill)
        rounds = 120
        bundles = [CostCounters() for _ in range(num_threads)]
        wrong: list = []
        barrier = threading.Barrier(num_threads)

        def run(slot: int) -> None:
            barrier.wait()
            for i in range(rounds):
                first = (slot * 3 + i - 3 * (i % 4 == 3)) % 18
                ids = list(range(first, first + 6))
                if i % 2:
                    rows = pool.fetch_run(ids, bundles[slot])[:, 0].tolist()
                else:
                    rows = [pool.fetch(j, bundles[slot]).data[0] for j in ids]
                if rows != ids:
                    wrong.append((ids, rows))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(switch)

        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        total = num_threads * rounds * 6
        assert pool.requests == total
        assert pool.hits + pool.misses == total
        assert sum(b.page_requests for b in bundles) == total
        assert sum(b.page_reads for b in bundles) == pool.misses
        return pool, bundles

    def test_concurrent_runs_and_fetches_share_one_pool(self):
        """Runs and single fetches racing on one small pool lose no
        counts, leave no placeholder behind and read the right bytes."""
        pool, _ = self.race_runs_and_fetches(0)
        assert len(pool._pages) <= 5
        assert all(isinstance(page, Page) for page in pool._pages.values())

    def test_concurrent_runs_share_the_spill_segment(self):
        """The same race through a spill segment: no count lost, no
        placeholder left in either segment, no page held twice."""
        pool, bundles = self.race_runs_and_fetches(4)
        assert len(pool._pages) <= 5 and len(pool._spill) <= 4
        cached = [*pool._pages.values(), *pool._spill.values()]
        assert all(isinstance(page, Page) for page in cached)
        assert len(pool.page_ids()) == len(set(pool.page_ids()))
        assert pool.spill_misses == pool.misses
        assert sum(b.extra["range_cache_hits"] for b in bundles) == pool.spill_hits
        assert pool.spill_hits > 0

    def test_one_thread_alone_hits_the_spill_segment(self):
        """The id sequence alone reaches the spill segment, so the race
        above does not need a lucky interleaving to hit it."""
        pool, bundles = self.race_runs_and_fetches(4, num_threads=1)
        assert pool.spill_hits > 0
        assert bundles[0].extra["range_cache_hits"] == pool.spill_hits


class TestFetchRun:
    """``fetch_run`` is ``fetch`` per id over the ids the pool held
    first, then the rest: same counts, same LRU, same bytes."""

    @staticmethod
    def twin(capacity):
        pager = Pager()
        for page_id in range(12):
            page = Page(pager.allocate_page())
            page.data[0] = page_id
            pager.write_page(page)
        pager.physical_reads = pager.physical_writes = 0
        return pager, BufferPool(pager, capacity=capacity)

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(0, 6),
        dirtied=st.lists(st.integers(0, 11), max_size=6),
        runs=st.lists(st.lists(st.integers(0, 11), max_size=30), max_size=4),
    )
    def test_accounts_like_per_id_fetch(self, capacity, dirtied, runs):
        run_pager, run_pool = self.twin(capacity)
        one_pager, one_pool = self.twin(capacity)
        for page_id in dirtied:  # warm both pools, leave dirty pages behind
            for pool in (run_pool, one_pool):
                page = pool.fetch(page_id)
                page.data[1] += 1
                page.mark_dirty()
        for ids in runs:
            run_bundle, one_bundle = CostCounters(), CostCounters()
            order = held_first(ids, one_pool.page_ids())
            images = run_pool.fetch_run(ids, run_bundle)
            pages = [one_pool.fetch(page_id, one_bundle) for page_id in order]
            by_id = dict(zip(order, pages))
            assert images.shape == (len(ids), PAGE_CONTENT_SIZE)
            assert [row.tobytes() for row in images] == [
                bytes(by_id[page_id].data) for page_id in ids
            ]
            assert run_bundle.page_requests == one_bundle.page_requests
            assert run_bundle.page_reads == one_bundle.page_reads
            for name in ("requests", "hits", "misses"):
                assert getattr(run_pool, name) == getattr(one_pool, name)
            assert list(run_pool._pages) == list(one_pool._pages)
            assert run_pager.physical_reads == one_pager.physical_reads
            assert run_pager.physical_writes == one_pager.physical_writes
        for pool in (run_pool, one_pool):
            pool.flush()
        assert run_pager.read_run(range(12)).tobytes() == (
            one_pager.read_run(range(12)).tobytes()
        )

    def test_images_are_private(self):
        _, pool = self.twin(4)
        images = pool.fetch_run([2, 3])
        images[0, 0] = 99
        assert pool.fetch(2).data[0] == 2

    def test_an_all_hit_run_is_one_private_image(self):
        _, pool = self.twin(4)
        pool.fetch_run([2, 3, 4])
        hits = pool.hits
        images = pool.fetch_run([4, 2, 3, 2])  # every request hits
        assert pool.hits == hits + 4
        assert images[:, 0].tolist() == [4, 2, 3, 2]
        assert images.flags.writeable and images.flags.c_contiguous
        images[1, 0] = 99
        assert images[3, 0] == 2  # rows are copies, not views of one page
        assert pool.fetch(2).data[0] == 2

    def test_survivors_are_shared_pages(self):
        """A page admitted by a run is the object later fetches share."""
        _, pool = self.twin(2)
        pool.fetch_run([5, 6, 7])
        assert list(pool._pages) == [6, 7]
        assert pool.fetch(7) is pool.fetch(7)
        assert pool.hits == 2


class TestHeldFirst:
    """A run touches the pages the pool held before it reads any other,
    so a scan longer than the pool never evicts a page it is about to
    read (LRU's sequential flooding)."""

    @staticmethod
    def numbered_pager(num_pages):
        pager = Pager()
        for page_id in range(num_pages):
            page = Page(pager.allocate_page())
            page.data[0] = page_id % 256
            pager.write_page(page)
        return pager

    def test_a_repeated_scan_reads_only_what_the_pool_lost(self):
        pool = BufferPool(self.numbered_pager(100), capacity=64)
        first, second = CostCounters(), CostCounters()
        pool.fetch_run(range(100), first)
        assert pool.page_ids() == list(range(36, 100))
        images = pool.fetch_run(range(100), second)
        assert first.page_reads == 100
        # Per-id LRU would evict page 36 for page 0, and so on: 100 reads.
        assert second.page_reads == 36
        assert images[:, 0].tolist() == list(range(100))
        assert pool.page_ids() == [*range(36, 100), *range(36)][-64:]

    def test_a_repeated_leaf_scan_reads_only_what_the_pool_lost(self):
        from repro.btree.tree import BPlusTree

        pager = Pager()
        tree = BPlusTree.create(BufferPool(pager, capacity=256), 1300)
        # 1300-byte payloads: three entries a leaf, 100 leaves under the root.
        tree.bulk_load(
            [(float(i), i.to_bytes(4, "little") * 325) for i in range(300)]
        )
        tree.flush()
        assert tree.height == 2
        pool = BufferPool(pager, capacity=64)
        reader = BPlusTree.open(pool)
        ranges = [(0.0, 299.0)]
        first, second = CostCounters(), CostCounters()
        want = reader.range_search_many(ranges, counters=first)
        got = reader.range_search_many(ranges, counters=second)
        for (want_keys, want_payloads), (keys, payloads) in zip(want, got):
            assert keys.tobytes() == want_keys.tobytes()
            assert payloads.tobytes() == want_payloads.tobytes()
        assert second.page_requests == first.page_requests
        assert first.page_reads == 1 + 100  # the root, then every leaf
        # The pool ends the first pass holding the last 64 leaves; the
        # root's miss evicts the oldest, and the leaf run finds the other
        # 63 held.  Per-id LRU would re-read the root and all 100 leaves.
        assert second.page_reads == 1 + 100 - 63

    @pytest.mark.parametrize("spill", [0, 3])
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(0, 6),
        warm=st.lists(st.integers(0, 11), max_size=12),
        ids=st.lists(st.integers(0, 11), max_size=30),
    )
    def test_a_run_reads_the_distinct_ids_not_held(self, spill, capacity, warm, ids):
        pool = BufferPool.with_spill(self.numbered_pager(12), capacity, spill)
        pool.fetch_run(warm)
        held = set(pool.page_ids())
        counters = CostCounters()
        images = pool.fetch_run(ids, counters)
        assert images[:, 0].tolist() == ids
        distinct = set(ids)
        if len(distinct) == len(ids) or len(distinct) <= capacity + spill:
            assert counters.page_reads == len(distinct - held)
        else:
            # A repeat of a miss may find it evicted by the run's later
            # misses; a held page is never re-read either way.
            assert counters.page_reads >= len(distinct - held)

    def test_a_mixed_run_with_repeats_returns_private_rows_in_order(self):
        pager = self.numbered_pager(12)
        pool = BufferPool(pager, capacity=4)
        pool.fetch(7)
        read = []
        read_run = pager.read_run

        def logged(page_ids):
            read.append(read_run(page_ids))
            return read[-1]

        pager.read_run = logged
        counters = CostCounters()
        images = pool.fetch_run([5, 7, 5], counters)
        assert (counters.page_requests, counters.page_reads) == (3, 1)
        assert images[:, 0].tolist() == [5, 7, 5]
        assert images is not read[-1]
        assert images.flags.writeable and images.flags.c_contiguous
        images[0, 0] = 99
        assert images[2, 0] == 5
        assert pool.fetch(5).data[0] == 5 and pool.fetch(7).data[0] == 7
        # Nothing held: the rows the pager read are the run, handed out as is.
        images = pool.fetch_run([1, 2])
        assert images is read[-1]
