"""Tests for the disk-paged B+-tree (repro.btree)."""

import math
import struct

import numpy as np
import pytest

from repro.btree.checker import check_tree
from repro.btree.node import (
    InternalNode,
    LeafNode,
    NO_LEAF,
    internal_capacity,
    leaf_capacity,
)
from repro.btree.tree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page
from repro.storage.pager import Pager
from repro.utils.rng import ensure_rng


def make_tree(payload_size=8, capacity=64, path=None):
    pool = BufferPool(Pager(path), capacity=capacity)
    return BPlusTree.create(pool, payload_size)


def payload(i: int) -> bytes:
    return struct.pack("<q", i)


class TestNodeLayouts:
    def test_leaf_round_trip(self):
        page = Page(0)
        leaf = LeafNode(page, payload_size=8)
        leaf.keys = [1.0, 2.5, 3.0]
        leaf.payloads = [payload(i) for i in range(3)]
        leaf.next_leaf = 42
        leaf.save()
        loaded = LeafNode.load(page, payload_size=8)
        assert loaded.keys == [1.0, 2.5, 3.0]
        assert loaded.payloads == [payload(i) for i in range(3)]
        assert loaded.next_leaf == 42

    def test_internal_round_trip(self):
        page = Page(0)
        InternalNode.new(page, keys=[5.0, 9.0], children=[1, 2, 3])
        loaded = InternalNode.load(page)
        assert loaded.keys == [5.0, 9.0]
        assert loaded.children == [1, 2, 3]

    @pytest.mark.parametrize("seed", range(4))
    def test_internal_round_trip_random_nodes(self, seed):
        """save -> load keeps every child id and every key bit, from one
        key up to a full node, signed zeros and duplicate keys included."""
        rng = ensure_rng(seed)
        capacity = internal_capacity()
        for count in (0, 1, 2, int(rng.integers(3, capacity)), capacity - 1, capacity):
            keys = sorted(rng.uniform(-1e6, 1e6, count).tolist())
            if count >= 3:
                keys[0] = -0.0
                keys[1] = 0.0
                keys[-1] = keys[-2]
            children = rng.integers(0, 2**64, count + 1, dtype=np.uint64).tolist()
            children[-1] = NO_LEAF
            page = Page(7)
            InternalNode.new(page, keys=keys, children=children)
            loaded = InternalNode.load(page)
            assert loaded.children == children
            assert [key.hex() for key in loaded.keys] == [key.hex() for key in keys]
            assert loaded.count == count

    def test_leaf_capacity(self):
        assert leaf_capacity(8) == (4096 - 11) // 16
        with pytest.raises(ValueError):
            leaf_capacity(5000)

    def test_internal_capacity(self):
        assert internal_capacity() == (4096 - 3 - 8) // 16

    def test_load_wrong_type_raises(self):
        page = Page(0)
        LeafNode.new(page, payload_size=8)
        with pytest.raises(ValueError):
            InternalNode.load(page)

    def test_overflow_rejected_on_save(self):
        page = Page(0)
        leaf = LeafNode(page, payload_size=8)
        n = leaf.capacity + 1
        leaf.keys = [float(i) for i in range(n)]
        leaf.payloads = [payload(i) for i in range(n)]
        with pytest.raises(ValueError):
            leaf.save()

    def test_wrong_payload_size_rejected(self):
        page = Page(0)
        leaf = LeafNode(page, payload_size=8)
        leaf.keys = [1.0]
        leaf.payloads = [b"xx"]
        with pytest.raises(ValueError):
            leaf.save()

    def test_internal_children_count_mismatch(self):
        page = Page(0)
        node = InternalNode(page)
        node.keys = [1.0]
        node.children = [1]
        with pytest.raises(ValueError):
            node.save()


class TestInsertAndSearch:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.range_search(-1e9, 1e9) == []
        assert tree.search(1.0) == []

    def test_single_insert(self):
        tree = make_tree()
        tree.insert(3.5, payload(1))
        assert tree.search(3.5) == [payload(1)]
        assert tree.search(3.4) == []

    def test_many_inserts_sorted_output(self):
        tree = make_tree()
        for i in range(2000):
            tree.insert(float((i * 7919) % 1000), payload(i))
        entries = list(tree.iter_entries())
        keys = [k for k, _ in entries]
        assert keys == sorted(keys)
        assert len(entries) == 2000
        check_tree(tree)

    def test_duplicates_all_returned(self):
        tree = make_tree()
        for i in range(500):
            tree.insert(1.0, payload(i))
        got = tree.search(1.0)
        assert sorted(got) == sorted(payload(i) for i in range(500))
        check_tree(tree)

    def test_tree_grows_in_height(self):
        tree = make_tree()
        assert tree.height == 1
        for i in range(3000):
            tree.insert(float(i), payload(i))
        assert tree.height >= 2
        check_tree(tree)

    def test_range_search_bounds_inclusive(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(float(i), payload(i))
        got = tree.range_search(10.0, 20.0)
        assert [k for k, _ in got] == [float(i) for i in range(10, 21)]

    def test_range_search_empty_interval(self):
        tree = make_tree()
        tree.insert(5.0, payload(0))
        assert tree.range_search(6.0, 4.0) == []

    def test_range_search_outside_data(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(float(i), payload(i))
        assert tree.range_search(100.0, 200.0) == []
        assert tree.range_search(-10.0, -1.0) == []

    def test_range_spanning_everything(self):
        tree = make_tree()
        for i in range(50):
            tree.insert(float(i % 7), payload(i))
        assert len(tree.range_search(-math.inf, math.inf)) == 50

    def test_nan_key_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert(float("nan"), payload(0))
        with pytest.raises(ValueError):
            tree.range_search(float("nan"), 1.0)

    def test_wrong_payload_size(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert(1.0, b"tiny")

    def test_direct_construction_rejected(self):
        pool = BufferPool(Pager(), capacity=4)
        with pytest.raises(RuntimeError):
            BPlusTree(pool, 8)

    def test_node_visits_counted(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(float(i), payload(i))
        before = tree.node_visits
        tree.search(50.0)
        assert tree.node_visits > before


class TestBulkLoad:
    def test_matches_inserts(self):
        items = [(float(i % 31), payload(i)) for i in range(1500)]
        items.sort(key=lambda kv: kv[0])
        bulk = make_tree()
        bulk.bulk_load(items)
        check_tree(bulk)
        incremental = make_tree()
        for key, value in items:
            incremental.insert(key, value)
        for lo, hi in [(0.0, 5.0), (10.0, 30.0), (-1.0, 100.0), (7.0, 7.0)]:
            assert sorted(bulk.range_search(lo, hi)) == sorted(
                incremental.range_search(lo, hi)
            )

    def test_empty_items(self):
        tree = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_single_item(self):
        tree = make_tree()
        tree.bulk_load([(1.0, payload(0))])
        assert tree.search(1.0) == [payload(0)]
        check_tree(tree)

    def test_requires_sorted(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="sorted"):
            tree.bulk_load([(2.0, payload(0)), (1.0, payload(1))])

    def test_requires_empty_tree(self):
        tree = make_tree()
        tree.insert(1.0, payload(0))
        with pytest.raises(ValueError, match="empty"):
            tree.bulk_load([(1.0, payload(0))])

    def test_fill_factor(self):
        items = [(float(i), payload(i)) for i in range(2000)]
        packed = make_tree()
        packed.bulk_load(items, fill_factor=1.0)
        loose = make_tree()
        loose.bulk_load(items, fill_factor=0.5)
        # Half-full leaves need roughly twice the pages.
        assert loose.buffer_pool.pager.num_pages > packed.buffer_pool.pager.num_pages
        check_tree(loose)
        assert list(loose.iter_entries()) == items

    def test_invalid_fill_factor(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([], fill_factor=0.0)
        with pytest.raises(ValueError):
            tree.bulk_load([], fill_factor=1.5)

    def test_wrong_payload_size(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.bulk_load([(1.0, b"no")])


class TestPersistence:
    def test_reopen(self, tmp_path):
        path = str(tmp_path / "tree.pages")
        pager = Pager(path)
        tree = BPlusTree.create(BufferPool(pager, capacity=16), payload_size=8)
        for i in range(800):
            tree.insert(float(i), payload(i))
        tree.flush()
        pager.sync()
        pager.close()

        pager2 = Pager(path)
        tree2 = BPlusTree.open(BufferPool(pager2, capacity=16))
        assert tree2.num_entries == 800
        assert tree2.payload_size == 8
        check_tree(tree2)
        assert tree2.search(500.0) == [payload(500)]
        pager2.close()

    def test_open_rejects_garbage(self):
        pool = BufferPool(Pager(), capacity=4)
        pool.allocate()
        with pytest.raises(ValueError):
            BPlusTree.open(pool)

    def test_open_rejects_empty(self):
        pool = BufferPool(Pager(), capacity=4)
        with pytest.raises(ValueError):
            BPlusTree.open(pool)


class TestChecker:
    def test_detects_corrupted_order(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(float(i), payload(i))
        # Corrupt the leaf in place: swap two keys.
        leaf = tree._load_leaf(tree._root)
        leaf.keys[0], leaf.keys[-1] = leaf.keys[-1], leaf.keys[0]
        leaf.save()
        with pytest.raises(AssertionError):
            check_tree(tree)

    def test_detects_wrong_count(self):
        tree = make_tree()
        tree.insert(1.0, payload(0))
        tree._num_entries = 5
        with pytest.raises(AssertionError, match="num_entries"):
            check_tree(tree)


class TestBulkLoadEdgeCases:
    def test_single_child_internal_group(self):
        """A low fill factor makes internal nodes tiny; when the child
        count is 1 mod (capacity+1) the last internal node has a single
        child and zero keys — still a valid, searchable structure."""
        tree = make_tree()
        # fill_factor -> 2 entries/leaf, 2 keys (3 children) per internal.
        items = [(float(i), payload(i)) for i in range(14)]  # 7 leaves
        tree.bulk_load(items, fill_factor=0.009)
        check_tree(tree)
        for key, value in items:
            assert tree.search(key) == [value]
        assert [k for k, _ in tree.range_search(3.0, 11.0)] == [
            float(i) for i in range(3, 12)
        ]

    def test_exact_capacity_boundary(self):
        tree = make_tree()
        cap = leaf_capacity(8)
        items = [(float(i), payload(i)) for i in range(cap)]
        tree.bulk_load(items)
        check_tree(tree)
        assert tree.height == 1  # exactly one full leaf

    def test_one_over_capacity(self):
        tree = make_tree()
        cap = leaf_capacity(8)
        items = [(float(i), payload(i)) for i in range(cap + 1)]
        tree.bulk_load(items)
        check_tree(tree)
        assert tree.height == 2


class TestKeyBounds:
    """key_bounds() — the shard router's pruning metadata."""

    def test_empty_tree(self):
        assert make_tree().key_bounds() is None

    def test_tracks_min_and_max(self):
        tree = make_tree()
        for i in [7, 3, 11, 1, 9]:
            tree.insert(float(i), payload(i))
        assert tree.key_bounds() == (1.0, 11.0)
        tree.insert(0.5, payload(50))
        tree.insert(20.0, payload(51))
        assert tree.key_bounds() == (0.5, 20.0)

    def test_many_keys_multi_level(self):
        tree = make_tree(capacity=128)
        for i in range(500):
            tree.insert(float((i * 37) % 500), payload(i))
        assert tree.key_bounds() == (0.0, 499.0)

    def test_survives_lazy_deletion_of_extremes(self):
        # Lazy deletion can empty the edge leaves entirely; the bounds
        # walk must skip them instead of reporting stale keys.
        tree = make_tree(capacity=128)
        for i in range(200):
            tree.insert(float(i), payload(i))
        for i in list(range(0, 40)) + list(range(160, 200)):
            assert tree.delete(float(i), payload(i)) == 1
        assert tree.key_bounds() == (40.0, 159.0)

    def test_delete_everything(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(float(i), payload(i))
        for i in range(10):
            tree.delete(float(i), payload(i))
        assert tree.key_bounds() is None

    def test_charges_counters(self):
        from repro.utils.counters import CostCounters

        tree = make_tree(capacity=128)
        for i in range(300):
            tree.insert(float(i), payload(i))
        counters = CostCounters()
        tree.key_bounds(counters=counters)
        assert counters.page_requests > 0
