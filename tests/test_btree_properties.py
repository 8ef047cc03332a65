"""Property-based tests: the B+-tree against a sorted-list oracle."""

import struct

from hypothesis import given, settings, strategies as st

from repro.btree.checker import check_tree
from repro.btree.tree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.utils.counters import CostCounters


def payload(i: int) -> bytes:
    return struct.pack("<q", i)


keys = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# Small key domain to force duplicates.
dup_keys = st.integers(min_value=0, max_value=9).map(float)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(keys, min_size=0, max_size=300))
def test_inserts_match_oracle(values):
    pool = BufferPool(Pager(), capacity=32)
    tree = BPlusTree.create(pool, payload_size=8)
    oracle = []
    for i, key in enumerate(values):
        tree.insert(key, payload(i))
        oracle.append((key, payload(i)))
    oracle.sort(key=lambda kv: kv[0])
    check_tree(tree)
    got = list(tree.iter_entries())
    assert sorted(got) == sorted(oracle)
    assert [k for k, _ in got] == [k for k, _ in oracle]


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(dup_keys, min_size=1, max_size=200),
    lo=dup_keys,
    hi=dup_keys,
)
def test_range_search_matches_oracle(values, lo, hi):
    pool = BufferPool(Pager(), capacity=32)
    tree = BPlusTree.create(pool, payload_size=8)
    oracle = []
    for i, key in enumerate(values):
        tree.insert(key, payload(i))
        oracle.append((key, payload(i)))
    expected = sorted((k, p) for k, p in oracle if lo <= k <= hi)
    got = sorted(tree.range_search(lo, hi))
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(values=st.lists(keys, min_size=0, max_size=250))
def test_bulk_load_equals_incremental(values):
    items = sorted(
        ((key, payload(i)) for i, key in enumerate(values)),
        key=lambda kv: kv[0],
    )
    bulk_tree = BPlusTree.create(BufferPool(Pager(), capacity=32), 8)
    bulk_tree.bulk_load(items)
    if items:
        check_tree(bulk_tree)
    assert list(bulk_tree.iter_entries()) == items


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(dup_keys, min_size=1, max_size=150),
    probe=dup_keys,
)
def test_point_search_matches_oracle(values, probe):
    tree = BPlusTree.create(BufferPool(Pager(), capacity=16), 8)
    oracle = {}
    for i, key in enumerate(values):
        tree.insert(key, payload(i))
        oracle.setdefault(key, []).append(payload(i))
    assert sorted(tree.search(probe)) == sorted(oracle.get(probe, []))


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(dup_keys, min_size=1, max_size=150),
    deleted=st.lists(dup_keys, max_size=4),
    ranges=st.lists(st.tuples(dup_keys, dup_keys), min_size=1, max_size=6),
    capacity=st.sampled_from([0, 1, 3, 64]),
)
def test_range_search_many_matches_range_search(values, deleted, ranges, capacity):
    """Run-at-a-time scans against the per-range chain walk: duplicates
    straddling three-entry leaves, lazily emptied leaves, any pool size."""
    pager = Pager()
    tree = BPlusTree.create(BufferPool(pager, capacity=64), payload_size=1300)
    for i, key in enumerate(values):
        tree.insert(key, payload(i) * 162 + b"pad!")
    for key in deleted:
        tree.delete(key)
    tree.flush()
    reader = BPlusTree.open(BufferPool(pager, capacity=capacity))
    bulk_counters, scalar_counters = CostCounters(), CostCounters()
    bulk = reader.range_search_many(ranges, counters=bulk_counters)
    total = 0
    for (lo, hi), (found_keys, found_payloads) in zip(ranges, bulk):
        expected = reader.range_search(lo, hi, counters=scalar_counters)
        assert found_keys.tolist() == [key for key, _ in expected]
        assert [row.tobytes() for row in found_payloads] == [p for _, p in expected]
        total += len(expected)
    assert bulk_counters.records_scanned == total
    # Height <= 2 here: one level-1 node, so nothing beyond the scalar walk.
    assert reader.height <= 2
    assert bulk_counters.page_requests <= scalar_counters.page_requests
    assert bulk_counters.btree_node_visits <= scalar_counters.btree_node_visits
