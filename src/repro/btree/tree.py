"""The B+-tree proper: create/open, insert, search, range scan, bulk load.

Page 0 of the tree's pager is a metadata page::

    magic u32 | payload_size u32 | root u64 | height u32 | num_entries u64

``height == 1`` means the root is a leaf.  All node accesses go through the
buffer pool (counted I/O) and additionally bump :attr:`BPlusTree.node_visits`
so CPU-side traversal work is observable separately from page I/O.

The read paths (:meth:`BPlusTree.search`, :meth:`BPlusTree.range_search`,
:meth:`BPlusTree.iter_entries`) accept an optional per-query
:class:`~repro.utils.counters.CostCounters` bundle; node visits and page
accesses performed on behalf of that query are recorded there as well,
which is what makes per-query cost reporting exact under interleaved or
concurrent queries (the tree-level ``node_visits`` attribute is a
lifetime aggregate shared by every caller).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

import numpy as np

from repro.btree.node import (
    NODE_LEAF,
    NO_LEAF,
    InternalNode,
    LeafNode,
    internal_capacity,
    leaf_capacity,
    leaf_run_dtype,
)
from repro.storage.buffer_pool import BufferPool
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["BPlusTree"]

_META = struct.Struct("<IIQIQ")
_MAGIC = 0x42545245  # "BTRE"


class BPlusTree:
    """Disk-paged B+-tree with float64 keys and fixed-size payloads.

    Use :meth:`create` on an empty pager or :meth:`open` on an existing
    tree file.  Duplicate keys are allowed; :meth:`search` returns every
    payload stored under a key and :meth:`range_search` returns entries in
    non-decreasing key order.
    """

    def __init__(
        self, buffer_pool: BufferPool, payload_size: int, *, _opened: bool = False
    ) -> None:
        if not _opened:
            raise RuntimeError(
                "use BPlusTree.create(...) or BPlusTree.open(...) instead of "
                "constructing BPlusTree directly"
            )
        self._pool = buffer_pool
        self._payload_size = payload_size
        self._root = 0
        self._height = 1
        self._num_entries = 0
        # Readers share one tree (QueryEngine serves every thread from
        # it), so the lifetime tally is bumped under a lock.
        self._visits_lock = make_lock("BPlusTree._visits_lock")
        self.node_visits = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, buffer_pool: BufferPool, payload_size: int) -> "BPlusTree":
        """Initialise a new, empty tree on an empty pager."""
        if buffer_pool.pager.num_pages != 0:
            raise ValueError("BPlusTree.create requires an empty pager")
        leaf_capacity(payload_size)  # validates payload_size fits a page
        tree = cls(buffer_pool, payload_size, _opened=True)
        buffer_pool.allocate()  # page 0: metadata
        root_page = buffer_pool.allocate()
        LeafNode.new(root_page, payload_size)
        tree._root = root_page.page_id
        tree._height = 1
        tree._num_entries = 0
        tree._persist_meta()
        return tree

    @classmethod
    def open(cls, buffer_pool: BufferPool) -> "BPlusTree":
        """Attach to an existing tree file."""
        if buffer_pool.pager.num_pages == 0:
            raise ValueError("pager holds no pages; use BPlusTree.create")
        meta = buffer_pool.fetch(0)
        magic, payload_size, root, height, num_entries = _META.unpack_from(
            meta.data, 0
        )
        if magic != _MAGIC:
            raise ValueError("page 0 is not a B+-tree metadata page")
        tree = cls(buffer_pool, payload_size, _opened=True)
        tree._root = root
        tree._height = height
        tree._num_entries = num_entries
        return tree

    def _persist_meta(self) -> None:
        meta = self._pool.fetch(0)
        packed = _META.pack(
            _MAGIC,
            self._payload_size,
            self._root,
            self._height,
            self._num_entries,
        )
        # Only dirty page 0 when the metadata actually moved: a flush of
        # an unmodified tree must stay a no-op, or every read-only
        # snapshot (query engines, restored replicas) would buffer a
        # phantom page-0 write it can never commit.
        if bytes(meta.data[: _META.size]) == packed:
            return
        meta.data[: _META.size] = packed
        meta.mark_dirty()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def payload_size(self) -> int:
        """Fixed payload size in bytes."""
        return self._payload_size

    @property
    def height(self) -> int:
        """Tree height; 1 means the root is a leaf."""
        return self._height

    @property
    def num_entries(self) -> int:
        """Number of (key, payload) entries stored."""
        return self._num_entries

    @property
    def buffer_pool(self) -> BufferPool:
        """The buffer pool all node accesses flow through."""
        return self._pool

    def __len__(self) -> int:
        return self._num_entries

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    def _count_visits(self, visits: int, counters: CostCounters | None) -> None:
        with self._visits_lock:
            self.node_visits += visits
        if counters is not None:
            counters.btree_node_visits += visits

    def _load_leaf(
        self, page_id: int, counters: CostCounters | None = None
    ) -> LeafNode:
        self._count_visits(1, counters)
        return LeafNode.load(
            self._pool.fetch(page_id, counters), self._payload_size
        )

    def _load_internal(
        self, page_id: int, counters: CostCounters | None = None
    ) -> InternalNode:
        self._count_visits(1, counters)
        return InternalNode.load(self._pool.fetch(page_id, counters))

    def _descend(
        self,
        key: float,
        *,
        leftmost: bool,
        counters: CostCounters | None = None,
    ) -> tuple[int, list[list]]:
        """Walk root-to-level-1; returns the leaf's page id and the
        internal path ``[[node, child index], ...]``.

        ``leftmost=True`` uses ``bisect_left`` on separators so the search
        lands on the leftmost leaf that can contain *key* (needed for range
        scans over duplicate keys); inserts use ``bisect_right``.
        """
        path: list[list] = []
        page_id = self._root
        for _ in range(self._height - 1):
            node = self._load_internal(page_id, counters)
            if leftmost:
                index = bisect_left(node.keys, key)
            else:
                index = bisect_right(node.keys, key)
            path.append([node, index])
            page_id = node.children[index]
        return page_id, path

    def _descend_to_leaf(
        self,
        key: float,
        *,
        leftmost: bool,
        counters: CostCounters | None = None,
    ) -> tuple[LeafNode, list[list]]:
        """:meth:`_descend`, then load the leaf it lands on."""
        page_id, path = self._descend(key, leftmost=leftmost, counters=counters)
        return self._load_leaf(page_id, counters), path

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: float, payload: bytes) -> None:
        """Insert one entry (duplicates allowed)."""
        key = float(key)
        if not math.isfinite(key):
            raise ValueError(f"key must be finite, got {key}")
        if len(payload) != self._payload_size:
            raise ValueError(
                f"payload must be {self._payload_size} bytes, got {len(payload)}"
            )
        leaf, path = self._descend_to_leaf(key, leftmost=False)
        position = bisect_right(leaf.keys, key)
        leaf.keys.insert(position, key)
        leaf.payloads.insert(position, payload)
        self._num_entries += 1
        if leaf.count <= leaf.capacity:
            leaf.save()
            self._persist_meta()
            return

        separator, right_page_id = self._split_leaf(leaf)
        self._propagate_split(path, separator, right_page_id)
        self._persist_meta()

    def _split_leaf(self, leaf: LeafNode) -> tuple[float, int]:
        """Split an overflowing leaf; returns (separator, right page id)."""
        mid = leaf.count // 2
        right_page = self._pool.allocate()
        right = LeafNode(right_page, self._payload_size)
        right.keys = leaf.keys[mid:]
        right.payloads = leaf.payloads[mid:]
        right.next_leaf = leaf.next_leaf
        leaf.keys = leaf.keys[:mid]
        leaf.payloads = leaf.payloads[:mid]
        leaf.next_leaf = right_page.page_id
        leaf.save()
        right.save()
        return right.keys[0], right_page.page_id

    def _split_internal(self, node: InternalNode) -> tuple[float, int]:
        """Split an overflowing internal node; the middle key moves up."""
        mid = node.count // 2
        separator = node.keys[mid]
        right_page = self._pool.allocate()
        right = InternalNode(right_page)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        node.save()
        right.save()
        return separator, right_page.page_id

    def _propagate_split(
        self,
        path: list[list],
        separator: float,
        right_page_id: int,
    ) -> None:
        """Insert the new separator up the path, splitting as needed."""
        while path:
            node, index = path.pop()
            node.keys.insert(index, separator)
            node.children.insert(index + 1, right_page_id)
            if node.count <= node.capacity:
                node.save()
                return
            separator, right_page_id = self._split_internal(node)
        # Split reached the old root: grow the tree by one level.
        old_root = self._root
        root_page = self._pool.allocate()
        InternalNode.new(root_page, [separator], [old_root, right_page_id])
        self._root = root_page.page_id
        self._height += 1

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: float, payload: bytes | None = None) -> int:
        """Delete entries with this key; returns how many were removed.

        Parameters
        ----------
        key:
            Key to delete.
        payload:
            When given, only entries whose payload equals it are removed
            (needed with duplicate keys); otherwise every entry under the
            key is removed.

        Deletion is *lazy* (the strategy of most production B-trees,
        e.g. PostgreSQL's nbtree): entries are removed from their leaves
        but underflowing — even empty — leaves stay in the structure and
        the leaf chain, where searches skip them for free.  Reclaim space
        with :meth:`compact` after bulk deletions.
        """
        key = float(key)
        if math.isnan(key):
            raise ValueError("key must not be NaN")
        if payload is not None and len(payload) != self._payload_size:
            raise ValueError(
                f"payload must be {self._payload_size} bytes, got {len(payload)}"
            )
        removed = 0
        leaf, _ = self._descend_to_leaf(key, leftmost=True)
        while True:
            position = bisect_left(leaf.keys, key)
            changed = False
            while position < leaf.count and leaf.keys[position] == key:
                if payload is None or leaf.payloads[position] == payload:
                    del leaf.keys[position]
                    del leaf.payloads[position]
                    removed += 1
                    changed = True
                else:
                    position += 1
            if changed:
                leaf.save()
            past_key = leaf.count and leaf.keys[-1] > key
            if past_key or leaf.next_leaf == NO_LEAF:
                break
            leaf = self._load_leaf(leaf.next_leaf)
        self._num_entries -= removed
        self._persist_meta()
        return removed

    def compact(self) -> "BPlusTree":
        """Return a freshly bulk-loaded tree with this tree's live entries.

        Lazy deletion leaves underflowing pages behind; compaction
        rebuilds the tree packed (into new in-memory storage — callers
        that need a file-backed result bulk-load into their own pager).
        """
        from repro.storage.pager import Pager as _Pager
        from repro.storage.buffer_pool import BufferPool as _BufferPool

        fresh = BPlusTree.create(
            _BufferPool(_Pager(), capacity=self._pool.capacity),
            self._payload_size,
        )
        fresh.bulk_load(list(self.iter_entries()))
        return fresh

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def search(
        self, key: float, *, counters: CostCounters | None = None
    ) -> list[bytes]:
        """Return the payloads of every entry with exactly this key."""
        key = float(key)
        return [
            payload
            for _, payload in self.range_search(key, key, counters=counters)
        ]

    def range_search(
        self,
        low: float,
        high: float,
        *,
        counters: CostCounters | None = None,
    ) -> list[tuple[float, bytes]]:
        """Return all entries with ``low <= key <= high`` in key order.

        Pass a per-query ``counters`` bundle to attribute the traversal's
        node visits and page accesses to that query.
        """
        low = float(low)
        high = float(high)
        if math.isnan(low) or math.isnan(high):
            raise ValueError("range bounds must not be NaN")
        results: list[tuple[float, bytes]] = []
        if high < low or self._num_entries == 0:
            return results
        leaf, _ = self._descend_to_leaf(low, leftmost=True, counters=counters)
        while True:
            start = bisect_left(leaf.keys, low)
            for position in range(start, leaf.count):
                key = leaf.keys[position]
                if key > high:
                    return results
                results.append((key, leaf.payloads[position]))
            if leaf.next_leaf == NO_LEAF:
                return results
            leaf = self._load_leaf(leaf.next_leaf, counters)

    def _entry_dtype(self, payload_dtype: "np.dtype | None") -> np.dtype:
        """Structured dtype of one on-leaf entry (key + payload)."""
        if self._payload_size == 0:
            raise ValueError(
                "range_search_many requires a non-empty payload layout"
            )
        if payload_dtype is None:
            payload = np.dtype((np.void, self._payload_size))
        else:
            payload = np.dtype(payload_dtype)
            if payload.itemsize != self._payload_size:
                raise ValueError(
                    f"payload_dtype itemsize {payload.itemsize} != "
                    f"payload_size {self._payload_size}"
                )
        return np.dtype([("key", "<f8"), ("payload", payload)])

    def range_search_many(
        self,
        ranges: "list[tuple[float, float]]",
        *,
        payload_dtype: "np.dtype | None" = None,
        counters: CostCounters | None = None,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Bulk range search: one ``(keys, payloads)`` array pair per range.

        The vectorized counterpart of calling :meth:`range_search` once
        per range, reading the leaf level a *run* at a time:

        * the level-1 internal node the descent visits names the leaves
          a range needs — children ``bisect_left(low)`` to
          ``bisect_right(high)``, each of which the scalar chain walk
          reads too (a child left of a separator ``<= high`` holds no
          key above ``high``, so the walk cannot stop on it) — and the
          id list goes to the pool in one
          :meth:`~repro.storage.buffer_pool.BufferPool.fetch_run`;
        * the run is viewed as one ``(pages, capacity)`` structured
          array: types, counts and sibling links are decoded for all
          pages at once, the links checked against the parent's order;
        * what the separators cannot prove is found by following the
          chain: the leaf after the proven ones (read only if no key
          above ``high`` has shown up), the move into the next level-1
          node, a root that is a leaf;
        * the next range skips the descent when it provably starts
          inside the run the previous one ended on (the run's first key
          is strictly below ``low``, so no earlier leaf holds an
          in-range entry even with duplicates, and ``low`` is at most
          its last key).

        Results are bit-identical to the per-range scalar path, in the
        same order, and no leaf is read that :meth:`range_search` would
        not read; the one extra access is the internal node entered when
        a range runs off the end of a level-1 node (the chain walk needs
        no parent there; a run does).  ``records_scanned`` is charged
        per logical record returned, node visits and page accesses per
        node as usual.

        Parameters
        ----------
        ranges:
            ``(low, high)`` pairs; an inverted pair yields an empty
            result, like :meth:`range_search`.
        payload_dtype:
            Optional structured dtype for the payload bytes (e.g. the
            ViTri codec's ``record_dtype``); its itemsize must equal the
            tree's payload size.  Defaults to raw ``V<payload_size>``
            bytes.
        counters:
            Per-query cost bundle.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            Per range: float64 keys and payload records (private
            copies, never views into pooled pages), in non-decreasing
            key order.
        """
        entry_dtype = self._entry_dtype(payload_dtype)
        run_dtype = leaf_run_dtype(entry_dtype)
        empty = (np.empty(0, np.float64), np.empty(0, entry_dtype["payload"]))
        results: "list[tuple[np.ndarray, np.ndarray]]" = []
        # Where the previous range stopped: the internal path down to the
        # level-1 node (its index is the last leaf read), the entries of
        # the last run read, and that run's outgoing sibling link.
        path: "list[list]" = []
        entries = np.empty(0, entry_dtype)
        next_leaf = NO_LEAF
        for low, high in ranges:
            low = float(low)
            high = float(high)
            if math.isnan(low) or math.isnan(high):
                raise ValueError("range bounds must not be NaN")
            if high < low or self._num_entries == 0:
                results.append(empty)
                continue
            keys = entries["key"]
            if not (keys.size and float(keys[0]) < low <= float(keys[-1])):
                _, path = self._descend(low, leftmost=True, counters=counters)
                if path:
                    path[-1][1] -= 1  # just before the leaf the descent chose
                entries, next_leaf = self._read_leaf_run(
                    path, high, None, run_dtype, counters
                )
            parts: "list[np.ndarray]" = []
            while True:
                keys = entries["key"]
                start = int(np.searchsorted(keys, low, side="left"))
                stop = int(np.searchsorted(keys, high, side="right"))
                if stop > start:
                    parts.append(entries[start:stop])
                if stop < keys.size or next_leaf == NO_LEAF:
                    break
                entries, next_leaf = self._read_leaf_run(
                    path, high, next_leaf, run_dtype, counters
                )
            if not parts:
                results.append(empty)
                continue
            found = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if counters is not None:
                counters.records_scanned += int(found.size)
            results.append((found["key"], found["payload"]))
        return results

    def _read_leaf_run(
        self,
        path: "list[list]",
        high: float,
        expected: "int | None",
        run_dtype: np.dtype,
        counters: CostCounters | None,
    ) -> "tuple[np.ndarray, int]":
        """Read the next leaves of a scan towards *high* as one run and
        advance *path* past them.  Returns the run's live entries in key
        order (a private copy) and its last leaf's sibling link;
        *expected* is the link the scan arrived by, if any."""
        if not path:
            page_ids = [self._root]
        else:
            if path[-1][1] == path[-1][0].count:
                self._step_to_next_level_one(path, counters)
            node, index = path[-1]
            last = max(index + 1, bisect_right(node.keys, high))
            page_ids = node.children[index + 1 : last + 1]
            path[-1][1] = last
        self._count_visits(len(page_ids), counters)
        leaves = self._pool.fetch_run(page_ids, counters).view(run_dtype)[:, 0]
        stray = np.flatnonzero(leaves["type"] != NODE_LEAF)
        if stray.size:
            raise ValueError(f"page {page_ids[int(stray[0])]} is not a leaf node")
        links = leaves["next_leaf"]
        chain = np.asarray(page_ids, dtype=np.uint64)
        if (expected is not None and expected != page_ids[0]) or not np.array_equal(
            links[:-1], chain[1:]
        ):
            raise ValueError(
                f"leaf chain through pages {page_ids[0]}..{page_ids[-1]} "
                "disagrees with the parent's child order"
            )
        slots = leaves["entries"]
        live = np.arange(slots.shape[1]) < leaves["count"][:, None]
        return slots[live], int(links[-1])

    def _step_to_next_level_one(
        self, path: "list[list]", counters: CostCounters | None
    ) -> None:
        """Move an exhausted *path* to the level-1 node on its right,
        positioned before that node's first leaf."""
        depth = len(path)
        while path and path[-1][1] == path[-1][0].count:
            path.pop()
        if not path:
            raise ValueError("leaf chain runs past the rightmost leaf")
        path[-1][1] += 1
        while len(path) < depth:
            node, index = path[-1]
            path.append([self._load_internal(node.children[index], counters), 0])
        path[-1][1] = -1

    def key_bounds(
        self, *, counters: CostCounters | None = None
    ) -> tuple[float, float] | None:
        """Smallest and largest key currently stored; ``None`` when empty.

        Two root-to-leaf descents (O(height) page accesses) in the common
        case.  Lazy deletion can leave empty edge leaves: the low end
        skips them by walking the chain forward, and an emptied rightmost
        leaf falls back to a full forward walk.
        """
        if self._num_entries == 0:
            return None
        leaf, _ = self._descend_to_leaf(
            -math.inf, leftmost=True, counters=counters
        )
        while leaf.count == 0 and leaf.next_leaf != NO_LEAF:
            leaf = self._load_leaf(leaf.next_leaf, counters)
        if leaf.count == 0:  # pragma: no cover - num_entries > 0 above
            return None
        low = leaf.keys[0]
        rightmost, _ = self._descend_to_leaf(
            math.inf, leftmost=False, counters=counters
        )
        if rightmost.count > 0:
            return (low, rightmost.keys[rightmost.count - 1])
        high = low
        node = leaf
        while node.next_leaf != NO_LEAF:
            node = self._load_leaf(node.next_leaf, counters)
            if node.count > 0:
                high = node.keys[node.count - 1]
        return (low, high)

    def iter_entries(
        self, *, counters: CostCounters | None = None
    ) -> Iterator[tuple[float, bytes]]:
        """Yield every entry left to right (full leaf-chain walk)."""
        if self._num_entries == 0:
            return
        leaf, _ = self._descend_to_leaf(
            -math.inf, leftmost=True, counters=counters
        )
        while True:
            yield from zip(leaf.keys, leaf.payloads)
            if leaf.next_leaf == NO_LEAF:
                return
            leaf = self._load_leaf(leaf.next_leaf, counters)

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def bulk_load(
        self, items: Iterable[tuple[float, bytes]], *, fill_factor: float = 1.0
    ) -> None:
        """Build the tree bottom-up from key-sorted items.

        Much faster than repeated inserts and produces packed pages; used
        for the paper's one-off index constructions.  The tree must be
        empty.

        Parameters
        ----------
        items:
            ``(key, payload)`` pairs in non-decreasing key order.
        fill_factor:
            Fraction of each leaf/internal node to fill, in ``(0, 1]``.
        """
        if self._num_entries != 0:
            raise ValueError("bulk_load requires an empty tree")
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill_factor must be in (0, 1], got {fill_factor}")

        items = list(items)
        for (key, payload) in items:
            if len(payload) != self._payload_size:
                raise ValueError(
                    f"payload must be {self._payload_size} bytes, "
                    f"got {len(payload)}"
                )
        keys = [float(key) for key, _ in items]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise ValueError("bulk_load items must be sorted by key")
        if not items:
            return

        per_leaf = max(2, int(leaf_capacity(self._payload_size) * fill_factor))
        per_internal = max(2, int(internal_capacity() * fill_factor))

        # Build the leaf level, reusing the initial empty root page as the
        # first leaf.
        leaf_ids: list[int] = []
        first_keys: list[float] = []
        previous: LeafNode | None = None
        for start in range(0, len(items), per_leaf):
            chunk = items[start : start + per_leaf]
            if start == 0:
                page = self._pool.fetch(self._root)
            else:
                page = self._pool.allocate()
            leaf = LeafNode(page, self._payload_size)
            leaf.keys = [float(key) for key, _ in chunk]
            leaf.payloads = [payload for _, payload in chunk]
            if previous is not None:
                previous.next_leaf = page.page_id
                previous.save()
            previous = leaf
            leaf_ids.append(page.page_id)
            first_keys.append(leaf.keys[0])
        previous.next_leaf = NO_LEAF
        previous.save()

        # Build internal levels until a single root remains.
        level_ids = leaf_ids
        level_keys = first_keys
        height = 1
        while len(level_ids) > 1:
            parent_ids: list[int] = []
            parent_first_keys: list[float] = []
            for start in range(0, len(level_ids), per_internal + 1):
                child_ids = level_ids[start : start + per_internal + 1]
                child_keys = level_keys[start : start + per_internal + 1]
                page = self._pool.allocate()
                InternalNode.new(page, child_keys[1:], child_ids)
                parent_ids.append(page.page_id)
                parent_first_keys.append(child_keys[0])
            level_ids = parent_ids
            level_keys = parent_first_keys
            height += 1

        self._root = level_ids[0]
        self._height = height
        self._num_entries = len(items)
        self._persist_meta()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write every dirty page down to the pager."""
        self._persist_meta()
        self._pool.flush()

    def __repr__(self) -> str:
        return (
            f"BPlusTree(entries={self._num_entries}, height={self._height}, "
            f"payload_size={self._payload_size})"
        )
