"""B+-tree node layouts and their page (de)serialisation.

Both node kinds live in the :data:`~repro.storage.page.PAGE_CONTENT_SIZE`
usable bytes of one page (the frame's CRC32 trailer is not addressable
here).

Leaf page layout (little-endian)::

    type u8 | count u16 | next_leaf u64 | (key f64, payload bytes)[count]

Internal page layout::

    type u8 | count u16 | children u64[count + 1] | keys f64[count]

The children array is stored at a fixed offset sized for the maximum
capacity so that keys never move when children are inserted.  Internal
separator keys follow the "first key of the right subtree" convention:
``children[i]`` holds keys ``< keys[i]``; ``children[i+1]`` holds keys
``>= keys[i]`` — except that duplicates of a separator may straddle the
boundary, which the search code accommodates by descending with
``bisect_left`` when looking for the *leftmost* occurrence.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.storage.page import PAGE_CONTENT_SIZE, Page

__all__ = [
    "InternalNode",
    "LeafNode",
    "NODE_INTERNAL",
    "NODE_LEAF",
    "NO_LEAF",
    "internal_capacity",
    "leaf_capacity",
    "leaf_run_dtype",
    "node_type_of",
]

NODE_LEAF = 1
NODE_INTERNAL = 2
NO_LEAF = 0xFFFFFFFFFFFFFFFF
"""Sentinel for "no next leaf" in the rightmost leaf."""

_LEAF_HEADER = struct.Struct("<BHQ")  # type, count, next_leaf
_INTERNAL_HEADER = struct.Struct("<BH")  # type, count
_KEY = struct.Struct("<d")
_CHILD = struct.Struct("<Q")


def leaf_capacity(payload_size: int) -> int:
    """Maximum entries per leaf for the given payload size."""
    if payload_size < 0:
        raise ValueError(f"payload_size must be >= 0, got {payload_size}")
    capacity = (PAGE_CONTENT_SIZE - _LEAF_HEADER.size) // (_KEY.size + payload_size)
    if capacity < 2:
        raise ValueError(
            f"payload_size {payload_size} leaves room for fewer than 2 "
            "entries per leaf page"
        )
    return capacity


def internal_capacity() -> int:
    """Maximum separator keys per internal node."""
    # count keys of 8 bytes + (count + 1) children of 8 bytes must fit.
    return (PAGE_CONTENT_SIZE - _INTERNAL_HEADER.size - _CHILD.size) // (
        _KEY.size + _CHILD.size
    )


def node_type_of(page: Page) -> int:
    """Read the node-type tag of a serialised node page."""
    return page.data[0]


def leaf_run_dtype(entry_dtype: np.dtype) -> np.dtype:
    """Structured dtype of one whole leaf page with ``entry_dtype`` entries.

    Viewing an ``(n, PAGE_CONTENT_SIZE)`` byte array of leaf pages with
    it yields the ``type`` / ``count`` / ``next_leaf`` header columns and
    an ``entries`` column of shape ``(n, capacity)`` — the bulk read
    path's replacement for :meth:`LeafNode.load`'s per-entry unpacking.
    Slots at or past a page's ``count`` hold stale bytes.
    """
    capacity = (PAGE_CONTENT_SIZE - _LEAF_HEADER.size) // entry_dtype.itemsize
    return np.dtype(
        {
            "names": ["type", "count", "next_leaf", "entries"],
            "formats": ["u1", "<u2", "<u8", (entry_dtype, (capacity,))],
            "offsets": [0, 1, 3, _LEAF_HEADER.size],
            "itemsize": PAGE_CONTENT_SIZE,
        }
    )


class LeafNode:
    """In-memory view of a leaf page.

    Mutate ``keys`` / ``payloads`` / ``next_leaf`` and call :meth:`save` to
    write the node back into its page.
    """

    __slots__ = ("page", "payload_size", "keys", "payloads", "next_leaf")

    def __init__(self, page: Page, payload_size: int) -> None:
        self.page = page
        self.payload_size = payload_size
        self.keys: list[float] = []
        self.payloads: list[bytes] = []
        self.next_leaf: int = NO_LEAF

    @classmethod
    def new(cls, page: Page, payload_size: int) -> "LeafNode":
        """Initialise an empty leaf in a freshly allocated page."""
        node = cls(page, payload_size)
        node.save()
        return node

    @classmethod
    def load(cls, page: Page, payload_size: int) -> "LeafNode":
        """Parse a leaf from its page bytes."""
        node_type, count, next_leaf = _LEAF_HEADER.unpack_from(page.data, 0)
        if node_type != NODE_LEAF:
            raise ValueError(f"page {page.page_id} is not a leaf node")
        node = cls(page, payload_size)
        node.next_leaf = next_leaf
        entry_size = _KEY.size + payload_size
        offset = _LEAF_HEADER.size
        for _ in range(count):
            (key,) = _KEY.unpack_from(page.data, offset)
            payload = bytes(
                page.data[offset + _KEY.size : offset + entry_size]
            )
            node.keys.append(key)
            node.payloads.append(payload)
            offset += entry_size
        return node

    @property
    def count(self) -> int:
        """Number of entries currently in the node."""
        return len(self.keys)

    @property
    def capacity(self) -> int:
        """Maximum number of entries this leaf can hold."""
        return leaf_capacity(self.payload_size)

    def save(self) -> None:
        """Serialise the node into its page and mark the page dirty."""
        if len(self.keys) != len(self.payloads):
            raise ValueError("keys and payloads out of sync")
        if len(self.keys) > self.capacity:
            raise ValueError(
                f"leaf holds {len(self.keys)} entries, capacity {self.capacity}"
            )
        data = self.page.data
        _LEAF_HEADER.pack_into(data, 0, NODE_LEAF, len(self.keys), self.next_leaf)
        entry_size = _KEY.size + self.payload_size
        offset = _LEAF_HEADER.size
        for key, payload in zip(self.keys, self.payloads):
            if len(payload) != self.payload_size:
                raise ValueError(
                    f"payload must be {self.payload_size} bytes, "
                    f"got {len(payload)}"
                )
            _KEY.pack_into(data, offset, key)
            data[offset + _KEY.size : offset + entry_size] = payload
            offset += entry_size
        self.page.mark_dirty()


class InternalNode:
    """In-memory view of an internal page.

    Holds ``count`` separator keys and ``count + 1`` child page ids.
    """

    __slots__ = ("page", "keys", "children")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.keys: list[float] = []
        self.children: list[int] = []

    @classmethod
    def new(cls, page: Page, keys: list[float], children: list[int]) -> "InternalNode":
        """Initialise an internal node in a freshly allocated page."""
        node = cls(page)
        node.keys = list(keys)
        node.children = list(children)
        node.save()
        return node

    @classmethod
    def load(cls, page: Page) -> "InternalNode":
        """Parse an internal node from its page bytes."""
        node_type, count = _INTERNAL_HEADER.unpack_from(page.data, 0)
        if node_type != NODE_INTERNAL:
            raise ValueError(f"page {page.page_id} is not an internal node")
        node = cls(page)
        offset = _INTERNAL_HEADER.size
        node.children = list(struct.unpack_from(f"<{count + 1}Q", page.data, offset))
        offset += (count + 1) * _CHILD.size
        node.keys = list(struct.unpack_from(f"<{count}d", page.data, offset))
        return node

    @property
    def count(self) -> int:
        """Number of separator keys."""
        return len(self.keys)

    @property
    def capacity(self) -> int:
        """Maximum number of separator keys."""
        return internal_capacity()

    def save(self) -> None:
        """Serialise the node into its page and mark the page dirty."""
        if len(self.children) != len(self.keys) + 1:
            raise ValueError(
                f"internal node needs count+1 children: "
                f"{len(self.keys)} keys, {len(self.children)} children"
            )
        if len(self.keys) > self.capacity:
            raise ValueError(
                f"internal node holds {len(self.keys)} keys, "
                f"capacity {self.capacity}"
            )
        data = self.page.data
        _INTERNAL_HEADER.pack_into(data, 0, NODE_INTERNAL, len(self.keys))
        offset = _INTERNAL_HEADER.size
        for child in self.children:
            _CHILD.pack_into(data, offset, child)
            offset += _CHILD.size
        for key in self.keys:
            _KEY.pack_into(data, offset, key)
            offset += _KEY.size
        self.page.mark_dirty()
