"""Fixed-size-record heap file.

A flat file of full ViTri payloads, in append order.  The index keeps
its records in the B+-tree leaves; the sequential-scan baseline writes
them into a heap and scans every data page, each a counted page access —
the I/O model of the paper's experiments.

Layout
------
Page 0 is a metadata page: ``magic u32 | record_size u32 | num_records u64``.
Every subsequent page holds ``(PAGE_CONTENT_SIZE - 2) // record_size`` record
slots behind a ``u16`` slot-count header.  Records are append-only (the
paper's workload never deletes ViTris; videos are only added).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import PAGE_CONTENT_SIZE
from repro.utils.counters import CostCounters

__all__ = ["HeapFile", "RecordId"]

_META = struct.Struct("<IIQ")
_MAGIC = 0x56695472  # "ViTr"
_SLOT_COUNT = struct.Struct("<H")


@dataclass(frozen=True, order=True)
class RecordId:
    """Physical address of a record: (page, slot)."""

    page_id: int
    slot: int


class HeapFile:
    """Append-only heap of fixed-size records over a buffer pool.

    Parameters
    ----------
    buffer_pool:
        Buffer pool over a pager dedicated to this heap (the heap assumes
        it owns every page of the underlying pager).
    record_size:
        Size of each record in bytes; must fit in a page behind the 2-byte
        slot-count header.

    Use :meth:`create` for a fresh file and :meth:`open` to re-attach to an
    existing one.
    """

    def __init__(
        self, buffer_pool: BufferPool, record_size: int, *, _opened: bool = False
    ) -> None:
        if not _opened:
            raise RuntimeError(
                "use HeapFile.create(...) or HeapFile.open(...) instead of "
                "constructing HeapFile directly"
            )
        self._pool = buffer_pool
        self._record_size = record_size
        self._slots_per_page = (PAGE_CONTENT_SIZE - _SLOT_COUNT.size) // record_size
        self._num_records = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, buffer_pool: BufferPool, record_size: int) -> "HeapFile":
        """Initialise a new heap file on an empty pager."""
        if not isinstance(record_size, int) or isinstance(record_size, bool):
            raise TypeError("record_size must be an int")
        if record_size < 1 or record_size > PAGE_CONTENT_SIZE - _SLOT_COUNT.size:
            raise ValueError(
                f"record_size must be in "
                f"[1, {PAGE_CONTENT_SIZE - _SLOT_COUNT.size}], got {record_size}"
            )
        if buffer_pool.pager.num_pages != 0:
            raise ValueError("HeapFile.create requires an empty pager")
        heap = cls(buffer_pool, record_size, _opened=True)
        meta = buffer_pool.allocate()
        _META.pack_into(meta.data, 0, _MAGIC, record_size, 0)
        meta.mark_dirty()
        heap._persist_meta()
        return heap

    @classmethod
    def open(cls, buffer_pool: BufferPool) -> "HeapFile":
        """Attach to an existing heap file."""
        if buffer_pool.pager.num_pages == 0:
            raise ValueError("pager holds no pages; use HeapFile.create")
        meta = buffer_pool.fetch(0)
        magic, record_size, num_records = _META.unpack_from(meta.data, 0)
        if magic != _MAGIC:
            raise ValueError("page 0 is not a heap-file metadata page")
        heap = cls(buffer_pool, record_size, _opened=True)
        heap._num_records = num_records
        return heap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def record_size(self) -> int:
        """Size of each record in bytes."""
        return self._record_size

    @property
    def slots_per_page(self) -> int:
        """Number of record slots per data page."""
        return self._slots_per_page

    @property
    def num_records(self) -> int:
        """Total number of records appended so far."""
        return self._num_records

    @property
    def num_data_pages(self) -> int:
        """Number of data pages (excludes the metadata page)."""
        if self._num_records == 0:
            return 0
        return (self._num_records + self._slots_per_page - 1) // self._slots_per_page

    @property
    def buffer_pool(self) -> BufferPool:
        """The buffer pool all accesses flow through."""
        return self._pool

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> RecordId:
        """Append one record; returns its physical address."""
        if len(payload) != self._record_size:
            raise ValueError(
                f"payload must be {self._record_size} bytes, got {len(payload)}"
            )
        slot = self._num_records % self._slots_per_page
        if slot == 0:
            page = self._pool.allocate()
        else:
            page = self._pool.fetch(self._page_id_for(self._num_records))
        offset = _SLOT_COUNT.size + slot * self._record_size
        page.data[offset : offset + self._record_size] = payload
        _SLOT_COUNT.pack_into(page.data, 0, slot + 1)
        page.mark_dirty()
        self._num_records += 1
        self._persist_meta()
        return RecordId(page_id=page.page_id, slot=slot)

    def read(
        self, record_id: RecordId, *, counters: CostCounters | None = None
    ) -> bytes:
        """Read one record by physical address."""
        self._check_record_id(record_id)
        page = self._pool.fetch(record_id.page_id, counters)
        offset = _SLOT_COUNT.size + record_id.slot * self._record_size
        return bytes(page.data[offset : offset + self._record_size])

    def read_batch(
        self,
        record_ids: list[RecordId],
        *,
        counters: CostCounters | None = None,
    ) -> list[bytes]:
        """Read many records, fetching each distinct page only once.

        This is how an access method amortises I/O over a candidate set: a
        page holding several requested records costs a single page access
        per batch.  Results are returned in the order of *record_ids*.
        """
        for record_id in record_ids:
            self._check_record_id(record_id)
        pages: dict[int, bytearray] = {}
        for page_id in sorted({rid.page_id for rid in record_ids}):
            pages[page_id] = self._pool.fetch(page_id, counters).data
        results: list[bytes] = []
        for record_id in record_ids:
            offset = _SLOT_COUNT.size + record_id.slot * self._record_size
            data = pages[record_id.page_id]
            results.append(bytes(data[offset : offset + self._record_size]))
        return results

    def scan(
        self, *, counters: CostCounters | None = None
    ) -> Iterator[tuple[RecordId, bytes]]:
        """Yield every record in physical order (the seq-scan baseline).

        Pass a per-query ``counters`` bundle to attribute the scan's page
        accesses to that query.
        """
        remaining = self._num_records
        for page_index in range(self.num_data_pages):
            page_id = 1 + page_index
            page = self._pool.fetch(page_id, counters)
            (used,) = _SLOT_COUNT.unpack_from(page.data, 0)
            for slot in range(min(used, remaining)):
                offset = _SLOT_COUNT.size + slot * self._record_size
                payload = bytes(page.data[offset : offset + self._record_size])
                yield RecordId(page_id=page_id, slot=slot), payload
            remaining -= used

    def scan_batches(
        self, *, counters: CostCounters | None = None
    ) -> Iterator[tuple[int, int, bytes]]:
        """Yield per-page record blocks ``(page_id, used, raw_bytes)``.

        The page-batched counterpart of :meth:`scan`: each yielded block
        is the page's records region (``used * record_size`` bytes,
        copied out of the pool so the caller may hold it past eviction),
        ready for a one-view columnar decode
        (:meth:`~repro.storage.serialization.ViTriRecordCodec.
        decode_columns`).  Page accesses are charged at fetch time and
        ``records_scanned`` is charged per logical record, so the cost
        signature matches a per-record scan over the same heap.
        """
        remaining = self._num_records
        for page_index in range(self.num_data_pages):
            page_id = 1 + page_index
            page = self._pool.fetch(page_id, counters)
            (used,) = _SLOT_COUNT.unpack_from(page.data, 0)
            used = min(used, remaining)
            block = bytes(
                page.data[
                    _SLOT_COUNT.size : _SLOT_COUNT.size
                    + used * self._record_size
                ]
            )
            if counters is not None:
                counters.records_scanned += used
            yield page_id, used, block
            remaining -= used

    def flush(self) -> None:
        """Flush dirty pages down to the pager."""
        self._pool.flush()

    def verify(self) -> list[str]:
        """List violations of the meta page and each page's slot count."""
        violations: list[str] = []
        meta = self._pool.fetch(0).data
        magic, record_size, num_records = _META.unpack_from(meta, 0)
        for name, found, expected in (
            ("magic", magic, _MAGIC),
            ("record_size", record_size, self._record_size),
            ("num_records", num_records, self._num_records),
        ):
            if found != expected:
                violations.append(f"meta {name} {found} != expected {expected}")
        if self._pool.pager.num_pages < 1 + self.num_data_pages:
            return violations + [
                f"pager holds {self._pool.pager.num_pages} pages, "
                f"{self._num_records} records need {1 + self.num_data_pages}"
            ]
        for page_index in range(self.num_data_pages):
            page = self._pool.fetch(1 + page_index)
            (used,) = _SLOT_COUNT.unpack_from(page.data, 0)
            expected = min(
                self._slots_per_page,
                self._num_records - page_index * self._slots_per_page,
            )
            if used != expected:
                violations.append(
                    f"data page {page.page_id} slot count {used} "
                    f"!= expected {expected}"
                )
        return violations

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _page_id_for(self, record_index: int) -> int:
        return 1 + record_index // self._slots_per_page

    def _check_record_id(self, record_id: RecordId) -> None:
        if not isinstance(record_id, RecordId):
            raise TypeError("record_id must be a RecordId")
        if record_id.page_id < 1 or record_id.page_id > self.num_data_pages:
            raise ValueError(f"record page {record_id.page_id} out of range")
        if record_id.slot < 0 or record_id.slot >= self._slots_per_page:
            raise ValueError(f"record slot {record_id.slot} out of range")

    def _persist_meta(self) -> None:
        meta = self._pool.fetch(0)
        _META.pack_into(meta.data, 0, _MAGIC, self._record_size, self._num_records)
        meta.mark_dirty()

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:
        return (
            f"HeapFile(records={self._num_records}, "
            f"record_size={self._record_size}, pages={self.num_data_pages})"
        )
