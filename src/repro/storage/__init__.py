"""Paged storage substrate.

Everything the B+-tree (and the scan baseline's flat heap) sits on:

* :mod:`repro.storage.page` — the 4 KiB page unit (matching the paper's
  experimental setup); :data:`~repro.storage.page.PAGE_CONTENT_SIZE` of
  each frame is usable content, the rest a CRC32 trailer;
* :mod:`repro.storage.pager` — a file-backed (or in-memory) page store
  with physical read/write counters, checksummed frames and write-ahead
  logging;
* :mod:`repro.storage.wal` — the write-ahead log that makes a group of
  page writes (possibly across several files) atomic and replayable;
* :mod:`repro.storage.buffer_pool` — an LRU cache of pages with logical
  request / hit / miss counters;
* :mod:`repro.storage.heap_file` — a fixed-size-record heap file, the
  sequential-scan baseline's flat input;
* :mod:`repro.storage.serialization` — struct codecs for the on-page
  record formats, including the checksummed page-frame codec;
* :mod:`repro.storage.faults` — deterministic disk-fault injection used
  by the crash-recovery tests.

Every page that a query touches flows through these counters, which is how
the reproduction reports I/O cost hardware-independently.
"""

from __future__ import annotations

from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FaultInjectingPager, FaultInjector, SimulatedCrash
from repro.storage.heap_file import HeapFile, RecordId
from repro.storage.page import CHECKSUM_SIZE, PAGE_CONTENT_SIZE, PAGE_SIZE, Page
from repro.storage.pager import Pager
from repro.storage.serialization import (
    ChecksumError,
    ViTriRecordCodec,
    pack_page_frame,
    page_checksum,
    unpack_page_frame,
)
from repro.storage.wal import WriteAheadLog

__all__ = [
    "BufferPool",
    "CHECKSUM_SIZE",
    "ChecksumError",
    "FaultInjectingPager",
    "FaultInjector",
    "HeapFile",
    "PAGE_CONTENT_SIZE",
    "PAGE_SIZE",
    "Page",
    "Pager",
    "RecordId",
    "SimulatedCrash",
    "ViTriRecordCodec",
    "WriteAheadLog",
    "pack_page_frame",
    "page_checksum",
    "unpack_page_frame",
]
