"""File-backed page store with physical I/O counters and crash safety.

The pager is the bottom of the storage stack: it allocates, reads and
writes whole :data:`~repro.storage.page.PAGE_SIZE`-byte page frames.  It
can run against a real file on disk or fully in memory (``path=None``);
either way it counts every physical page read and write, which is what
the I/O-cost benchmarks report.

Since the crash-safety work every frame carries a CRC32 trailer
(:mod:`repro.storage.serialization`), and file-backed pagers default to
journaling through a :class:`~repro.storage.wal.WriteAheadLog`:

* ``wal=True`` (default for files) — writes are buffered in the pager's
  own WAL (``<path>.wal``); :meth:`sync` commits and applies them; the
  constructor replays any committed-but-unapplied log, so reopening
  after a crash always lands on the last committed state.
* ``wal=<WriteAheadLog>`` — attach to a *shared* log under
  ``wal_file_id`` so several files commit atomically (used by the
  database directory layout).  The owner of the shared log must call its
  ``recover()`` once every pager is registered, before any reads.
* ``wal=False`` — direct writes, no journal; checksums still detect torn
  pages at read time, but nothing repairs them.

The ``fault_injector`` hook (see :mod:`repro.storage.faults`) is the
deterministic-simulation seam: when set, every disk mutation routes
through it so tests can crash the pager at a scripted operation.

Thread safety: all page operations and the physical I/O counters are
guarded by an internal re-entrant lock, so several
:class:`~repro.storage.buffer_pool.BufferPool` instances (one per query
worker) can safely share one pager.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- the pager is the disk
# boundary: frame reads/writes and commit fsyncs under Pager._lock are
# the class's whole job.

import os
from typing import Sequence

import numpy as np

from repro.storage.page import PAGE_SIZE, PAGE_CONTENT_SIZE, Page
from repro.storage.serialization import (
    pack_page_frame,
    page_checksum,
    unpack_page_frame,
)
from repro.storage.wal import WriteAheadLog
from repro.utils.locks import make_lock

__all__ = ["Pager"]


class Pager:
    """Page-granular storage over a file or an in-memory list.

    Parameters
    ----------
    path:
        Backing file path, or ``None`` for a purely in-memory pager (used
        heavily in tests and benchmarks — the I/O *counters* behave
        identically either way).
    wal:
        ``True`` (default) journals file-backed writes through a private
        write-ahead log; ``False`` writes directly; a
        :class:`~repro.storage.wal.WriteAheadLog` instance attaches to a
        shared log.  Ignored for in-memory pagers.
    wal_file_id:
        This pager's id inside a shared log (default 0).
    fault_injector:
        Optional :class:`~repro.storage.faults.FaultInjector` used by the
        crash-recovery tests; ``None`` (the default) costs nothing.

    Attributes
    ----------
    physical_reads / physical_writes:
        Cumulative number of page reads/writes served at this boundary.
        (WAL recovery and commit-apply I/O is bookkeeping, not workload,
        and is deliberately not counted.)
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        wal: bool | WriteAheadLog = True,
        wal_file_id: int = 0,
        fault_injector=None,
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._file = None
        self._memory: list[bytes] | None = None
        self._num_pages = 0
        self.physical_reads = 0
        self.physical_writes = 0
        self._closed = False
        # Re-entrant: sync() holds the lock while the WAL commit calls
        # back into wal_apply_page/_write_frame on this same pager.
        self._lock = make_lock("Pager._lock")
        self._faults = fault_injector
        self._wal: WriteAheadLog | None = None
        self._wal_file_id = wal_file_id
        self._owns_wal = False

        if self._path is None:
            self._memory = []
            return

        # Create the file if missing without truncating it; "a+b" is not
        # usable here because append mode ignores seek() on writes.
        if not os.path.exists(self._path):
            open(self._path, "xb").close()
        self._file = open(self._path, "r+b", buffering=0)

        if isinstance(wal, WriteAheadLog):
            self._wal = wal
            wal.register(wal_file_id, self)
            # Recovery is driven by the shared log's owner; num_pages is
            # provisional until finalize_recovery().
            self._num_pages = self._file_size() // PAGE_SIZE
        elif wal:
            self._wal = WriteAheadLog(
                self._path + ".wal", fault_injector=fault_injector
            )
            self._owns_wal = True
            self._wal.register(wal_file_id, self)
            self._wal.recover()  # calls finalize_recovery()
        else:
            self.finalize_recovery()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Number of pages currently allocated."""
        with self._lock:
            return self._num_pages

    @property
    def path(self) -> str | None:
        """Backing file path; ``None`` for in-memory pagers."""
        return self._path

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("pager is closed")
        if self._faults is not None:
            self._faults.check()

    def _check_page_id(self, page_id: int) -> None:
        if not isinstance(page_id, int) or isinstance(page_id, bool):
            raise TypeError("page_id must be an int")
        if page_id < 0 or page_id >= self._num_pages:
            raise ValueError(
                f"page_id {page_id} out of range [0, {self._num_pages})"
            )

    # ------------------------------------------------------------------
    # Page operations
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Append a zeroed page and return its id."""
        with self._lock:
            self._require_open()
            page_id = self._num_pages
            zeros = bytes(PAGE_CONTENT_SIZE)
            if self._memory is not None:
                self._memory.append(pack_page_frame(zeros))
            elif self._wal is not None:
                self._wal.log_page(self._wal_file_id, page_id, zeros)
            else:
                self._write_frame(page_id, zeros)
            self._num_pages += 1
            self.physical_writes += 1
            return page_id

    def read_page(self, page_id: int) -> Page:
        """Read one page from the backing store (counts one physical read).

        Raises :class:`~repro.storage.serialization.ChecksumError` if the
        stored frame fails checksum verification.
        """
        with self._lock:
            self._require_open()
            self._check_page_id(page_id)
            if self._memory is not None:
                data = unpack_page_frame(self._memory[page_id], page_id)
            else:
                pending = (
                    self._wal.pending_page(self._wal_file_id, page_id)
                    if self._wal is not None
                    else None
                )
                if pending is not None:
                    data = bytearray(pending)
                else:
                    data = self._read_frame(page_id)
            self.physical_reads += 1
            return Page(page_id, data)

    def read_run(self, page_ids: Sequence[int]) -> np.ndarray:
        """Read many pages; one file read per maximal run of consecutive ids.

        Returns the verified contents as a ``(len(page_ids),
        PAGE_CONTENT_SIZE)`` uint8 array, row ``i`` holding page
        ``page_ids[i]``.  Accounting is per page, exactly as for
        :meth:`read_page`: one physical read each, every frame's CRC32
        verified, the fault injector consulted.  A lone page — and every page while the write-ahead
        log holds uncommitted images, which live outside the file — is
        served by :meth:`read_page` itself.
        """
        total = len(page_ids)
        frames = np.empty((total, PAGE_SIZE), dtype=np.uint8)
        contents = frames[:, :PAGE_CONTENT_SIZE]
        start = 0
        while start < total:
            first = page_ids[start]
            stop = start + 1
            while stop < total and page_ids[stop] == first + (stop - start):
                stop += 1
            if stop - start == 1 or not self._read_frames(
                first, frames[start:stop]
            ):
                for row in range(start, stop):
                    contents[row] = np.frombuffer(
                        self.read_page(page_ids[row]).data, dtype=np.uint8
                    )
            start = stop
        return contents

    def _read_frames(self, first: int, frames: np.ndarray) -> bool:
        """Fill *frames* with pages ``first, first + 1, ...`` from one read
        and verify each; ``False`` (nothing read) while WAL images pend."""
        count = frames.shape[0]
        with self._lock:
            self._require_open()
            self._check_page_id(first)
            self._check_page_id(first + count - 1)
            if self._wal is not None and self._wal.has_pending:
                return False
            buffer = memoryview(frames).cast("B")
            if self._memory is not None:
                stored = b"".join(self._memory[first : first + count])
                buffer[: len(stored)] = stored
                received = len(stored)
            else:
                self._file.seek(first * PAGE_SIZE)
                received = self._file.readinto(buffer)
            whole = received // PAGE_SIZE
            trailers = frames[:whole, PAGE_CONTENT_SIZE:].view("<u4")[:, 0]
            for row, trailer in enumerate(trailers.tolist()):
                at = row * PAGE_SIZE
                if trailer != page_checksum(buffer[at : at + PAGE_CONTENT_SIZE]):
                    # Raises unless this is the valid all-zero frame.
                    unpack_page_frame(buffer[at : at + PAGE_SIZE], first + row)
            if whole != count:  # the file ends inside the run: torn frame
                unpack_page_frame(buffer[whole * PAGE_SIZE : received], first + whole)
            self.physical_reads += count
            return True

    def write_page(self, page: Page) -> None:
        """Write one page back (counts one physical write).

        With a WAL attached the image is journaled, not applied: it
        reaches the data file when :meth:`sync` commits.
        """
        with self._lock:
            self._require_open()
            self._check_page_id(page.page_id)
            if self._memory is not None:
                self._memory[page.page_id] = pack_page_frame(page.data)
            elif self._wal is not None:
                self._wal.log_page(
                    self._wal_file_id, page.page_id, bytes(page.data)
                )
            else:
                self._write_frame(page.page_id, page.data)
            self.physical_writes += 1
            page.dirty = False

    def verify_checksums(self) -> int:
        """Verify the CRC32 trailer of every stored page frame.

        Returns the number of frames scanned; raises
        :class:`~repro.storage.serialization.ChecksumError` on the first
        bad frame.  This is an out-of-band integrity scan (used by the
        B+-tree checker and ``repro-video check``) and does not touch the
        I/O counters.
        """
        with self._lock:
            self._require_open()
            if self._memory is not None:
                for page_id, frame in enumerate(self._memory):
                    unpack_page_frame(frame, page_id)
                return len(self._memory)
            scanned = self._file_size() // PAGE_SIZE
            for page_id in range(scanned):
                self._file.seek(page_id * PAGE_SIZE)
                unpack_page_frame(self._file.read(PAGE_SIZE), page_id)
            return scanned

    # ------------------------------------------------------------------
    # Low-level frame I/O
    # ------------------------------------------------------------------
    def _file_size(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    def _read_frame(self, page_id: int) -> bytearray:
        self._file.seek(page_id * PAGE_SIZE)
        return unpack_page_frame(self._file.read(PAGE_SIZE), page_id)

    def _write_frame(self, page_id: int, content: bytes | bytearray) -> None:
        frame = pack_page_frame(content)
        offset = page_id * PAGE_SIZE

        def sink(chunk: bytes) -> None:
            self._file.seek(offset)
            self._file.write(chunk)

        if self._faults is not None:
            self._faults.write(sink, frame)
        else:
            sink(frame)

    # ------------------------------------------------------------------
    # WAL-target protocol (called by WriteAheadLog)
    # ------------------------------------------------------------------
    def wal_apply_page(self, page_id: int, content: bytes) -> None:
        """Apply one committed page image to the data file."""
        with self._lock:
            self._write_frame(page_id, content)

    def wal_set_num_pages(self, num_pages: int) -> None:
        """Truncate/extend the data file to the committed page count."""
        size = num_pages * PAGE_SIZE

        def perform() -> None:
            self._file.truncate(size)

        with self._lock:
            if self._faults is not None:
                self._faults.op(perform)
            else:
                perform()
            self._num_pages = num_pages

    def wal_fsync(self) -> None:
        """Fsync the data file (commit/recovery barrier)."""
        with self._lock:
            if self._faults is not None:
                self._faults.check()
            os.fsync(self._file.fileno())

    def wal_num_pages(self) -> int:
        """Current page count, recorded in commit records."""
        with self._lock:
            return self._num_pages

    def finalize_recovery(self) -> None:
        """Validate the backing file after recovery (or absence of one)."""
        with self._lock:
            size = self._file_size()
            if size % PAGE_SIZE != 0:
                raise ValueError(
                    f"backing file {self._path} has size {size}, "
                    f"not a multiple of the page size {PAGE_SIZE}"
                )
            self._num_pages = size // PAGE_SIZE

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Make every write so far durable.

        WAL mode commits (journal, fsync, apply, reset); direct mode
        flushes and fsyncs the backing file; in-memory is a no-op.
        """
        with self._lock:
            self._require_open()
            if self._memory is not None:
                return
            if self._wal is not None:
                self._wal.commit()
            else:
                self._file.flush()
                os.fsync(self._file.fileno())

    def close(self) -> None:
        """Sync, then close the backing file; further operations raise.

        Idempotent.  A pager whose fault injector has crashed closes its
        file handle without attempting further writes.
        """
        with self._lock:
            if self._closed:
                return
            if self._file is not None:
                crashed = self._faults is not None and self._faults.crashed
                if not crashed:
                    if self._wal is not None:
                        if not self._wal.closed:
                            self.sync()
                    else:
                        self.sync()
                if self._owns_wal and not self._wal.closed:
                    self._wal.close()
                self._file.close()
            self._closed = True

    def crash(self) -> None:
        """Testing seam: release file handles without committing, leaving
        the on-disk state exactly as the last disk operation left it."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
            if (
                self._owns_wal
                and self._wal is not None
                and not self._wal.closed
            ):
                self._wal.crash()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Regression guard: exiting the context manager must never leave
        # unsynced pages behind, so sync explicitly before closing (close
        # also syncs, but only while the WAL is still open).
        with self._lock:
            if not self._closed:
                crashed = self._faults is not None and self._faults.crashed
                wal_closed = self._wal is not None and self._wal.closed
                if not crashed and not wal_closed:
                    self.sync()
            self.close()

    def __repr__(self) -> str:
        backing = self._path or "<memory>"
        with self._lock:
            return f"Pager({backing!r}, pages={self._num_pages})"
