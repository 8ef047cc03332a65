"""Write-ahead log: page-image journaling with commit-time apply.

The WAL is what turns the pager into a crash-safe store.  The protocol is
deliberately simple (full-page physical redo, one transaction in flight):

1. ``Pager.write_page`` / ``allocate_page`` do **not** touch the data
   file.  Dirty page images are buffered in the WAL (:meth:`log_page`) and
   later reads are served from that buffer.
2. ``Pager.sync`` → :meth:`commit`: every buffered image is appended to
   the log as a checksummed record, followed by a COMMIT record carrying
   the committed page count of every attached file; the log is fsynced.
   Only *then* are the images applied to the data files, the files
   fsynced, the optional metadata blob atomically replaced, and the log
   reset to empty.
3. On open, :meth:`recover` replays the log: records up to the last valid
   COMMIT are re-applied (apply is idempotent — full images), anything
   after it — a torn record, an uncommitted tail, duplicate garbage — is
   discarded, and the data files are truncated to the committed page
   counts.

The invariant this buys: a data file only ever contains committed data,
so *any* crash point leaves the directory reopenable at its last
committed state.  Several pagers may share one WAL (each registered under
a ``file_id``), which makes a multi-file commit — B+-tree pages, heap
pages and the JSON metadata blob of a :class:`~repro.core.database.
VideoDatabase` directory — atomic as a unit.

Durability model: a byte written to the OS is considered durable (the
fault injector in :mod:`repro.storage.faults` simulates crashes at the
write-operation level, not OS cache loss), which is why the log and data
files are opened unbuffered.

Log layout (little-endian)::

    header: magic u32 | version u32
    record: kind u8 | file_id u8 | page_id u64 | length u32 | payload | crc u32

where ``crc`` is the CRC32 of everything from ``kind`` through
``payload``.  Record kinds: PAGE (payload = page content), META (payload
= opaque metadata blob), COMMIT (payload = ``count u8`` then ``file_id
u8, num_pages u64`` per attached file).
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.storage.page import PAGE_CONTENT_SIZE

__all__ = ["WriteAheadLog"]

_WAL_MAGIC = 0x5669574C  # "ViWL"
_WAL_VERSION = 1
_HEADER = struct.Struct("<II")
_RECORD = struct.Struct("<BBQI")  # kind, file_id, page_id, payload length
_CRC = struct.Struct("<I")
_SIZE_COUNT = struct.Struct("<B")
_SIZE_ENTRY = struct.Struct("<BQ")

_KIND_PAGE = 1
_KIND_COMMIT = 2
_KIND_META = 3
_MAX_PAYLOAD = 16 * 1024 * 1024  # sanity bound while scanning a dirty log


def _encode_record(kind: int, file_id: int, page_id: int, payload: bytes) -> bytes:
    body = _RECORD.pack(kind, file_id, page_id, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


class WriteAheadLog:
    """A shared, single-transaction write-ahead log over one log file.

    Parameters
    ----------
    path:
        Log file path; created (with its header) if missing.
    meta_path:
        Optional path of a metadata file that commits may atomically
        replace (see :meth:`commit`'s ``meta`` argument).
    fault_injector:
        Optional :class:`~repro.storage.faults.FaultInjector`; every log
        append, data apply and reset flows through it so tests can
        simulate crashes deterministically.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        meta_path: str | os.PathLike | None = None,
        fault_injector=None,
    ) -> None:
        self._path = os.fspath(path)
        self._meta_path = os.fspath(meta_path) if meta_path is not None else None
        self._faults = fault_injector
        self._targets: dict[int, object] = {}
        self._pending: dict[tuple[int, int], bytes] = {}
        self._pending_meta: bytes | None = None
        self._closed = False

        if not os.path.exists(self._path):
            open(self._path, "xb").close()
        self._file = open(self._path, "r+b", buffering=0)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size < _HEADER.size:
            # Fresh log, or a header torn by a crash mid-creation: no
            # record can precede the header, so re-stamping loses nothing.
            if size:
                self._truncate_to(0)
            self._append(_HEADER.pack(_WAL_MAGIC, _WAL_VERSION))
        else:
            self._file.seek(0)
            magic, version = _HEADER.unpack(self._file.read(_HEADER.size))
            if magic != _WAL_MAGIC or version != _WAL_VERSION:
                self._file.close()
                raise ValueError(
                    f"{self._path} is not a version-{_WAL_VERSION} "
                    "write-ahead log"
                )

    # ------------------------------------------------------------------
    # Introspection / wiring
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The log file path."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether the log has been closed (or crashed)."""
        return self._closed

    @property
    def has_pending(self) -> bool:
        """Whether uncommitted page images or metadata are buffered."""
        return bool(self._pending) or self._pending_meta is not None

    def register(self, file_id: int, target) -> None:
        """Attach a pager under *file_id*.

        The target must implement the WAL-target protocol:
        ``wal_apply_page(page_id, content)``, ``wal_set_num_pages(n)``,
        ``wal_fsync()``, ``wal_num_pages()`` and ``finalize_recovery()``.
        """
        if not isinstance(file_id, int) or isinstance(file_id, bool):
            raise TypeError("file_id must be an int")
        if not 0 <= file_id <= 0xFF:
            raise ValueError(f"file_id must fit in a byte, got {file_id}")
        if file_id in self._targets:
            raise ValueError(f"file id {file_id} is already registered")
        self._targets[file_id] = target

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def log_page(self, file_id: int, page_id: int, content: bytes) -> None:
        """Buffer one dirty page image for the next commit."""
        self._require_open()
        if len(content) != PAGE_CONTENT_SIZE:
            raise ValueError(
                f"page image must be {PAGE_CONTENT_SIZE} bytes, "
                f"got {len(content)}"
            )
        self._pending[(file_id, page_id)] = bytes(content)

    def pending_page(self, file_id: int, page_id: int) -> bytes | None:
        """The buffered (uncommitted) image of a page, if any."""
        return self._pending.get((file_id, page_id))

    def commit(self, meta: bytes | None = None) -> None:
        """Make every buffered change durable, then apply and reset.

        With nothing buffered and no *meta*, this degenerates to fsyncing
        the attached data files.
        """
        self._require_open()
        if self._faults is not None:
            self._faults.check()
        if meta is not None:
            self._pending_meta = bytes(meta)
        if not self.has_pending:
            for file_id in sorted(self._targets):
                self._targets[file_id].wal_fsync()
            return

        sizes = {
            file_id: self._targets[file_id].wal_num_pages()
            for file_id in sorted(self._targets)
        }
        for (file_id, page_id) in sorted(self._pending):
            self._append(
                _encode_record(
                    _KIND_PAGE, file_id, page_id, self._pending[(file_id, page_id)]
                )
            )
        if self._pending_meta is not None:
            self._append(_encode_record(_KIND_META, 0, 0, self._pending_meta))
        payload = _SIZE_COUNT.pack(len(sizes)) + b"".join(
            _SIZE_ENTRY.pack(file_id, sizes[file_id])
            for file_id in sorted(sizes)
        )
        self._append(_encode_record(_KIND_COMMIT, 0, 0, payload))
        self._fsync()

        self._apply(dict(self._pending), sizes, self._pending_meta)
        self._reset()
        self._pending.clear()
        self._pending_meta = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> bool:
        """Replay committed records, discard the rest, reset the log.

        Must run after every target is registered and before any of them
        serves reads.  Returns whether any committed work was re-applied.
        """
        self._require_open()
        images, sizes, meta, any_commit = self._scan()
        if any_commit:
            unknown = {fid for fid, _ in images} | set(sizes)
            unknown -= set(self._targets)
            if unknown:
                raise ValueError(
                    f"WAL {self._path} references unregistered file ids "
                    f"{sorted(unknown)}"
                )
            self._apply(images, sizes, meta)
        self._reset()
        for file_id in sorted(self._targets):
            self._targets[file_id].finalize_recovery()
        return any_commit

    def _scan(
        self,
    ) -> tuple[dict[tuple[int, int], bytes], dict[int, int], bytes | None, bool]:
        """Parse the log, folding records into the last committed state.

        Stops at the first torn/corrupt record; everything before the last
        valid COMMIT is committed state, everything after is discarded.
        """
        self._file.seek(0)
        raw = self._file.read()
        committed: dict[tuple[int, int], bytes] = {}
        committed_sizes: dict[int, int] = {}
        committed_meta: bytes | None = None
        any_commit = False
        if len(raw) < _HEADER.size:
            return committed, committed_sizes, committed_meta, False
        magic, version = _HEADER.unpack_from(raw, 0)
        if magic != _WAL_MAGIC or version != _WAL_VERSION:
            return committed, committed_sizes, committed_meta, False

        txn: dict[tuple[int, int], bytes] = {}
        txn_meta: bytes | None = None
        offset = _HEADER.size
        while offset + _RECORD.size + _CRC.size <= len(raw):
            kind, file_id, page_id, length = _RECORD.unpack_from(raw, offset)
            if length > _MAX_PAYLOAD:
                break
            end = offset + _RECORD.size + length
            if end + _CRC.size > len(raw):
                break
            body = raw[offset:end]
            (stored,) = _CRC.unpack_from(raw, end)
            if stored != (zlib.crc32(body) & 0xFFFFFFFF):
                break
            payload = raw[offset + _RECORD.size : end]
            if kind == _KIND_PAGE:
                if len(payload) != PAGE_CONTENT_SIZE:
                    break
                txn[(file_id, page_id)] = payload
            elif kind == _KIND_META:
                txn_meta = payload
            elif kind == _KIND_COMMIT:
                sizes = self._parse_commit(payload)
                if sizes is None:
                    break
                committed.update(txn)
                committed_sizes.update(sizes)
                if txn_meta is not None:
                    committed_meta = txn_meta
                txn = {}
                txn_meta = None
                any_commit = True
            else:
                break
            offset = end + _CRC.size
        return committed, committed_sizes, committed_meta, any_commit

    @staticmethod
    def _parse_commit(payload: bytes) -> dict[int, int] | None:
        if len(payload) < _SIZE_COUNT.size:
            return None
        (count,) = _SIZE_COUNT.unpack_from(payload, 0)
        if len(payload) != _SIZE_COUNT.size + count * _SIZE_ENTRY.size:
            return None
        sizes: dict[int, int] = {}
        for index in range(count):
            file_id, num_pages = _SIZE_ENTRY.unpack_from(
                payload, _SIZE_COUNT.size + index * _SIZE_ENTRY.size
            )
            sizes[file_id] = num_pages
        return sizes

    # ------------------------------------------------------------------
    # Apply / reset
    # ------------------------------------------------------------------
    def _apply(
        self,
        images: dict[tuple[int, int], bytes],
        sizes: dict[int, int],
        meta: bytes | None,
    ) -> None:
        for (file_id, page_id) in sorted(images):
            self._targets[file_id].wal_apply_page(
                page_id, images[(file_id, page_id)]
            )
        for file_id in sorted(sizes):
            self._targets[file_id].wal_set_num_pages(sizes[file_id])
        for file_id in sorted(self._targets):
            self._targets[file_id].wal_fsync()
        if meta is not None:
            if self._meta_path is None:
                raise ValueError(
                    "WAL holds a committed metadata blob but no meta_path "
                    "was configured"
                )
            self._replace_meta(meta)

    def _replace_meta(self, blob: bytes) -> None:
        tmp = self._meta_path + ".tmp"

        def perform() -> None:
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._meta_path)

        if self._faults is not None:
            self._faults.op(perform)
        else:
            perform()

    def _reset(self) -> None:
        self._truncate_to(_HEADER.size)
        self._fsync()

    # ------------------------------------------------------------------
    # Low-level file I/O (the faultable operations)
    # ------------------------------------------------------------------
    def _append(self, data: bytes) -> None:
        def sink(chunk: bytes) -> None:
            self._file.seek(0, os.SEEK_END)
            self._file.write(chunk)

        if self._faults is not None:
            self._faults.write(sink, data)
        else:
            sink(data)

    def _truncate_to(self, size: int) -> None:
        def perform() -> None:
            self._file.truncate(size)

        if self._faults is not None:
            self._faults.op(perform)
        else:
            perform()

    def _fsync(self) -> None:
        if self._faults is not None:
            self._faults.check()
        os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("write-ahead log is closed")

    def close(self) -> None:
        """Commit anything pending, then close the log file."""
        if self._closed:
            return
        crashed = self._faults is not None and self._faults.crashed
        if not crashed and self.has_pending:
            self.commit()
        self._closed = True
        self._file.close()

    def crash(self) -> None:
        """Testing seam: release the file handle without committing."""
        self._closed = True
        self._file.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"pending={len(self._pending)}"
        return f"WriteAheadLog({self._path!r}, {state})"
