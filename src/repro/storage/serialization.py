"""Struct codecs for on-page record formats.

Two codecs live here:

* the page *frame* codec — every :data:`~repro.storage.page.PAGE_SIZE`-byte
  frame that reaches a backing store is the page content followed by a
  CRC32 trailer, sealed by :func:`pack_page_frame` and verified by
  :func:`unpack_page_frame`.  A torn or bit-rotted page surfaces as a
  :class:`ChecksumError` at read time instead of silently corrupt bytes.
  An all-zero frame is deliberately valid (it decodes to all-zero
  content): it is the state of a freshly allocated page whose image was
  lost to a crash, and write-ahead-log replay is responsible for its
  content, not the checksum.
* the ViTri record codec — the only fixed record the reproduction
  persists is the full ViTri payload (the position vector plus its scalar
  attributes); B+-tree leaves store the 1-D key and a
  :class:`~repro.storage.heap_file.RecordId` pointing here.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.storage.page import PAGE_CONTENT_SIZE, PAGE_SIZE
from repro.utils.counters import CostCounters
from repro.utils.validation import check_non_negative, check_vector

__all__ = [
    "ChecksumError",
    "ViTriColumns",
    "ViTriRecord",
    "ViTriRecordCodec",
    "pack_page_frame",
    "page_checksum",
    "unpack_page_frame",
]

_CRC = struct.Struct("<I")


class ChecksumError(ValueError):
    """A page frame's CRC32 trailer does not match its content."""


def page_checksum(content: bytes | bytearray | memoryview) -> int:
    """CRC32 of a page's content bytes."""
    return zlib.crc32(content) & 0xFFFFFFFF


def pack_page_frame(content: bytes | bytearray) -> bytes:
    """Seal page content into an on-disk frame (content + CRC32 trailer)."""
    if len(content) != PAGE_CONTENT_SIZE:
        raise ValueError(
            f"page content must be {PAGE_CONTENT_SIZE} bytes, "
            f"got {len(content)}"
        )
    return bytes(content) + _CRC.pack(page_checksum(content))


def unpack_page_frame(frame: bytes | bytearray, page_id: int) -> bytearray:
    """Verify a frame's checksum and return its content bytes.

    Raises
    ------
    ChecksumError
        If the frame is short (torn) or its trailer disagrees with the
        content.  An all-zero frame is valid and decodes to zero content
        (fresh-page convention, see the module docstring).
    """
    if len(frame) != PAGE_SIZE:
        raise ChecksumError(
            f"page {page_id}: torn frame ({len(frame)} of {PAGE_SIZE} bytes)"
        )
    content = frame[:PAGE_CONTENT_SIZE]
    (stored,) = _CRC.unpack_from(frame, PAGE_CONTENT_SIZE)
    if stored != page_checksum(content):
        if not any(frame):
            return bytearray(PAGE_CONTENT_SIZE)
        raise ChecksumError(
            f"page {page_id}: checksum mismatch (stored {stored:#010x}, "
            f"computed {page_checksum(content):#010x})"
        )
    return bytearray(content)


@dataclass(frozen=True)
class ViTriRecord:
    """A persisted ViTri: identifiers plus the triplet itself.

    Attributes
    ----------
    video_id:
        Identifier of the owning video sequence.
    vitri_id:
        Identifier of the ViTri, unique database-wide.
    count:
        ``|C|`` — number of frames in the cluster.
    radius:
        Refined cluster radius ``R``.
    position:
        Cluster centre ``O``, shape ``(n,)``.

    The density ``D = |C| / V_hypersphere(R)`` is derived, not stored: it is
    fully determined by ``count`` and ``radius`` and recomputing it avoids
    keeping two representations in sync.
    """

    video_id: int
    vitri_id: int
    count: int
    radius: float
    position: np.ndarray


@dataclass(frozen=True)
class ViTriColumns:
    """A batch of decoded ViTri records in columnar (struct-of-arrays) form.

    Produced by the page-batched decode paths
    (:meth:`ViTriRecordCodec.decode_columns` /
    :meth:`ViTriRecordCodec.decode_batch`); row ``i`` of every column is
    record ``i`` of the batch, in the order the records appeared in the
    source bytes.

    Attributes
    ----------
    video_ids, vitri_ids, counts:
        ``int64`` arrays of shape ``(m,)``.
    radii:
        ``float64`` array of shape ``(m,)``.
    positions:
        ``float64`` array of shape ``(m, n)``.
    """

    video_ids: np.ndarray
    vitri_ids: np.ndarray
    counts: np.ndarray
    radii: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return int(self.video_ids.shape[0])

    def record(self, index: int) -> ViTriRecord:
        """Materialise row ``index`` as a :class:`ViTriRecord`."""
        return ViTriRecord(
            video_id=int(self.video_ids[index]),
            vitri_id=int(self.vitri_ids[index]),
            count=int(self.counts[index]),
            radius=float(self.radii[index]),
            position=self.positions[index].copy(),
        )

    def take(self, selection: "np.ndarray | slice") -> "ViTriColumns":
        """Rows selected by a boolean mask, an integer index array or a
        slice.  A mask or index array copies the rows; a slice returns
        views that share the source columns' memory."""
        return ViTriColumns(
            video_ids=self.video_ids[selection],
            vitri_ids=self.vitri_ids[selection],
            counts=self.counts[selection],
            radii=self.radii[selection],
            positions=self.positions[selection],
        )

    @classmethod
    def empty(cls, dim: int) -> "ViTriColumns":
        return cls(
            video_ids=np.empty(0, dtype=np.int64),
            vitri_ids=np.empty(0, dtype=np.int64),
            counts=np.empty(0, dtype=np.int64),
            radii=np.empty(0, dtype=np.float64),
            positions=np.empty((0, dim), dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: "list[ViTriColumns]", dim: int) -> "ViTriColumns":
        """Concatenate batches, preserving row order."""
        if not parts:
            return cls.empty(dim)
        return cls(
            video_ids=np.concatenate([p.video_ids for p in parts]),
            vitri_ids=np.concatenate([p.vitri_ids for p in parts]),
            counts=np.concatenate([p.counts for p in parts]),
            radii=np.concatenate([p.radii for p in parts]),
            positions=np.concatenate([p.positions for p in parts]),
        )


class ViTriRecordCodec:
    """Fixed-size binary codec for :class:`ViTriRecord`.

    Layout (little-endian): ``video_id u32 | vitri_id u32 | count u32 |
    radius f64 | position f64[n]``.

    Parameters
    ----------
    dim:
        Dimensionality ``n`` of the position vectors.
    """

    _HEADER = struct.Struct("<IIId")

    def __init__(self, dim: int) -> None:
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError("dim must be an int")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._record_size = self._HEADER.size + 8 * dim
        # Packed structured view of one record; matches the struct layout
        # byte for byte (<IIId has no padding), letting a whole page of
        # records be decoded with a single buffer view.
        self._record_dtype = np.dtype(
            [
                ("video_id", "<u4"),
                ("vitri_id", "<u4"),
                ("count", "<u4"),
                ("radius", "<f8"),
                ("position", "<f8", (dim,)),
            ]
        )
        if self._record_dtype.itemsize != self._record_size:  # pragma: no cover
            raise AssertionError(
                "record dtype does not match the struct layout: "
                f"{self._record_dtype.itemsize} != {self._record_size}"
            )

    @property
    def dim(self) -> int:
        """Dimensionality of the encoded position vectors."""
        return self._dim

    @property
    def record_size(self) -> int:
        """Encoded size of one record in bytes."""
        return self._record_size

    @property
    def record_dtype(self) -> np.dtype:
        """Packed numpy structured dtype of one encoded record.

        Byte-compatible with :meth:`encode`'s output; bulk readers (the
        B+-tree's ``range_search_many``) use it to view whole pages of
        records without per-record unpacking.
        """
        return self._record_dtype

    def encode(self, record: ViTriRecord) -> bytes:
        """Serialise a record to ``record_size`` bytes."""
        position = check_vector(record.position, "position", dim=self._dim)
        radius = check_non_negative(record.radius, "radius")
        for name, value in (
            ("video_id", record.video_id),
            ("vitri_id", record.vitri_id),
            ("count", record.count),
        ):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int")
            if value < 0 or value > 0xFFFFFFFF:
                raise ValueError(f"{name} must fit in an unsigned 32-bit int")
        header = self._HEADER.pack(
            int(record.video_id), int(record.vitri_id), int(record.count), radius
        )
        return header + position.astype("<f8").tobytes()

    def decode(self, payload: bytes) -> ViTriRecord:
        """Deserialise ``record_size`` bytes back into a record."""
        if len(payload) != self._record_size:
            raise ValueError(
                f"payload must be {self._record_size} bytes, got {len(payload)}"
            )
        video_id, vitri_id, count, radius = self._HEADER.unpack_from(payload, 0)
        position = np.frombuffer(
            payload, dtype="<f8", count=self._dim, offset=self._HEADER.size
        ).copy()
        return ViTriRecord(
            video_id=video_id,
            vitri_id=vitri_id,
            count=count,
            radius=radius,
            position=position,
        )

    def columns_from_struct(
        self,
        records: np.ndarray,
        *,
        counters: CostCounters | None = None,
    ) -> ViTriColumns:
        """Convert a :attr:`record_dtype` struct array to owned columns.

        The returned columns are contiguous copies, so the source array
        may be a transient view into a buffer-pool page.  Decode cost is
        charged per logical record (``records_decoded``), exactly like
        the per-record :meth:`decode` path charges it.
        """
        if records.dtype != self._record_dtype:
            raise ValueError(
                f"records dtype {records.dtype} != codec record dtype"
            )
        if counters is not None:
            counters.records_decoded += int(records.shape[0])
        return ViTriColumns(
            video_ids=records["video_id"].astype(np.int64),
            vitri_ids=records["vitri_id"].astype(np.int64),
            counts=records["count"].astype(np.int64),
            radii=records["radius"].astype(np.float64),
            positions=records["position"].astype(np.float64),
        )

    def decode_columns(
        self,
        buffer: bytes | bytearray | memoryview,
        count: int,
        *,
        offset: int = 0,
        counters: CostCounters | None = None,
    ) -> ViTriColumns:
        """Decode ``count`` consecutive records with **one** buffer view.

        This is the page-batch decode path: a single ``np.frombuffer``
        over the records region replaces ``count`` per-record views (the
        per-record pattern re-created a dtype view for every record —
        ~29% of warm query time before this existed).  A test asserts the
        one-view property by counting ``np.frombuffer`` calls.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        end = offset + count * self._record_size
        if offset < 0 or end > len(buffer):
            raise ValueError(
                f"{count} records at offset {offset} need {end} bytes, "
                f"buffer has {len(buffer)}"
            )
        view = np.frombuffer(
            buffer, dtype=self._record_dtype, count=count, offset=offset
        )
        return self.columns_from_struct(view, counters=counters)

    def decode_batch(
        self,
        payloads: "list[bytes]",
        *,
        counters: CostCounters | None = None,
    ) -> ViTriColumns:
        """Decode many single-record payloads as one columnar batch.

        Accepts the output shape of :meth:`~repro.storage.heap_file.
        HeapFile.read_batch`; charges ``records_decoded`` per record via
        :meth:`columns_from_struct`.
        """
        for payload in payloads:
            if len(payload) != self._record_size:
                raise ValueError(
                    f"payloads must be {self._record_size} bytes each, "
                    f"got {len(payload)}"
                )
        return self.decode_columns(
            b"".join(payloads), len(payloads), counters=counters
        )
