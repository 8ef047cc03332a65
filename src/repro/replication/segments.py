"""Sealed-segment wire format: framed, fingerprinted WAL transactions.

A segment is one committed transaction exactly as the primary's
write-ahead log made it durable — the raw PAGE/META/COMMIT record bytes
the WAL's segment sink received — wrapped in a frame that pins *where
the transaction belongs in the replication stream*:

``seq``
    The segment's position.  Segments apply in sequence with no gaps; a
    replica seeing ``seq != applied_seq + 1`` has missed (or re-received)
    traffic and must re-bootstrap rather than guess.
``base_token`` / ``after_token``
    The index content tokens (:meth:`VitriIndex.content_token`) of the
    primary's state immediately before and after the transaction.
    Because a replica is a byte-identical copy, its own token must equal
    ``base_token`` before the apply and ``after_token`` after it — the
    end-to-end check that catches any divergence the per-record CRCs
    cannot (a valid segment applied to the wrong base, a reordered
    stream, an apply that half-failed).

The frame itself carries a CRC32 over header *and* payload, so transport
corruption is detected before the stricter per-record validation in
:func:`repro.storage.wal.scan_transaction` even runs.  Any defect raises
:class:`SegmentFrameError`; decoding never returns a best-effort prefix.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

__all__ = [
    "EMPTY_TOKEN",
    "SealedSegment",
    "SegmentFrameError",
    "decode_segment",
    "encode_segment",
]

#: Content token of a database with no built index (tokens are 32-char
#: blake2b-16 hex digests; the zero digest is unreachable in practice).
EMPTY_TOKEN = "0" * 32

_MAGIC = b"VSEG"
_VERSION = 1
# magic, version, seq, base token (16 raw bytes), after token, payload len
_HEADER = struct.Struct("<4sBQ16s16sI")
_CRC = struct.Struct("<I")
_TOKEN_HEX_LEN = 32


class SegmentFrameError(ValueError):
    """A shipped segment's frame failed validation."""


def _token_bytes(token: str, name: str) -> bytes:
    if not isinstance(token, str) or len(token) != _TOKEN_HEX_LEN:
        raise ValueError(
            f"{name} must be a {_TOKEN_HEX_LEN}-char hex token, got {token!r}"
        )
    try:
        return bytes.fromhex(token)
    except ValueError as exc:
        raise ValueError(f"{name} is not valid hex: {token!r}") from exc


@dataclass(frozen=True)
class SealedSegment:
    """One committed transaction plus its position in the stream.

    ``payload`` is the transaction's raw WAL record bytes — what
    :func:`repro.storage.wal.scan_transaction` parses.
    """

    seq: int
    base_token: str
    after_token: str
    payload: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.seq, int) or isinstance(self.seq, bool):
            raise TypeError("seq must be an int")
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")
        _token_bytes(self.base_token, "base_token")
        _token_bytes(self.after_token, "after_token")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise TypeError("payload must be bytes")


def encode_segment(segment: SealedSegment) -> bytes:
    """Frame a sealed segment for shipping."""
    if not isinstance(segment, SealedSegment):
        raise TypeError("segment must be a SealedSegment")
    body = (
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            segment.seq,
            _token_bytes(segment.base_token, "base_token"),
            _token_bytes(segment.after_token, "after_token"),
            len(segment.payload),
        )
        + bytes(segment.payload)
    )
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_segment(raw: bytes) -> SealedSegment:
    """Parse one framed segment, validating every field.

    Raises :class:`SegmentFrameError` on any defect — wrong magic or
    version, truncation, trailing bytes, or CRC mismatch.
    """
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError("raw must be bytes")
    raw = bytes(raw)
    if len(raw) < _HEADER.size + _CRC.size:
        raise SegmentFrameError(
            f"segment is {len(raw)} bytes, shorter than the minimal frame"
        )
    magic, version, seq, base_raw, after_raw, length = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise SegmentFrameError(f"bad segment magic {magic!r}")
    if version != _VERSION:
        raise SegmentFrameError(f"unsupported segment version {version}")
    end = _HEADER.size + length
    if end + _CRC.size != len(raw):
        raise SegmentFrameError(
            f"segment length mismatch: header says {length} payload bytes, "
            f"frame holds {len(raw) - _HEADER.size - _CRC.size}"
        )
    body = raw[:end]
    (stored,) = _CRC.unpack_from(raw, end)
    if stored != (zlib.crc32(body) & 0xFFFFFFFF):
        raise SegmentFrameError("segment checksum mismatch")
    return SealedSegment(
        seq=seq,
        base_token=base_raw.hex(),
        after_token=after_raw.hex(),
        payload=raw[_HEADER.size : end],
    )

