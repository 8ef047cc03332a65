"""Wire protocol of the shard service: framing, codecs, typed errors.

Framing
-------
Every message is one frame::

    +-------+------+----------------+---------+
    | magic | type | payload length | payload |
    |  2 B  | 1 B  |  4 B (big-e.)  |   ...   |
    +-------+------+----------------+---------+

The magic is ``b"VT"`` (ViTri); the type byte is one of
:data:`FRAME_REQUEST`, :data:`FRAME_RESPONSE`, :data:`FRAME_ERROR`.  The
length covers the payload only and is validated against
:data:`MAX_FRAME_BYTES` **when the header is parsed, before any payload
allocation** — a malformed or hostile length prefix can never make a
peer allocate an unbounded buffer.  Anything else wrong with the header
(bad magic, unknown type) raises :class:`ProtocolError` immediately;
framing cannot be trusted past a corrupt header, so peers drop the
connection rather than resynchronise.

Payloads
--------
A request payload is a 4-byte JSON-header length, the JSON header
(``{"op": ..., "params": {...}}``), then an optional binary
:class:`~repro.core.vitri.VideoSummary` blob.  Summaries travel in a
fixed binary layout (:func:`encode_summary` / :func:`decode_summary`)
whose positions, radii and counts round-trip bit-exactly — the network
path must produce the same similarity scores as an in-process call.
Response and error payloads are plain JSON; scores survive JSON because
Python serialises floats as their shortest exact ``repr``.

Deadlines never travel as absolute times (clocks are per-process, see
:mod:`repro.utils.clock`): a request carries the **remaining budget in
seconds** and the server rebuilds a
:class:`~repro.utils.clock.Deadline` against its own clock on the
connection thread that runs the query.

Errors
------
A server maps an exception to ``{"error_type": <class name>,
"message": ...}``; :func:`payload_to_exception` rebuilds the typed
exception on the client so the resilience layer's ``retryable`` test
sees the same classes it would in process.  Unknown types degrade to
:class:`RemoteShardError`.  The front door's load-shedding errors
(:class:`ServiceOverloaded`, :class:`RateLimited`,
:class:`ServiceDraining`) are defined here because they are part of the
wire contract.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.core.index import QueryStats
from repro.core.vitri import ViTri, VideoSummary
from repro.shard.resilience import InjectedShardError, ShardDown, ShardTimeout
from repro.utils.counters import CostCounters

__all__ = [
    "FRAME_ERROR",
    "FRAME_HEADER_BYTES",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RateLimited",
    "RemoteShardError",
    "ServiceDraining",
    "ServiceOverloaded",
    "counters_from_wire",
    "counters_to_wire",
    "decode_error",
    "decode_frame_header",
    "decode_request",
    "decode_response",
    "decode_summary",
    "encode_error",
    "encode_frame",
    "encode_request",
    "encode_response",
    "encode_summary",
    "exception_to_payload",
    "payload_to_exception",
    "stats_from_wire",
    "stats_to_wire",
]

MAGIC = b"VT"
FRAME_REQUEST = 0x01
FRAME_RESPONSE = 0x02
FRAME_ERROR = 0x03
_FRAME_TYPES = (FRAME_REQUEST, FRAME_RESPONSE, FRAME_ERROR)

_HEADER = struct.Struct("!2sBI")
FRAME_HEADER_BYTES = _HEADER.size

# Hard cap on any single payload.  Checked against the header's length
# field before the payload is read or allocated; generous enough for a
# response of tens of thousands of rankings, small enough that a garbage
# length prefix cannot be used to exhaust memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_SUMMARY_HEADER = struct.Struct("<qqII")  # video_id, num_frames, vitris, dim
_VITRI_TAIL = struct.Struct("<dq")  # radius, count


class ProtocolError(ValueError):
    """The byte stream violates the framing contract; drop the peer."""


class RemoteShardError(RuntimeError):
    """A server-side error whose type the client cannot reconstruct."""


class ServiceOverloaded(RuntimeError):
    """The front door's admission queue is full; retry later."""


class RateLimited(RuntimeError):
    """The front door's token bucket is empty; slow down."""


class ServiceDraining(ConnectionError):
    """The peer is draining and not admitting new queries.

    Subclasses :class:`ConnectionError` deliberately: a draining shard
    is a *transient* connectivity condition (its replacement is coming
    up), so the resilience layer's default ``retryable`` set — which
    already includes ``OSError`` — retries it without special-casing,
    and a restart under live traffic degrades instead of erroring.
    """


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete frame for ``payload``."""
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type:#x}")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _HEADER.pack(MAGIC, frame_type, len(payload)) + payload


def decode_frame_header(header: bytes) -> tuple[int, int]:
    """``(frame_type, payload_length)`` from one 7-byte header.

    Validates magic, type and length cap here — *before* the caller
    reads or allocates the payload — so a hostile length field can
    never trigger an unbounded allocation.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise ProtocolError(
            f"frame header must be {FRAME_HEADER_BYTES} bytes, "
            f"got {len(header)}"
        )
    magic, frame_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type:#x}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame claims {length} payload bytes, above the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return frame_type, length


# ---------------------------------------------------------------------------
# Summary codec (bit-exact)
# ---------------------------------------------------------------------------
def encode_summary(summary: VideoSummary) -> bytes:
    """Fixed binary layout of one summary; round-trips bit-exactly."""
    if not isinstance(summary, VideoSummary):
        raise TypeError("summary must be a VideoSummary")
    parts = [
        _SUMMARY_HEADER.pack(
            summary.video_id,
            summary.num_frames,
            len(summary.vitris),
            summary.dim,
        )
    ]
    for vitri in summary.vitris:
        position = np.ascontiguousarray(vitri.position, dtype="<f8")
        parts.append(position.tobytes())
        parts.append(_VITRI_TAIL.pack(vitri.radius, vitri.count))
    return b"".join(parts)


def decode_summary(blob: bytes) -> VideoSummary:
    """Rebuild a summary encoded by :func:`encode_summary`."""
    if len(blob) < _SUMMARY_HEADER.size:
        raise ProtocolError(
            f"summary blob of {len(blob)} bytes is shorter than its "
            f"{_SUMMARY_HEADER.size}-byte header"
        )
    video_id, num_frames, num_vitris, dim = _SUMMARY_HEADER.unpack_from(blob)
    stride = dim * 8 + _VITRI_TAIL.size
    expected = _SUMMARY_HEADER.size + num_vitris * stride
    if num_vitris < 1 or dim < 1 or len(blob) != expected:
        raise ProtocolError(
            f"summary blob of {len(blob)} bytes does not match its header "
            f"({num_vitris} ViTris of dim {dim} need {expected} bytes)"
        )
    vitris = []
    offset = _SUMMARY_HEADER.size
    for _ in range(num_vitris):
        position = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset)
        offset += dim * 8
        radius, count = _VITRI_TAIL.unpack_from(blob, offset)
        offset += _VITRI_TAIL.size
        vitris.append(ViTri(position.copy(), radius, count))
    return VideoSummary(video_id, tuple(vitris), num_frames)


# ---------------------------------------------------------------------------
# Request / response / error codecs
# ---------------------------------------------------------------------------
def encode_request(
    op: str, params: dict, summary: VideoSummary | None = None
) -> bytes:
    """Request payload: JSON-header length, JSON header, summary blob."""
    header = json.dumps({"op": op, "params": params}).encode("utf-8")
    blob = b"" if summary is None else encode_summary(summary)
    return struct.pack("!I", len(header)) + header + blob


def decode_request(payload: bytes) -> tuple[str, dict, VideoSummary | None]:
    """``(op, params, summary-or-None)`` from a request payload."""
    if len(payload) < 4:
        raise ProtocolError("request payload too short for its header length")
    (header_len,) = struct.unpack_from("!I", payload)
    if 4 + header_len > len(payload):
        raise ProtocolError(
            f"request claims a {header_len}-byte JSON header but only "
            f"{len(payload) - 4} payload bytes follow"
        )
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
        op = header["op"]
        params = header["params"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed request header: {exc}") from exc
    if not isinstance(op, str) or not isinstance(params, dict):
        raise ProtocolError("request header must carry a str op and dict params")
    blob = payload[4 + header_len :]
    summary = decode_summary(blob) if blob else None
    return op, params, summary


def encode_response(body: dict) -> bytes:
    """Response payload (plain JSON)."""
    return json.dumps(body).encode("utf-8")


def decode_response(payload: bytes) -> dict:
    """Parse a response payload."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed response payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError("response payload must be a JSON object")
    return body


# Exception classes a client may legitimately see from a server; keyed
# by class name so both sides agree without importing each other.
_ERROR_TYPES: dict[str, type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        ShardTimeout,
        ShardDown,
        InjectedShardError,
        ServiceOverloaded,
        RateLimited,
        ServiceDraining,
        ProtocolError,
        ValueError,
        TypeError,
        KeyError,
        RuntimeError,
    )
}


def exception_to_payload(exc: BaseException) -> dict:
    """JSON error body for one server-side exception."""
    return {"error_type": type(exc).__name__, "message": str(exc)}


def payload_to_exception(body: dict) -> BaseException:
    """Rebuild the typed exception a server reported.

    Known types come back as themselves — so the client's
    :class:`~repro.shard.resilience.FaultPolicy` retryable test treats a
    remote :class:`ShardTimeout` exactly like a local one.  Unknown
    types degrade to :class:`RemoteShardError`.
    """
    name = str(body.get("error_type", ""))
    message = str(body.get("message", ""))
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return RemoteShardError(f"{name or 'unknown error'}: {message}")
    return cls(message)


def encode_error(exc: BaseException) -> bytes:
    """Error payload for one exception."""
    return json.dumps(exception_to_payload(exc)).encode("utf-8")


def decode_error(payload: bytes) -> dict:
    """Parse an error payload."""
    return decode_response(payload)


# ---------------------------------------------------------------------------
# Counters / stats codecs
# ---------------------------------------------------------------------------
_COUNTER_FIELDS = (
    "page_reads",
    "page_requests",
    "page_writes",
    "distance_computations",
    "similarity_computations",
    "btree_node_visits",
    "records_scanned",
    "records_decoded",
)


def counters_to_wire(counters: CostCounters) -> dict:
    """JSON form of one cost bundle (named fields plus extras)."""
    return counters.snapshot()


def counters_from_wire(body: dict) -> CostCounters:
    """Rebuild a bundle from :func:`counters_to_wire` output.

    Known fields land on their attributes; anything else (stage timers,
    range-search tallies) goes back into ``extra`` — the same shape
    :meth:`~repro.utils.counters.CostCounters.snapshot` flattened.
    """
    counters = CostCounters()
    for key, value in body.items():
        if key in _COUNTER_FIELDS:
            setattr(counters, key, value)
        else:
            counters.extra[key] = value
    return counters


def stats_to_wire(stats: QueryStats) -> dict:
    """JSON form of one query's stats."""
    return {
        "page_requests": stats.page_requests,
        "physical_reads": stats.physical_reads,
        "node_visits": stats.node_visits,
        "similarity_computations": stats.similarity_computations,
        "candidates": stats.candidates,
        "ranges": stats.ranges,
        "wall_time": stats.wall_time,
    }


def stats_from_wire(body: dict) -> QueryStats:
    """Rebuild :class:`QueryStats` from :func:`stats_to_wire` output."""
    return QueryStats(
        page_requests=int(body["page_requests"]),
        physical_reads=int(body["physical_reads"]),
        node_visits=int(body["node_visits"]),
        similarity_computations=int(body["similarity_computations"]),
        candidates=int(body["candidates"]),
        ranges=int(body["ranges"]),
        wall_time=float(body["wall_time"]),
    )
