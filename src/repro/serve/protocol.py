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
path must produce the same similarity scores as an in-process call.  The
decoder reads a blob's ViTris as one block and checks each invariant
once over its columns.

Both knn replies — a shard server's leg reply and the front door's
answer — travel in a fixed binary layout: a zero tag byte (a JSON
payload starts with ``{``), a section-flag byte, the result count and
the query stats at fixed width, the ranking as int64 ids and float64
score bytes (bit-exact), then fixed-width sections for a leg's counters
(with its content token and the counters' ``extra`` map as a short JSON
trailer, empty on a cache hit) or for the front door's scatter and
coverage.  :func:`decode_response` returns the same dict, with the same
Python types, that the reply's JSON would.  Every other response
(``status``, ``video_ids``, ...) and every error payload is plain JSON.

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
from repro.core.vitri import VideoSummary
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
    """Rebuild a summary encoded by :func:`encode_summary`.

    The ViTris are read as one ``(ViTris, dim + 2)`` block of 8-byte
    words (position, radius, count per row) and checked once over its
    columns (:meth:`~repro.core.vitri.VideoSummary.from_arrays`): a blob
    the per-ViTri constructors would reject is rejected the same way.
    """
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
    block = np.frombuffer(
        blob, dtype="<f8", offset=_SUMMARY_HEADER.size
    ).reshape(num_vitris, dim + 2)
    return VideoSummary.from_arrays(
        video_id,
        block[:, :dim],
        block[:, dim],
        block[:, dim + 1].view("<i8"),
        num_frames,
    )


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
    """Response payload: a knn reply in its fixed binary layout (see
    :data:`_KNN_SHAPES`), anything else as plain JSON."""
    sections = _KNN_SHAPES.get(frozenset(body))
    if sections is None:
        return json.dumps(body).encode("utf-8")
    return _encode_knn(body, sections)


def decode_response(payload: bytes) -> dict:
    """Parse a response payload (either form) into the reply's dict."""
    if payload[:1] == _KNN_TAG:
        return _decode_knn(payload)
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


# ---------------------------------------------------------------------------
# Knn replies (fixed binary layout)
# ---------------------------------------------------------------------------
#: First byte of a binary knn reply (a JSON payload starts with ``{``).
_KNN_TAG = b"\x00"

# Bits of the head's second byte: which sections follow the ranking,
# and two boolean fields.
_LEG = 0x01  # counters, pruned, content_token: a shard server's reply
_SCATTERED = 0x02  # scatter: the front door's reply
_COVERED = 0x04  # coverage
_PRUNED = 0x08  # the leg's pruned flag
_COMPLETE = 0x10  # coverage["complete"]

#: The knn replies' key sets, each with the sections it carries.
_KNN_SHAPES = {
    frozenset(
        ("videos", "scores", "stats", "counters", "pruned", "content_token")
    ): _LEG,
    frozenset(("videos", "scores", "stats", "scatter")): _SCATTERED,
    frozenset(
        ("videos", "scores", "stats", "scatter", "coverage")
    ): _SCATTERED | _COVERED,
}

_STATS_FIELDS = (
    "page_requests",
    "physical_reads",
    "node_visits",
    "similarity_computations",
    "candidates",
    "ranges",
    "wall_time",
)
_COVERAGE_LISTS = (
    "shards_answered",
    "shards_pruned",
    "shards_failed",
    "shards_timed_out",
    "shards_tripped",
)

# tag, sections, result count, stats (six counts, then wall_time); the
# int64 ids and float64 scores of the ranking follow.
_KNN_HEAD = struct.Struct("<cBI6qd")
# The named counter fields, the content token's byte length (-1: None)
# and the JSON trailer's byte length (the counters' extras; 0: none).
_LEG_HEAD = struct.Struct("<8qiI")
_SCATTER_HEAD = struct.Struct("<qII")  # shards_total, queried, pruned
_COVERAGE_HEAD = struct.Struct("<5I")  # list lengths, _COVERAGE_LISTS order


def _encode_knn(body: dict, sections: int) -> bytes:
    """One knn reply in the binary layout; scores travel as their
    float64 bytes, so they round-trip bit for bit."""
    videos = body["videos"]
    count = len(videos)
    stats = body["stats"]
    parts = [
        b"",  # the head, once every section flag is known
        struct.pack(f"<{count}q{count}d", *videos, *body["scores"]),
    ]
    if sections & _LEG:
        if body["pruned"]:
            sections |= _PRUNED
        counters = body["counters"]
        token = body["content_token"]
        token_bytes = b"" if token is None else token.encode("utf-8")
        extra = {
            key: value
            for key, value in counters.items()
            if key not in _COUNTER_FIELDS
        }
        trailer = json.dumps(extra).encode("utf-8") if extra else b""
        parts += (
            _LEG_HEAD.pack(
                *[counters[name] for name in _COUNTER_FIELDS],
                -1 if token is None else len(token_bytes),
                len(trailer),
            ),
            token_bytes,
            trailer,
        )
    if sections & _SCATTERED:
        scatter = body["scatter"]
        queried = scatter["shards_queried"]
        pruned = scatter["shards_pruned"]
        parts += (
            _SCATTER_HEAD.pack(scatter["shards_total"], len(queried), len(pruned)),
            _pack_ids(queried, pruned),
        )
    if sections & _COVERED:
        coverage = body["coverage"]
        if coverage["complete"]:
            sections |= _COMPLETE
        lists = [coverage[name] for name in _COVERAGE_LISTS]
        parts += (
            _COVERAGE_HEAD.pack(*[len(ids) for ids in lists]),
            _pack_ids(*lists),
        )
    parts[0] = _KNN_HEAD.pack(
        _KNN_TAG, sections, count, *[stats[name] for name in _STATS_FIELDS]
    )
    return b"".join(parts)


def _pack_ids(*lists) -> bytes:
    ids = [shard for shards in lists for shard in shards]
    return struct.pack(f"<{len(ids)}q", *ids)


def _decode_knn(payload: bytes) -> dict:
    """The dict :func:`_encode_knn` was given, with the same types."""
    try:
        _, sections, count, *stats = _KNN_HEAD.unpack_from(payload)
        offset = _KNN_HEAD.size
        ranking = struct.unpack_from(f"<{count}q{count}d", payload, offset)
        offset += 16 * count
        body = {
            "videos": list(ranking[:count]),
            "scores": list(ranking[count:]),
            "stats": dict(zip(_STATS_FIELDS, stats)),
        }
        if sections & _LEG:
            *named, token_length, trailer_length = _LEG_HEAD.unpack_from(
                payload, offset
            )
            offset += _LEG_HEAD.size
            counters = dict(zip(_COUNTER_FIELDS, named))
            token = None
            if token_length >= 0:
                token = payload[offset : offset + token_length].decode("utf-8")
                offset += token_length
            if trailer_length:
                counters.update(
                    json.loads(payload[offset : offset + trailer_length])
                )
                offset += trailer_length
            body["counters"] = counters
            body["pruned"] = bool(sections & _PRUNED)
            body["content_token"] = token
        if sections & _SCATTERED:
            total, queried, pruned = _SCATTER_HEAD.unpack_from(payload, offset)
            offset += _SCATTER_HEAD.size
            ids, offset = _unpack_ids(payload, offset, (queried, pruned))
            body["scatter"] = {
                "shards_total": total,
                "shards_queried": ids[0],
                "shards_pruned": ids[1],
            }
        if sections & _COVERED:
            lengths = _COVERAGE_HEAD.unpack_from(payload, offset)
            offset += _COVERAGE_HEAD.size
            ids, offset = _unpack_ids(payload, offset, lengths)
            body["coverage"] = {
                "complete": bool(sections & _COMPLETE),
                **dict(zip(_COVERAGE_LISTS, ids)),
            }
    except (struct.error, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed knn reply: {exc}") from exc
    if offset != len(payload):
        raise ProtocolError(
            f"knn reply of {len(payload)} bytes has {len(payload) - offset} "
            "bytes its layout does not account for"
        )
    return body


def _unpack_ids(payload: bytes, offset: int, lengths) -> tuple[list, int]:
    """``lengths`` consecutive id lists of int64 at ``offset``, and the
    offset after them."""
    ids = struct.unpack_from(f"<{sum(lengths)}q", payload, offset)
    lists, start = [], 0
    for length in lengths:
        lists.append(list(ids[start : start + length]))
        start += length
    return lists, offset + 8 * start
