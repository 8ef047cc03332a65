"""Wire-protocol tests: framing fuzz, bit-exact codecs, typed errors.

The framing layer is the only part of the system that reads untrusted
bytes, so it gets the adversarial treatment: truncated frames, hostile
length prefixes, garbage magic, mid-stream corruption.  The invariant
under attack is simple — a malformed length field must never cause an
allocation beyond :data:`~repro.serve.protocol.MAX_FRAME_BYTES`, and a
framing error must end the connection rather than resynchronise on
garbage.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.vitri import ViTri, VideoSummary
from repro.serve.protocol import (
    FRAME_ERROR,
    FRAME_HEADER_BYTES,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    MAGIC,
    MAX_FRAME_BYTES,
    ProtocolError,
    RateLimited,
    RemoteShardError,
    ServiceDraining,
    ServiceOverloaded,
    counters_from_wire,
    counters_to_wire,
    decode_error,
    decode_frame_header,
    decode_request,
    decode_response,
    decode_summary,
    encode_error,
    encode_frame,
    encode_request,
    encode_response,
    encode_summary,
    payload_to_exception,
)
from repro.serve.transport import read_frame
from repro.shard.resilience import InjectedShardError, ShardDown, ShardTimeout
from repro.utils.counters import CostCounters
from repro.utils.rng import ensure_rng


def make_summary(seed: int = 7, vitris: int = 3, dim: int = 5) -> VideoSummary:
    rng = ensure_rng(seed)
    parts = tuple(
        ViTri(
            rng.normal(size=dim),
            float(rng.uniform(0.01, 2.0)),
            int(rng.integers(1, 50)),
        )
        for _ in range(vitris)
    )
    frames = sum(vitri.count for vitri in parts)
    return VideoSummary(int(rng.integers(0, 1000)), parts, num_frames=frames)


@pytest.fixture()
def pipe():
    """A connected socket pair: bytes sent on ``writer`` reach ``reader``."""
    reader, writer = socket.socketpair()
    reader.settimeout(5.0)
    yield reader, writer
    reader.close()
    writer.close()


class TestFraming:
    """:func:`~repro.serve.transport.read_frame`, the one frame reader,
    over a socket pair.  The server-level cases (garbage, oversized
    prefix and disconnects against a live server) are in
    ``test_serve_server.py``."""

    def test_round_trip_each_type(self, pipe):
        reader, writer = pipe
        for frame_type in (FRAME_REQUEST, FRAME_RESPONSE, FRAME_ERROR):
            writer.sendall(encode_frame(frame_type, b"payload"))
            assert read_frame(reader) == (frame_type, b"payload")

    def test_byte_by_byte_feed(self, pipe):
        reader, writer = pipe
        frame = encode_frame(FRAME_REQUEST, b"drip-fed payload")

        def drip():
            for position in range(len(frame)):
                writer.sendall(frame[position : position + 1])
                time.sleep(0.001)

        feeder = threading.Thread(target=drip)
        feeder.start()
        try:
            assert read_frame(reader) == (FRAME_REQUEST, b"drip-fed payload")
        finally:
            feeder.join(5.0)
        assert not feeder.is_alive()

    def test_two_frames_in_one_feed(self, pipe):
        reader, writer = pipe
        writer.sendall(
            encode_frame(FRAME_REQUEST, b"one")
            + encode_frame(FRAME_RESPONSE, b"two")
        )
        assert read_frame(reader) == (FRAME_REQUEST, b"one")
        assert read_frame(reader) == (FRAME_RESPONSE, b"two")

    def test_oversized_length_prefix_rejected_before_allocation(
        self, pipe, monkeypatch
    ):
        # A header claiming a 4 GiB payload must die at header-parse
        # time: read_frame may never allocate (or wait for) the payload.
        import repro.serve.transport as transport

        allocations = []
        real_bytearray = bytearray

        def counting_bytearray(size=0):
            allocations.append(size)
            return real_bytearray(size)

        monkeypatch.setattr(
            transport, "bytearray", counting_bytearray, raising=False
        )
        reader, writer = pipe
        writer.sendall(struct.pack("!2sBI", MAGIC, FRAME_REQUEST, 2**32 - 1))
        with pytest.raises(ProtocolError, match="cap"):
            read_frame(reader)
        assert allocations == [FRAME_HEADER_BYTES]

    def test_truncated_frame_stays_pending(self, pipe):
        reader, writer = pipe
        frame = encode_frame(FRAME_REQUEST, b"x" * 100)
        frames = []
        waiter = threading.Thread(
            target=lambda: frames.append(read_frame(reader))
        )
        waiter.start()
        writer.sendall(frame[:-1])
        waiter.join(0.2)
        assert waiter.is_alive() and frames == []  # one byte short
        writer.sendall(frame[-1:])
        waiter.join(5.0)
        assert not waiter.is_alive()
        assert frames == [(FRAME_REQUEST, b"x" * 100)]

    def test_just_over_cap_rejected_just_under_accepted(self):
        over = struct.pack("!2sBI", MAGIC, FRAME_REQUEST, MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            decode_frame_header(over)
        at_cap = struct.pack("!2sBI", MAGIC, FRAME_REQUEST, MAX_FRAME_BYTES)
        assert decode_frame_header(at_cap) == (FRAME_REQUEST, MAX_FRAME_BYTES)

    def test_bad_magic_rejected(self):
        header = struct.pack("!2sBI", b"XX", FRAME_REQUEST, 4)
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame_header(header)

    def test_unknown_frame_type_rejected(self):
        header = struct.pack("!2sBI", MAGIC, 0x7F, 4)
        with pytest.raises(ProtocolError, match="type"):
            decode_frame_header(header)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame(FRAME_REQUEST, b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_random_garbage_never_yields_frames(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            blob = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
            reader, writer = socket.socketpair()
            with reader, writer:
                writer.sendall(blob)
                writer.close()
                # Rejected at the header, or a (bounded) payload that
                # never arrives: garbage can never conjure a frame.
                with pytest.raises((ProtocolError, ConnectionError)):
                    read_frame(reader)


class TestSummaryCodec:
    def test_bit_exact_round_trip(self):
        summary = make_summary()
        rebuilt = decode_summary(encode_summary(summary))
        assert rebuilt.video_id == summary.video_id
        assert rebuilt.num_frames == summary.num_frames
        assert len(rebuilt.vitris) == len(summary.vitris)
        for mine, theirs in zip(summary.vitris, rebuilt.vitris):
            # Bitwise, not approx: the whole point of the binary codec.
            assert mine.position.tobytes() == theirs.position.tobytes()
            assert repr(mine.radius) == repr(theirs.radius)
            assert mine.count == theirs.count

    def test_truncated_blob_rejected(self):
        blob = encode_summary(make_summary())
        with pytest.raises(ProtocolError, match="match its header"):
            decode_summary(blob[:-1])

    def test_header_shorter_than_minimum_rejected(self):
        with pytest.raises(ProtocolError, match="shorter"):
            decode_summary(b"\x00" * 4)

    def test_header_claiming_extra_vitris_rejected(self):
        # Flip the ViTri count up: the byte count no longer matches, so
        # the decoder must refuse rather than read out of bounds.
        summary = make_summary(vitris=2)
        blob = bytearray(encode_summary(summary))
        struct.pack_into(
            "<qqII", blob, 0, summary.video_id, summary.num_frames, 9, 5
        )
        with pytest.raises(ProtocolError):
            decode_summary(bytes(blob))


def per_vitri_decode(blob: bytes) -> VideoSummary:
    """The decoder before the one-pass block decode: one ViTri (and
    its constructor's checks) at a time.  The table below holds the
    block decoder to the same verdicts."""
    header = struct.Struct("<qqII")
    tail = struct.Struct("<dq")
    if len(blob) < header.size:
        raise ProtocolError("short")
    video_id, num_frames, num_vitris, dim = header.unpack_from(blob)
    if num_vitris < 1 or dim < 1 or len(blob) != (
        header.size + num_vitris * (dim * 8 + tail.size)
    ):
        raise ProtocolError("mismatch")
    vitris, offset = [], header.size
    for _ in range(num_vitris):
        position = np.frombuffer(blob, dtype="<f8", count=dim, offset=offset)
        radius, count = tail.unpack_from(blob, offset + dim * 8)
        offset += dim * 8 + tail.size
        vitris.append(ViTri(position.copy(), radius, count))
    return VideoSummary(video_id, tuple(vitris), num_frames)


def _patched(at: int, fmt: str, value):
    """A two-ViTri, dim-5 summary blob with one field overwritten;
    ``at`` is ``(vitri, field)`` encoded as an offset into the blob."""
    blob = bytearray(encode_summary(make_summary(vitris=2, dim=5)))
    struct.pack_into(fmt, blob, at, value)
    return bytes(blob)


# Field offsets in a two-ViTri, dim-5 blob: a 24-byte header, then per
# ViTri 5 position doubles, the radius double and the count int64.
_POSITION = [24 + 56 * i for i in range(2)]
_RADIUS = [24 + 56 * i + 40 for i in range(2)]
_COUNT = [24 + 56 * i + 48 for i in range(2)]
_GOOD = encode_summary(make_summary(vitris=2, dim=5))

MALFORMED_SUMMARIES = {
    "nan position": _patched(_POSITION[0] + 16, "<d", float("nan")),
    "inf position": _patched(_POSITION[1], "<d", float("inf")),
    "-inf position": _patched(_POSITION[1] + 32, "<d", -float("inf")),
    "negative radius": _patched(_RADIUS[1], "<d", -0.5),
    "nan radius": _patched(_RADIUS[0], "<d", float("nan")),
    "inf radius": _patched(_RADIUS[0], "<d", float("inf")),
    "count 0": _patched(_COUNT[0], "<q", 0),
    "negative count": _patched(_COUNT[1], "<q", -3),
    "counts do not sum to num_frames": _patched(8, "<q", 10**6),
    "negative num_frames": _patched(8, "<q", -1),
    "counts that wrap int64": b"".join(
        [
            struct.pack("<qqII", 1, 5, 4, 1),
            *(
                struct.pack("<ddq", 0.0, 0.5, count)
                for count in (2**62, 2**62, 2**62, 2**62 + 5)
            ),
        ]
    ),
    "truncated blob": _GOOD[:-1],
    "trailing bytes": _GOOD + b"\x00",
    "header only": _GOOD[:24],
}


class TestSummaryBlockDecode:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SUMMARIES))
    def test_malformed_blob_rejected_as_before(self, case):
        blob = MALFORMED_SUMMARIES[case]
        with pytest.raises(Exception) as before:
            per_vitri_decode(blob)
        with pytest.raises(Exception) as now:
            decode_summary(blob)
        assert type(now.value) is type(before.value)

    @pytest.mark.parametrize(
        "blob",
        [
            _GOOD,
            _patched(8, "<q", 0),  # num_frames 0: the counts' sum stands in
            _patched(_RADIUS[0], "<d", -0.0),
            _patched(_RADIUS[1], "<d", 0.0),
            _patched(_POSITION[0], "<d", 5e-324),
        ],
    )
    def test_valid_blob_decodes_as_before(self, blob):
        want, got = per_vitri_decode(blob), decode_summary(blob)
        assert (got.video_id, got.num_frames) == (want.video_id, want.num_frames)
        for mine, theirs in zip(got.vitris, want.vitris):
            assert mine.position.tobytes() == theirs.position.tobytes()
            assert mine.position.dtype == theirs.position.dtype
            assert struct.pack("<d", mine.radius) == struct.pack(
                "<d", theirs.radius
            )
            assert type(mine.radius) is type(theirs.radius) is float
            assert type(mine.count) is type(theirs.count) is int
            assert mine.count == theirs.count
        assert encode_summary(got) == encode_summary(want)


def _stats(wall_time: float = 1.5e-05) -> dict:
    return {
        "page_requests": 7,
        "physical_reads": 1,
        "node_visits": 9,
        "similarity_computations": 40,
        "candidates": 12,
        "ranges": 3,
        "wall_time": wall_time,
    }


# -0.0, a subnormal, 1.0 and a tie: the scores a JSON or text path
# could bend.
EDGE_SCORES = [1.0, 1.0, 5e-324, -0.0]


def leg_reply(**changes) -> dict:
    body = {
        "videos": [4, 9, 2, 7],
        "scores": list(EDGE_SCORES),
        "stats": _stats(),
        "counters": dict(
            CostCounters(page_requests=7, page_reads=1).snapshot(),
            stage_io_s=2.5e-05,
            range_cache_hits=3,
        ),
        "pruned": False,
        "content_token": "0f" * 16,
    }
    body.update(changes)
    return body


def front_door_reply(**changes) -> dict:
    body = {
        "videos": [4, 9, 2, 7],
        "scores": list(EDGE_SCORES),
        "stats": _stats(),
        "scatter": {"shards_total": 3, "shards_queried": [0, 2], "shards_pruned": [1]},
        "coverage": {
            "complete": False,
            "shards_answered": [0],
            "shards_pruned": [1],
            "shards_failed": [2],
            "shards_timed_out": [],
            "shards_tripped": [],
        },
    }
    body.update(changes)
    return body


KNN_REPLIES = {
    "leg": leg_reply(),
    "pruned leg, no token, no extras": leg_reply(
        videos=[],
        scores=[],
        pruned=True,
        content_token=None,
        counters=CostCounters().snapshot(),
    ),
    "front door": front_door_reply(),
    "front door, memo hit": front_door_reply(
        stats=dict(_stats(), **{name: 0 for name in list(_stats())[:6]}),
        scatter={"shards_total": 3, "shards_queried": [], "shards_pruned": []},
    ),
    "front door without coverage": {
        key: value for key, value in front_door_reply().items() if key != "coverage"
    },
}


def _types(value):
    """The Python type tree of a decoded body."""
    if isinstance(value, dict):
        return {key: _types(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_types(item) for item in value]
    return type(value)


class TestBinaryKnnReply:
    @pytest.mark.parametrize("case", sorted(KNN_REPLIES))
    def test_round_trip_is_the_json_dict(self, case):
        body = KNN_REPLIES[case]
        payload = encode_response(body)
        assert payload[:1] == b"\x00"  # binary, not JSON
        got = decode_response(payload)
        want = json.loads(json.dumps(body))  # what the JSON reply gave
        assert got == want
        assert list(got) == list(want)
        assert _types(got) == _types(want)

    @pytest.mark.parametrize("case", sorted(KNN_REPLIES))
    def test_scores_round_trip_bit_for_bit(self, case):
        body = KNN_REPLIES[case]
        got = decode_response(encode_response(body))
        assert [struct.pack("<d", s) for s in got["scores"]] == [
            struct.pack("<d", s) for s in body["scores"]
        ]

    def test_leg_reply_rebuilds_the_same_result(self):
        from repro.serve.transport import RemoteShard

        body = leg_reply()
        want, got = CostCounters(), CostCounters()
        expected = RemoteShard._result(json.loads(json.dumps(body)), want)
        result = RemoteShard._result(decode_response(encode_response(body)), got)
        assert result == expected
        assert got.snapshot() == want.snapshot()

    def test_other_replies_stay_json(self):
        for body in ({"scores": [1.0]}, {"stats": {"admitted": 1}}, {}):
            payload = encode_response(body)
            assert payload[:1] == b"{"
            assert decode_response(payload) == body

    @pytest.mark.parametrize("case", sorted(KNN_REPLIES))
    def test_truncated_or_padded_reply_rejected(self, case):
        payload = encode_response(KNN_REPLIES[case])
        for bad in (payload[:-1], payload + b"\x00", payload[:5]):
            with pytest.raises(ProtocolError, match="knn reply"):
                decode_response(bad)

    def test_hostile_result_count_rejected_without_allocation(self):
        payload = bytearray(encode_response(leg_reply()))
        struct.pack_into("<I", payload, 2, 2**32 - 1)
        with pytest.raises(ProtocolError, match="knn reply"):
            decode_response(bytes(payload))


class TestRequestResponseCodec:
    def test_request_round_trip_with_summary(self):
        summary = make_summary()
        payload = encode_request("knn", {"k": 5, "budget": 0.25}, summary)
        op, params, got = decode_request(payload)
        assert op == "knn"
        assert params == {"k": 5, "budget": 0.25}
        assert got is not None
        assert got.vitris[0].position.tobytes() == (
            summary.vitris[0].position.tobytes()
        )

    def test_request_round_trip_without_summary(self):
        op, params, summary = decode_request(encode_request("ping", {}))
        assert (op, params, summary) == ("ping", {}, None)

    def test_request_header_length_beyond_payload_rejected(self):
        payload = struct.pack("!I", 10_000) + b'{"op": "x"}'
        with pytest.raises(ProtocolError, match="JSON header"):
            decode_request(payload)

    def test_request_too_short_rejected(self):
        with pytest.raises(ProtocolError, match="too short"):
            decode_request(b"\x00\x00")

    def test_request_bad_json_rejected(self):
        blob = b"not json at all"
        payload = struct.pack("!I", len(blob)) + blob
        with pytest.raises(ProtocolError, match="malformed"):
            decode_request(payload)

    def test_request_non_dict_params_rejected(self):
        blob = b'{"op": "knn", "params": [1, 2]}'
        payload = struct.pack("!I", len(blob)) + blob
        with pytest.raises(ProtocolError, match="dict params"):
            decode_request(payload)

    def test_response_float_scores_survive_exactly(self):
        scores = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -52, 7.23e-301]
        body = decode_response(encode_response({"scores": scores}))
        assert [repr(score) for score in body["scores"]] == [
            repr(score) for score in scores
        ]

    def test_response_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_response(b"[1, 2, 3]")


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc_type",
        [
            ShardTimeout,
            ShardDown,
            InjectedShardError,
            ServiceOverloaded,
            RateLimited,
            ServiceDraining,
            ProtocolError,
            ValueError,
            RuntimeError,
        ],
    )
    def test_known_types_round_trip(self, exc_type):
        rebuilt = payload_to_exception(
            decode_error(encode_error(exc_type("boom")))
        )
        assert type(rebuilt) is exc_type
        assert "boom" in str(rebuilt)

    def test_unknown_type_degrades_to_remote_error(self):
        rebuilt = payload_to_exception(
            {"error_type": "SomethingExotic", "message": "?"}
        )
        assert isinstance(rebuilt, RemoteShardError)
        assert "SomethingExotic" in str(rebuilt)

    def test_service_draining_is_retryable_as_connection_error(self):
        # The restart-under-traffic contract: a draining shard must look
        # like a transient connectivity fault to the resilience layer's
        # default retryable set (which includes OSError).
        assert issubclass(ServiceDraining, ConnectionError)


class TestCountersCodec:
    def test_round_trip_including_extras(self):
        bundle = CostCounters()
        bundle.page_requests = 12
        bundle.page_reads = 3
        bundle.similarity_computations = 40
        bundle.extra["range_searches"] = 5
        rebuilt = counters_from_wire(counters_to_wire(bundle))
        assert rebuilt.page_requests == 12
        assert rebuilt.page_reads == 3
        assert rebuilt.similarity_computations == 40
        assert rebuilt.extra["range_searches"] == 5
        assert rebuilt.snapshot() == bundle.snapshot()
