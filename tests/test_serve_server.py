"""Shard-server tests: correctness over TCP, robustness, clock seams.

The correctness bar is bit-identity: a query answered over the wire
must return the same videos, the same score bits and the same counter
bundle as the same query against an identical in-process shard.  The
robustness bar is that no sequence of hostile bytes on one connection
costs more than that connection.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.serve.protocol import (
    FRAME_ERROR,
    FRAME_HEADER_BYTES,
    FRAME_REQUEST,
    MAGIC,
    MAX_FRAME_BYTES,
    ServiceDraining,
    decode_error,
    decode_frame_header,
    payload_to_exception,
)
from repro.serve.shard_server import ShardServer
from repro.serve.transport import RemoteShard, RemoteShardClient
from repro.shard.resilience import ShardTimeout
from repro.shard.shard import Shard
from repro.utils.clock import Deadline, SystemClock, VirtualClock
from repro.utils.counters import CostCounters
from tests.test_golden_rankings import EPSILON, K, build_corpus
from tests.threshold_recipe import at_least


def make_shard(summaries, shard_id: int = 0) -> Shard:
    shard = Shard(shard_id, epsilon=EPSILON)
    for summary in summaries:
        shard.add_summary(summary)
    return shard


@pytest.fixture(scope="module")
def corpus():
    summaries, _ = build_corpus(101)
    return summaries


@pytest.fixture()
def served_shard(corpus):
    """A served shard, its remote proxy, and an identical local twin."""
    server = ShardServer(make_shard(corpus))
    host, port = server.run_in_thread()
    remote = RemoteShard(0, host, port)
    local = make_shard(corpus)
    try:
        yield server, remote, local
    finally:
        remote.close()
        server.drain()
        assert server.wait_closed(10.0)
        local.close()


class RecordingShard:
    """A shard wrapper that records what it executes, in order.

    ``knn`` on a query whose video id is in ``gates`` blocks until that
    event is set.  ``events`` logs ``("start", id)`` / ``("end", id)``
    per query and ``("close",)``; ``max_running`` is the most ops ever
    executing at once.
    """

    def __init__(self, shard: Shard, gates: dict | None = None) -> None:
        self._shard = shard
        self._gates = gates or {}
        self._lock = threading.Lock()
        self.events: list[tuple] = []
        self.running = 0
        self.max_running = 0

    def __getattr__(self, name):
        return getattr(self._shard, name)

    def knn(self, query, k, **kwargs):
        with self._lock:
            self.events.append(("start", query.video_id))
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            gate = self._gates.get(query.video_id)
            if gate is not None:
                assert gate.wait(30.0)
            return self._shard.knn(query, k, **kwargs)
        finally:
            with self._lock:
                self.running -= 1
                self.events.append(("end", query.video_id))

    def close(self) -> None:
        self.events.append(("close",))
        self._shard.close()


def wait_until(predicate) -> None:
    for _ in range(10_000):  # ~10 s
        if predicate():
            return
        time.sleep(0.001)
    raise AssertionError("condition never held")


def server_threads(shard_id: int) -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(f"shard-server-{shard_id}-")
    ]


def deterministic(bundle: CostCounters) -> dict:
    """A bundle's snapshot minus its wall-clock stage timers (``*_s``)."""
    return {
        key: value
        for key, value in bundle.snapshot().items()
        if not key.endswith("_s")
    }


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    def read_exactly(count: int) -> bytes:
        data = bytearray()
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("peer closed")
            data.extend(chunk)
        return bytes(data)

    frame_type, length = decode_frame_header(read_exactly(FRAME_HEADER_BYTES))
    return frame_type, read_exactly(length)


class TestCorrectness:
    def test_knn_bit_identical_and_counters_fold(self, served_shard):
        _, remote, local = served_shard
        query = local.summaries()[0]
        local_bundle, remote_bundle = CostCounters(), CostCounters()
        want = local.knn(query, K, out_counters=local_bundle)
        got = remote.knn(query, K, out_counters=remote_bundle)
        assert got.videos == want.videos
        assert got.scores == want.scores  # bitwise across the wire
        assert deterministic(remote_bundle) == deterministic(local_bundle)

    def test_similarity_range_bit_identical(self, served_shard):
        """The threshold recipe over the wire: a full ranking cut at the
        threshold matches the local shard's bit for bit."""
        _, remote, local = served_shard
        query = local.summaries()[1]
        want = local.knn(query, len(local))
        got = remote.knn(query, len(remote))
        assert at_least(got, 0.1) == at_least(want, 0.1)

    def test_may_contain_matches_and_counts_io(self, served_shard):
        _, remote, local = served_shard
        query = local.summaries()[2]
        local_bundle, remote_bundle = CostCounters(), CostCounters()
        want = local.may_contain(query, counters=local_bundle)
        got = remote.may_contain(query, counters=remote_bundle)
        assert got == want
        assert deterministic(remote_bundle) == deterministic(local_bundle)

    def test_introspection_surface(self, served_shard):
        server, remote, local = served_shard
        assert remote.shard_id == 0
        assert len(remote) == len(local)
        assert remote.video_ids() == local.video_ids()
        status = remote.status()
        assert status == dict(
            local.status(), draining=False, content_token=local.content_token()
        )
        remote.knn(local.summaries()[0], K)
        assert remote.status()["queries_served"] >= status["queries_served"]
        assert server.requests_served > 0

    def test_spent_budget_refused_with_typed_timeout(self, served_shard):
        _, remote, local = served_shard
        spent = Deadline(SystemClock(), 0.0)
        with pytest.raises(ShardTimeout, match="refusing to start"):
            remote.knn(local.summaries()[0], K, deadline=spent)

    def test_unknown_op_is_typed_value_error(self, served_shard):
        _, remote, local = served_shard
        with pytest.raises(ValueError, match="unknown op"):
            remote._client.request("frobnicate")
        # The threshold op is gone from the wire; knn is the only query.
        with pytest.raises(ValueError, match="unknown op"):
            remote._client.request(
                "similarity_range",
                {"min_similarity": 0.1},
                summary=local.summaries()[0],
            )

    def test_query_op_without_summary_rejected(self, served_shard):
        _, remote, _ = served_shard
        with pytest.raises(ValueError, match="requires a query summary"):
            remote._client.request("knn", {"k": 1})


class TestRobustness:
    def test_garbage_bytes_cost_one_connection(self, served_shard):
        server, remote, local = served_shard
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            frame_type, payload = read_frame(sock)
            assert frame_type == FRAME_ERROR
            exc = payload_to_exception(decode_error(payload))
            assert "magic" in str(exc)
            assert sock.recv(1) == b""  # server hung up on us
        # ...but the server itself is fine.
        want = local.knn(local.summaries()[0], K)
        assert remote.knn(local.summaries()[0], K).scores == want.scores

    def test_oversized_length_prefix_rejected_without_allocation(
        self, served_shard
    ):
        server, remote, local = served_shard
        header = struct.pack("!2sBI", MAGIC, FRAME_REQUEST, MAX_FRAME_BYTES + 1)
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(header)
            # The error comes back immediately: the server rejected the
            # header without waiting for (or allocating) the claimed
            # 16 MiB + 1 payload, which we never send.
            frame_type, payload = read_frame(sock)
            assert frame_type == FRAME_ERROR
            assert "cap" in str(payload_to_exception(decode_error(payload)))
            assert sock.recv(1) == b""
        assert remote.knn(local.summaries()[0], K).videos  # still serving

    def test_mid_frame_disconnect_tolerated(self, served_shard):
        server, remote, local = served_shard
        frame = struct.pack("!2sBI", MAGIC, FRAME_REQUEST, 100) + b"partial"
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(frame)
        # Connection dropped mid-payload; the server shrugs it off.
        want = local.knn(local.summaries()[0], K)
        assert remote.knn(local.summaries()[0], K).scores == want.scores

    def test_truncated_header_disconnect_tolerated(self, served_shard):
        server, remote, local = served_shard
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"V")  # one byte of magic, then gone
        assert remote.may_contain(local.summaries()[0]) in (True, False)


class TestDrain:
    def test_drain_op_acks_then_shuts_down(self, corpus):
        server = ShardServer(make_shard(corpus))
        host, port = server.run_in_thread()
        client = RemoteShardClient(host, port)
        assert client.request("drain") == {"draining": True}
        assert server.wait_closed(10.0)
        client.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()

    def test_drain_is_idempotent_from_any_thread(self, corpus):
        server = ShardServer(make_shard(corpus))
        server.run_in_thread()
        server.drain()
        server.drain()
        assert server.wait_closed(10.0)
        server.drain()  # after shutdown: a no-op, not an error

    def test_drain_with_a_request_in_flight_on_another_connection(
        self, corpus
    ):
        gate = threading.Event()
        shard = RecordingShard(
            make_shard(corpus, shard_id=7), {corpus[0].video_id: gate}
        )
        local = make_shard(corpus, shard_id=7)
        server = ShardServer(shard)
        host, port = server.run_in_thread()
        busy = RemoteShard(7, host, port)
        idle = RemoteShardClient(host, port)
        answers = []
        try:
            # Opens its connection.
            assert idle.request("status")["shard_id"] == 7
            asker = threading.Thread(
                target=lambda: answers.append(busy.knn(corpus[0], K))
            )
            asker.start()
            wait_until(lambda: shard.running == 1)
            server.drain()
            with pytest.raises(ServiceDraining, match="shard 7 is draining"):
                idle.request("knn", {"k": K}, summary=corpus[1])
            assert ("close",) not in shard.events
            gate.set()
            asker.join(30.0)
            assert not asker.is_alive()
            assert server.wait_closed(10.0)
        finally:
            gate.set()
            busy.close()
            idle.close()
        want = local.knn(corpus[0], K)
        local.close()
        assert [(got.videos, got.scores) for got in answers] == [
            (want.videos, want.scores)
        ]
        # The in-flight query finished before the shard was closed, and
        # the refused request never reached the shard.
        assert shard.events == [
            ("start", corpus[0].video_id),
            ("end", corpus[0].video_id),
            ("close",),
        ]
        assert server_threads(7) == []


class TestExecutionOrder:
    def test_one_op_at_a_time_in_read_order_across_connections(
        self, corpus
    ):
        # The first query blocks inside the shard until every later
        # request has been read on its own connection; the rest must
        # then run one by one, in the order they were read.
        queries = corpus[:4]
        gate = threading.Event()
        shard = RecordingShard(
            make_shard(corpus, shard_id=8), {queries[0].video_id: gate}
        )
        server = ShardServer(shard)
        host, port = server.run_in_thread()
        clients = [RemoteShardClient(host, port) for _ in queries]
        answers: dict[int, dict] = {}

        def ask(position: int) -> None:
            answers[position] = clients[position].request(
                "knn", {"k": K}, summary=queries[position]
            )

        askers = []
        try:
            for position in range(len(queries)):
                asker = threading.Thread(target=ask, args=(position,))
                asker.start()
                askers.append(asker)
                # Read (ticketed) before the next request is even sent.
                wait_until(lambda: server._next_ticket == position + 1)
            gate.set()
            for asker in askers:
                asker.join(30.0)
                assert not asker.is_alive()
        finally:
            gate.set()
            for client in clients:
                client.close()
            server.drain()
            assert server.wait_closed(10.0)
        assert [event[1] for event in shard.events[:-1:2]] == [
            query.video_id for query in queries
        ]
        assert shard.max_running == 1
        local = make_shard(corpus)
        try:
            for position, query in enumerate(queries):
                want = local.knn(query, K)
                got = answers[position]
                assert tuple(got["videos"]) == want.videos
                assert tuple(got["scores"]) == want.scores
        finally:
            local.close()


class TestVirtualClockSeam:
    def test_sequential_requests_never_falsely_expire(self, corpus):
        # The deadline is built on the worker thread against the
        # server's own clock; a VirtualClock's per-context offsets must
        # therefore never leak one request's sleeps into the next
        # request's budget.
        server = ShardServer(make_shard(corpus), clock=VirtualClock())
        host, port = server.run_in_thread()
        remote = RemoteShard(0, host, port)
        try:
            query = corpus[0]
            fresh = Deadline(SystemClock(), 30.0)
            first = remote.knn(query, K, deadline=fresh)
            for _ in range(5):
                again = remote.knn(
                    query, K, deadline=Deadline(SystemClock(), 30.0)
                )
                assert again.scores == first.scores
        finally:
            remote.close()
            server.drain()
            assert server.wait_closed(10.0)

    def test_zero_budget_times_out_under_virtual_clock(self, corpus):
        server = ShardServer(make_shard(corpus), clock=VirtualClock())
        host, port = server.run_in_thread()
        remote = RemoteShard(0, host, port)
        try:
            with pytest.raises(ShardTimeout):
                remote.knn(corpus[0], K, deadline=Deadline(SystemClock(), 0.0))
        finally:
            remote.close()
            server.drain()
            assert server.wait_closed(10.0)
