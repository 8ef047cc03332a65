"""Network-backed shards: the scatter path's client side.

:class:`RemoteShard` implements :class:`~repro.shard.contract.ShardLike`,
the read half of the shard contract, but executes every call over TCP
against a :class:`~repro.serve.shard_server.ShardServer`.  Plugged into
:meth:`~repro.shard.router.ShardedVideoDatabase.from_shards`, the
unchanged scatter/merge machinery (in-shard pruning, per-shard counter
bundles, resilient attempts, exact ``_rank`` merge) runs over the
network:

* Scores come back as JSON floats (exact round-trip), counters come
  back as a wire bundle folded into the caller's ``out_counters``, so
  rankings and cost accounting are identical to the in-process path.
* A :class:`~repro.utils.clock.Deadline` is forwarded as its remaining
  budget in seconds; the server enforces it before and during the work.
  A spent budget is clamped to ``0.0`` so the server refuses to start —
  never a negative that a receiver might misread as unbounded.
* Failures surface as the same typed exceptions the in-process path
  raises (:class:`~repro.shard.resilience.ShardTimeout` and friends,
  rebuilt from the wire) or as ``OSError`` for transport faults — all
  of which the default :class:`~repro.shard.resilience.FaultPolicy`
  already treats as retryable, so retries and breakers work on
  remote shards without modification.

:class:`RemoteShardClient` underneath keeps a small connection pool;
sockets are checked out under the lock but **all I/O happens outside
it**, so concurrent scatter workers never serialise on each other's
network round-trips.
"""

from __future__ import annotations

import socket

from repro.core.index import KNNResult
from repro.core.vitri import VideoSummary
from repro.serve.protocol import (
    FRAME_ERROR,
    FRAME_HEADER_BYTES,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    ProtocolError,
    counters_from_wire,
    decode_error,
    decode_frame_header,
    decode_response,
    encode_frame,
    encode_request,
    payload_to_exception,
    stats_from_wire,
)
from repro.utils.clock import Deadline
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["RemoteShard", "RemoteShardClient"]


def _budget_of(deadline: Deadline | None) -> float | None:
    """Wire form of a deadline: remaining seconds, clamped at zero."""
    if deadline is None or not deadline.bounded:
        return None
    return max(deadline.remaining(), 0.0)


class RemoteShardClient:
    """Pooled, synchronous protocol client for one server address.

    Thread-safe: the pool list is the only shared state and it is only
    touched under the client's lock; socket I/O always happens on a
    checked-out socket outside the lock.  A socket that sees any error
    is closed, never pooled again — the next request dials fresh.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        pool_size: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._pool_size = pool_size
        self._lock = make_lock("RemoteShardClient._lock")
        self._pool: list[socket.socket] = []
        self._closed = False

    def request(
        self, op: str, params: dict | None = None, summary=None
    ) -> dict:
        """One request/response round-trip; raises typed server errors."""
        frame = encode_frame(
            FRAME_REQUEST, encode_request(op, params or {}, summary)
        )
        sock = self._checkout()
        try:
            sock.sendall(frame)
            frame_type, payload = self._read_frame(sock)
        except BaseException:
            sock.close()
            raise
        self._checkin(sock)
        if frame_type == FRAME_ERROR:
            raise payload_to_exception(decode_error(payload))
        if frame_type != FRAME_RESPONSE:
            raise ProtocolError(
                f"expected a response frame, got type {frame_type:#x}"
            )
        return decode_response(payload)

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise OSError("client is closed")
            sock = self._pool.pop() if self._pool else None
        if sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self._timeout
            )
            sock.settimeout(self._timeout)
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        keep = False
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(sock)
                keep = True
        if not keep:
            sock.close()

    def _read_frame(self, sock: socket.socket) -> tuple[int, bytes]:
        header = self._read_exactly(sock, FRAME_HEADER_BYTES)
        frame_type, length = decode_frame_header(header)
        return frame_type, self._read_exactly(sock, length)

    @staticmethod
    def _read_exactly(sock: socket.socket, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise ConnectionError(
                    f"server closed the connection after {len(chunks)} of "
                    f"{count} expected bytes"
                )
            chunks.extend(chunk)
        return bytes(chunks)

    def close(self) -> None:
        """Close every pooled socket and refuse further checkouts."""
        with self._lock:
            pool = self._pool
            self._pool = []
            self._closed = True
        for sock in pool:
            sock.close()

    def __repr__(self) -> str:
        return f"RemoteShardClient({self.host}:{self.port})"


class RemoteShard:
    """A shard served elsewhere, as seen by the scatter-gather router.

    Read-only by construction: the serving surface is implemented, the
    mutation surface is absent (placement belongs to whichever process
    owns the shard's files).  ``len()`` is cached from the server's
    status at connect time — remote fleets are read-only, so the count
    cannot drift; :meth:`reconnect` refreshes it after a restart.
    """

    def __init__(
        self, shard_id: int, host: str, port: int, *, timeout: float = 10.0
    ) -> None:
        self._shard_id = int(shard_id)
        self._timeout = timeout
        self._client = RemoteShardClient(host, port, timeout=timeout)
        self._count = int(self._client.request("status")["videos"])

    @property
    def shard_id(self) -> int:
        """Position of this shard in the fleet's shard list."""
        return self._shard_id

    def __len__(self) -> int:
        return self._count

    def status(self) -> dict:
        """The served shard's contract status report, plus the server's
        own ``draining`` flag."""
        return self._client.request("status")

    def video_ids(self) -> set[int]:
        """Ids of the videos the remote shard owns."""
        return {int(v) for v in self._client.request("video_ids")["video_ids"]}

    def may_contain(
        self, query: VideoSummary, *, counters: CostCounters | None = None
    ) -> bool:
        """Server-side key-bounds check; pruning I/O folds into
        ``counters`` exactly as a local shard's would.

        The router never calls this: the served shard runs the same
        proof inside every ``knn`` / ``similarity_range`` request and
        says ``pruned`` in the response.  An unreachable server
        (mid-restart, draining) answers ``True``, because only a shard
        that *answered* can prove itself empty of matches; the failure
        belongs to the query itself, which retries or degrades.
        """
        try:
            body = self._client.request("may_contain", summary=query)
        except OSError:
            return True
        if counters is not None:
            counters.add(counters_from_wire(body["counters"]))
        return bool(body["result"])

    def knn(
        self,
        query: VideoSummary,
        k: int,
        *,
        method: str = "composed",
        cold: bool = False,
        out_counters: CostCounters | None = None,
        deadline: Deadline | None = None,
        attempt: int = 0,
    ) -> KNNResult:
        """The remote shard's local top-``k`` (bit-identical scores).

        ``attempt`` rides in the request so a replica group behind the
        server can send each retry to a different copy.
        """
        body = self._client.request(
            "knn",
            {
                "k": k,
                "method": method,
                "cold": cold,
                "budget": _budget_of(deadline),
                "attempt": attempt,
            },
            summary=query,
        )
        return self._result(body, out_counters)

    def similarity_range(
        self,
        query: VideoSummary,
        min_similarity: float,
        *,
        method: str = "composed",
        cold: bool = False,
        out_counters: CostCounters | None = None,
        deadline: Deadline | None = None,
        attempt: int = 0,
    ) -> KNNResult:
        """The remote shard's videos scoring at least ``min_similarity``."""
        body = self._client.request(
            "similarity_range",
            {
                "min_similarity": min_similarity,
                "method": method,
                "cold": cold,
                "budget": _budget_of(deadline),
                "attempt": attempt,
            },
            summary=query,
        )
        return self._result(body, out_counters)

    @staticmethod
    def _result(body: dict, out_counters: CostCounters | None) -> KNNResult:
        if out_counters is not None:
            out_counters.add(counters_from_wire(body["counters"]))
        return KNNResult(
            videos=tuple(int(v) for v in body["videos"]),
            scores=tuple(float(s) for s in body["scores"]),
            stats=stats_from_wire(body["stats"]),
            pruned=bool(body["pruned"]),
        )

    def reconnect(self, host: str | None = None, port: int | None = None) -> None:
        """Point at a (re)started server and refresh the cached count."""
        old = self._client
        self._client = RemoteShardClient(
            host if host is not None else old.host,
            port if port is not None else old.port,
            timeout=self._timeout,
        )
        old.close()
        self._count = int(self._client.request("status")["videos"])

    def close(self) -> None:
        """Close the underlying connection pool."""
        self._client.close()

    def __repr__(self) -> str:
        return (
            f"RemoteShard(id={self._shard_id}, "
            f"addr={self._client.host}:{self._client.port}, "
            f"videos={self._count})"
        )
