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

:class:`FrameServer` is the server side both
:class:`~repro.serve.shard_server.ShardServer` and
:class:`~repro.serve.frontdoor.FrontDoorServer` build on: blocking
sockets, one accept thread and one thread per connection, which reads a
request frame, executes it on that same thread and writes the reply.
The subclasses supply only their op handler (:meth:`FrameServer._execute`).
Client and server read frames with the same :func:`read_frame`.
"""

from __future__ import annotations

import socket
import threading

from repro.core.index import KNNResult
from repro.core.vitri import VideoSummary
from repro.serve.protocol import (
    FRAME_ERROR,
    FRAME_HEADER_BYTES,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    ProtocolError,
    ServiceDraining,
    counters_from_wire,
    decode_error,
    decode_frame_header,
    decode_request,
    decode_response,
    encode_error,
    encode_frame,
    encode_request,
    encode_response,
    payload_to_exception,
    stats_from_wire,
)
from repro.utils.clock import Deadline
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["FrameServer", "RemoteShard", "RemoteShardClient", "read_frame"]


def read_frame(sock: socket.socket) -> tuple[int, bytearray]:
    """One whole frame from ``sock`` as ``(frame_type, payload)``.

    The header is validated (magic, type, length cap) before the
    payload buffer is allocated, so a hostile length prefix costs
    nothing.  Raises :class:`ProtocolError` for a bad header and
    :class:`ConnectionError` when the peer closes before the frame is
    complete.
    """
    header = _recv_exactly(sock, bytearray(FRAME_HEADER_BYTES))
    frame_type, length = decode_frame_header(header)
    return frame_type, _recv_exactly(sock, bytearray(length))


def _recv_exactly(sock: socket.socket, buffer: bytearray) -> bytearray:
    """Fill ``buffer`` from ``sock`` in place."""
    filled = 0
    with memoryview(buffer) as view:
        while filled < len(buffer):
            received = sock.recv_into(view[filled:])
            if not received:
                raise ConnectionError(
                    f"peer closed the connection after {filled} of "
                    f"{len(buffer)} expected bytes"
                )
            filled += received
    return buffer


def _send(sock: socket.socket, frame: bytes) -> None:
    try:
        sock.sendall(frame)
    except OSError:
        pass  # the peer vanished; nothing to report to


def _hang_up(sock: socket.socket) -> None:
    """Close a server-side connection with a FIN, never a reset.

    Closing a socket that still holds unread input makes the kernel
    reset the connection, and a reset can destroy a reply (say, the
    error frame for a garbage header) before the peer has read it.  So
    writes are shut down first, then whatever input is already
    buffered is discarded, then the socket is closed.
    """
    try:
        sock.shutdown(socket.SHUT_WR)
        sock.setblocking(False)
        while sock.recv(4096):
            pass
    except OSError:
        pass  # nothing buffered (EAGAIN), or the peer is already gone
    finally:
        sock.close()


class FrameServer:
    """Blocking TCP server for the project framing.

    :meth:`serve` binds, then runs the accept loop on the calling
    thread; every accepted connection gets its own thread, which reads
    a request frame, executes it there through :meth:`_execute` and
    writes the reply, so a request never changes threads.  A framing error
    is answered with a typed error frame and a clean hang-up; it costs
    one connection, never the server.

    :meth:`stop` (any thread) begins a drain: the listener stops,
    requests already executing finish and are answered, later requests
    on open connections get :class:`ServiceDraining`, idle connections
    are closed, and :meth:`serve` returns once every connection thread
    has exited and :meth:`_after_close` has run.

    Subclasses supply the op handler :meth:`_execute` and, optionally,
    :meth:`_after_close`.
    """

    def __init__(self, name: str, label: str, *, host: str, port: int) -> None:
        self._name = name  # thread-name prefix
        self._label = label  # how drain errors name this server
        self._host = host
        self._port = port
        # Guards the listener, the open connections and the in-flight
        # count; never held across socket I/O or request execution.
        self._lock = make_lock("FrameServer._lock")
        self._idle = threading.Condition(self._lock)
        self._listener: socket.socket | None = None
        self._connections: set[socket.socket] = set()
        self._inflight = 0
        self._stopping = threading.Event()
        self._ready = threading.Event()
        self._done = threading.Event()
        self._thread: threading.Thread | None = None
        self._address: tuple[str, int] | None = None
        self.requests_served = 0
        self.protocol_errors = 0

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound; valid once ready."""
        if self._address is None:
            raise RuntimeError("server is not bound yet")
        return self._address

    def _execute(self, op: str, params: dict, summary) -> dict:
        """Run one request on the calling connection thread; return the
        response body or raise (typed errors cross the wire)."""
        raise NotImplementedError

    def _after_close(self) -> None:
        """Runs once, after every connection thread has exited."""

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, *, on_ready=None) -> None:
        """Bind, serve until stopped, drain, and return (blocking)."""
        try:
            listener = socket.create_server((self._host, self._port))
            try:
                sockname = listener.getsockname()
                self._address = (sockname[0], sockname[1])
                with self._lock:
                    self._listener = listener
                self._ready.set()
                if on_ready is not None:
                    on_ready(self._address)
                threads = self._accept(listener)
                self._drain_connections(threads)
            finally:
                listener.close()
                self._after_close()
        finally:
            self._done.set()

    def _accept(self, listener: socket.socket) -> list[threading.Thread]:
        """Accept until stopped; returns the connection threads."""
        threads: list[threading.Thread] = []
        accepted = 0
        while not self._stopping.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                # stop() shut the listener down; anything else (say,
                # out of descriptors) is retried after a short pause.
                self._stopping.wait(0.05)
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                refused = self._stopping.is_set()
                if not refused:
                    self._connections.add(conn)
            if refused:
                _hang_up(conn)
                break
            accepted += 1
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self._name}-conn-{accepted}",
                daemon=True,
            )
            thread.start()
            threads = [t for t in threads if t.is_alive()] + [thread]
        return threads

    def _drain_connections(self, threads: list[threading.Thread]) -> None:
        """Let in-flight requests finish, cut idle connections loose
        (their next request would only get ServiceDraining), and wait
        for every connection thread to exit."""
        with self._lock:
            while self._inflight:
                self._idle.wait()
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)  # wakes a blocked recv
            except OSError:
                pass
        for thread in threads:
            thread.join()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._answer(conn):
                pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            _hang_up(conn)

    def _answer(self, conn: socket.socket) -> bool:
        """Read, execute and answer one request; whether to keep the
        connection open."""
        try:
            frame_type, payload = read_frame(conn)
            if frame_type != FRAME_REQUEST:
                raise ProtocolError(
                    f"expected a request frame, got type {frame_type:#x}"
                )
            op, params, summary = decode_request(payload)
        except ProtocolError as exc:
            # Framing is unrecoverable: report once, hang up.
            with self._lock:
                self.protocol_errors += 1
            _send(conn, encode_frame(FRAME_ERROR, encode_error(exc)))
            return False
        except OSError:
            return False  # EOF, mid-frame disconnect, or a drain's wake-up
        with self._lock:
            admitted = not self._stopping.is_set()
            if admitted:
                self._inflight += 1
        if not admitted:
            draining = ServiceDraining(f"{self._label} is draining")
            _send(conn, encode_frame(FRAME_ERROR, encode_error(draining)))
            return False
        try:
            try:
                body = self._execute(op, params, summary)
                frame = encode_frame(FRAME_RESPONSE, encode_response(body))
            except Exception as exc:  # typed errors cross the wire
                frame = encode_frame(FRAME_ERROR, encode_error(exc))
            else:
                with self._lock:
                    self.requests_served += 1
            _send(conn, frame)
        finally:
            with self._lock:
                self._inflight -= 1
                if not self._inflight:
                    self._idle.notify_all()
        return not self._stopping.is_set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run_in_thread(self, *, timeout: float = 10.0) -> tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("server already running")
        self._thread = threading.Thread(
            target=self.serve, name=f"{self._name}-accept", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self._label} server failed to bind in time")
        assert self._address is not None
        return self._address

    def stop(self) -> None:
        """Begin the drain (from any thread); a no-op before the server
        has bound and after it has stopped."""
        with self._lock:
            listener = self._listener
            if listener is None or self._done.is_set():
                return
            self._stopping.set()
        try:
            # Closing a listener does not wake a thread blocked in
            # accept() on Linux; shutting it down does.
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed: stopped

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until :meth:`serve` has returned and, for a server
        started by :meth:`run_in_thread`, its thread has exited."""
        if not self._done.wait(timeout):
            return False
        if self._thread is not None:
            self._thread.join(timeout)
            return not self._thread.is_alive()
        return True


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
            frame_type, payload = read_frame(sock)
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
        proof inside every ``knn`` request and says ``pruned`` in the
        response.  An unreachable server
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
