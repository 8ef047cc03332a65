"""One TCP server per shard: sub-queries over the wire, deadlines intact.

:class:`ShardServer` wraps one :class:`~repro.shard.contract.ShardLike`
(a shard, a fault-injecting proxy or a replica group) behind an
asyncio TCP listener speaking :mod:`repro.serve.protocol`.  Three
properties carry over from the in-process path:

* **Determinism** — every query executes on a *single* worker thread
  (``ThreadPoolExecutor(max_workers=1)``), so a shard's op order is its
  request order and fault schedules keyed by op count replay exactly.
  The same thread is where each request's
  :class:`~repro.utils.clock.Deadline` is constructed: under a
  :class:`~repro.utils.clock.VirtualClock` the clock's offsets are
  per thread (context-local), so building the deadline anywhere else
  would race the sleeps the worker performs (this is the seam
  :mod:`repro.utils.clock` documents).
* **Budget awareness** — a request carries its remaining budget in
  seconds; the worker rebuilds the deadline against the *server's*
  clock and the shard refuses to start work whose budget is spent,
  exactly like the in-process attempt loop.
* **Robustness** — framing is validated before any payload allocation;
  a corrupt header, oversized length prefix or mid-frame disconnect
  costs one connection, never the server.

Draining (the ``drain`` op, :meth:`ShardServer.drain`, or
:meth:`ShardServerHandle.drain` over the network) stops the listener,
lets in-flight requests finish, answers later requests on open
connections with :class:`~repro.serve.protocol.ServiceDraining`, closes
the shard (checkpointing it when durable) and exits — the graceful half
of the front door's restart-under-traffic path.

Run as a module (``python -m repro.serve.shard_server --shard-dir ...``)
this serves one durable shard directory as a subprocess and prints a
single JSON ready-line with the bound port; :class:`ShardServerHandle`
wraps that contract.  Clock and fault-injection state never cross the
process boundary: the subprocess builds its *own* clock (``--clock``)
and rebuilds any fault schedule from JSON (``--faults``), with op
counters starting at zero as :mod:`repro.shard.faults` documents.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.serve.protocol import (
    FRAME_ERROR,
    FRAME_HEADER_BYTES,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    ProtocolError,
    ServiceDraining,
    counters_to_wire,
    decode_frame_header,
    decode_request,
    encode_error,
    encode_frame,
    encode_response,
    stats_to_wire,
)
from repro.shard.contract import ShardLike
from repro.shard.shard import Shard
from repro.utils.clock import Clock, Deadline, SystemClock, VirtualClock
from repro.utils.counters import CostCounters

__all__ = ["ShardServer", "ShardServerHandle", "main"]

_DRAIN_POLL_SECONDS = 0.005


class ShardServer:
    """Serve one shard's queries over TCP with the project protocol.

    Parameters
    ----------
    shard:
        The shard (or fault-injecting proxy) to serve.
    host, port:
        Bind address; port 0 picks a free port (read the bound address
        from :attr:`address` once serving).
    clock:
        Drives every deadline this server constructs; defaults to the
        real clock.  Tests pass a :class:`VirtualClock` for
        deterministic replay.
    """

    def __init__(
        self,
        shard: ShardLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Clock | None = None,
    ) -> None:
        self._shard = shard
        self._host = host
        self._port = port
        self._clock = clock if clock is not None else SystemClock()
        self._executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"shard-server-{shard.shard_id}",
        )
        # Event-loop-confined state (handlers run on one loop thread).
        self._draining = False
        self._inflight = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_event: asyncio.Event | None = None
        # Cross-thread signalling for run_in_thread()/wait_closed().
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

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    async def serve(self, *, on_ready=None) -> None:
        """Bind, serve until drained, then close the shard and return."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_event = asyncio.Event()
        server = await asyncio.start_server(self._handle, self._host, self._port)
        try:
            sockname = server.sockets[0].getsockname()
            self._address = (sockname[0], sockname[1])
            self._ready.set()
            if on_ready is not None:
                on_ready(self._address)
            await self._drain_event.wait()
            # Stop accepting, let in-flight requests finish, then cut
            # idle connections loose (their next request would be
            # answered with ServiceDraining anyway).
            server.close()
            await server.wait_closed()
            while self._inflight > 0:
                await asyncio.sleep(_DRAIN_POLL_SECONDS)
            for writer in list(self._writers):
                writer.close()
            # Closing the transports wakes handlers parked in
            # readexactly() with EOF; wait for them to exit on their
            # own (cancelling instead would make asyncio.streams log
            # the cancellation on 3.11).
            if self._tasks:
                await asyncio.wait(list(self._tasks), timeout=1.0)
        finally:
            self._executor.shutdown(wait=True)
            # Closing checkpoints a durable shard — drain never loses
            # committed state.
            self._shard.close()
            self._done.set()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_BYTES)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return  # clean EOF or mid-frame disconnect: drop quietly
                try:
                    frame_type, length = decode_frame_header(header)
                    if frame_type != FRAME_REQUEST:
                        raise ProtocolError(
                            f"expected a request frame, got type {frame_type:#x}"
                        )
                except ProtocolError as exc:
                    # Framing is unrecoverable: report once, hang up.
                    self.protocol_errors += 1
                    await self._send(writer, FRAME_ERROR, encode_error(exc))
                    return
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                try:
                    op, params, summary = decode_request(payload)
                except ProtocolError as exc:
                    self.protocol_errors += 1
                    await self._send(writer, FRAME_ERROR, encode_error(exc))
                    return
                if op == "drain":
                    self.requests_served += 1
                    await self._send(
                        writer,
                        FRAME_RESPONSE,
                        encode_response({"draining": True}),
                    )
                    self._begin_drain()
                    return
                if self._draining:
                    await self._send(
                        writer,
                        FRAME_ERROR,
                        encode_error(
                            ServiceDraining(
                                f"shard {self._shard.shard_id} is draining"
                            )
                        ),
                    )
                    return
                self._inflight += 1
                try:
                    body = await asyncio.get_running_loop().run_in_executor(
                        self._executor, self._execute, op, params, summary
                    )
                except Exception as exc:  # typed errors cross the wire
                    await self._send(writer, FRAME_ERROR, encode_error(exc))
                else:
                    self.requests_served += 1
                    await self._send(
                        writer, FRAME_RESPONSE, encode_response(body)
                    )
                finally:
                    self._inflight -= 1
                if self._draining:
                    return
        finally:
            if task is not None:
                self._tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, frame_type: int, payload: bytes
    ) -> None:
        try:
            writer.write(encode_frame(frame_type, payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # the peer vanished; nothing to report to

    # ------------------------------------------------------------------
    # Request execution (single worker thread)
    # ------------------------------------------------------------------
    def _execute(self, op: str, params: dict, summary) -> dict:
        """Run one request on the worker thread and build its response.

        The :class:`Deadline` is constructed *here*, on the thread that
        will execute (and under a fault schedule, sleep through) the
        query — the per-context offset seam :mod:`repro.utils.clock`
        documents.
        """
        shard = self._shard
        if op == "ping":
            return {"pong": True, "shard_id": shard.shard_id}
        if op == "status":
            return dict(shard.status(), draining=self._draining)
        if op == "video_ids":
            return {"video_ids": sorted(shard.video_ids())}
        if op == "may_contain":
            self._require_summary(op, summary)
            bundle = CostCounters()
            result = shard.may_contain(summary, counters=bundle)
            return {
                "result": bool(result),
                "counters": counters_to_wire(bundle),
            }
        if op in ("knn", "similarity_range"):
            self._require_summary(op, summary)
            budget = params.get("budget")
            deadline = (
                Deadline(self._clock, float(budget))
                if budget is not None
                else None
            )
            bundle = CostCounters()
            seams = {
                "method": str(params.get("method", "composed")),
                "cold": bool(params.get("cold", False)),
                "out_counters": bundle,
                "deadline": deadline,
                "attempt": int(params.get("attempt", 0)),
            }
            if op == "knn":
                result = shard.knn(summary, int(params["k"]), **seams)
            else:
                result = shard.similarity_range(
                    summary, float(params["min_similarity"]), **seams
                )
            return {
                "videos": list(result.videos),
                "scores": list(result.scores),
                "stats": stats_to_wire(result.stats),
                "counters": counters_to_wire(bundle),
                "pruned": result.pruned,
            }
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def _require_summary(op: str, summary) -> None:
        if summary is None:
            raise ValueError(f"op {op!r} requires a query summary")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run_in_thread(self, *, timeout: float = 10.0) -> tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("server already running")
        self._thread = threading.Thread(
            target=self._run,
            name=f"shard-server-{self._shard.shard_id}-loop",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("shard server failed to bind in time")
        assert self._address is not None
        return self._address

    def _run(self) -> None:
        try:
            asyncio.run(self.serve())
        finally:
            self._done.set()

    def _begin_drain(self) -> None:
        # Event-loop thread only (handlers, or call_soon_threadsafe).
        self._draining = True
        if self._drain_event is not None:
            self._drain_event.set()

    def drain(self) -> None:
        """Request a graceful drain from any thread."""
        loop = self._loop
        if loop is None or self._done.is_set():
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:
            pass  # loop already closed: drained

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until the serve loop has fully shut down and, for a
        server started by :meth:`run_in_thread`, its thread has exited
        (the loop's own teardown runs after the shard is closed)."""
        if not self._done.wait(timeout):
            return False
        if self._thread is not None:
            self._thread.join(timeout)
            return not self._thread.is_alive()
        return True


class ShardServerHandle:
    """A shard server running as a real subprocess.

    :meth:`spawn` launches ``python -m repro.serve.shard_server`` on a
    durable shard directory, waits for its JSON ready-line, and records
    the bound address.  :meth:`drain` asks it to finish in-flight work,
    checkpoint and exit; :meth:`wait` reaps it.
    """

    def __init__(
        self,
        process: subprocess.Popen,
        host: str,
        port: int,
        shard_id: int,
        shard_dir: str,
    ) -> None:
        self._process = process
        self.host = host
        self.port = port
        self.shard_id = shard_id
        self.shard_dir = shard_dir

    @classmethod
    def spawn(
        cls,
        shard_dir: str | os.PathLike,
        shard_id: int,
        *,
        epsilon: float,
        host: str = "127.0.0.1",
        cache_size: int = 128,
        buffer_capacity: int = 256,
        range_cache_size: int = 0,
        clock: str = "system",
        faults: dict | None = None,
    ) -> "ShardServerHandle":
        """Launch a subprocess server and wait for its ready-line."""
        import repro

        shard_dir = os.fspath(shard_dir)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
        command = [
            sys.executable,
            "-m",
            "repro.serve.shard_server",
            "--shard-dir",
            shard_dir,
            "--shard-id",
            str(shard_id),
            "--epsilon",
            repr(epsilon),
            "--host",
            host,
            "--port",
            "0",
            "--cache-size",
            str(cache_size),
            "--buffer-capacity",
            str(buffer_capacity),
            "--range-cache-size",
            str(range_cache_size),
            "--clock",
            clock,
        ]
        if faults is not None:
            command += ["--faults", json.dumps(faults)]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        assert process.stdout is not None
        for _ in range(256):  # tolerate stray warnings before the ready-line
            line = process.stdout.readline()
            if not line:
                break
            try:
                info = json.loads(line)
            except ValueError:
                continue
            if isinstance(info, dict) and info.get("ready"):
                return cls(
                    process,
                    str(info["host"]),
                    int(info["port"]),
                    shard_id,
                    shard_dir,
                )
        process.kill()
        process.wait()
        raise RuntimeError(
            f"shard server for {shard_dir} exited without a ready-line"
        )

    @property
    def alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self._process.poll() is None

    def drain(self, *, timeout: float = 10.0) -> None:
        """Ask the server to drain gracefully (over the network)."""
        from repro.serve.transport import RemoteShardClient

        client = RemoteShardClient(self.host, self.port, timeout=timeout)
        try:
            client.request("drain")
        finally:
            client.close()

    def wait(self, timeout: float | None = None) -> int:
        """Reap the subprocess; returns its exit code."""
        return self._process.wait(timeout)

    def kill(self) -> None:
        """Hard-kill the subprocess (tests and teardown only)."""
        self._process.kill()
        self._process.wait()

    def __repr__(self) -> str:
        return (
            f"ShardServerHandle(shard={self.shard_id}, "
            f"addr={self.host}:{self.port}, alive={self.alive})"
        )


def main(argv: list[str] | None = None) -> int:
    """Subprocess entry: serve one durable shard directory until drained."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-shard-server",
        description="serve one ViTri shard directory over TCP",
    )
    parser.add_argument("--shard-dir", required=True)
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-size", type=int, default=128)
    parser.add_argument("--buffer-capacity", type=int, default=256)
    parser.add_argument("--range-cache-size", type=int, default=0)
    parser.add_argument(
        "--clock",
        choices=("system", "virtual"),
        default="system",
        help="virtual: deterministic clock for replayed fault schedules",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="JSON ShardFaultInjector schedule (op counters start at 0 "
        "in this process; see repro.shard.faults)",
    )
    args = parser.parse_args(argv)

    clock: Clock = VirtualClock() if args.clock == "virtual" else SystemClock()
    shard: ShardLike = Shard(
        args.shard_id,
        epsilon=args.epsilon,
        path=args.shard_dir,
        buffer_capacity=args.buffer_capacity,
        cache_size=args.cache_size,
        range_cache_size=args.range_cache_size,
    )
    if args.faults:
        from repro.shard.faults import FaultInjectingShard, ShardFaultInjector

        injector = ShardFaultInjector.from_dict(json.loads(args.faults))
        shard = FaultInjectingShard(shard, injector, clock=clock)

    server = ShardServer(shard, host=args.host, port=args.port, clock=clock)

    def on_ready(address: tuple[str, int]) -> None:
        print(
            json.dumps(
                {
                    "ready": True,
                    "host": address[0],
                    "port": address[1],
                    "shard_id": args.shard_id,
                }
            ),
            flush=True,
        )

    asyncio.run(server.serve(on_ready=on_ready))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
