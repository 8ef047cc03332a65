"""One TCP server per shard: sub-queries over the wire, deadlines intact.

:class:`ShardServer` wraps one :class:`~repro.shard.contract.ShardLike`
(a shard, a fault-injecting proxy or a replica group) behind a
:class:`~repro.serve.transport.FrameServer` speaking
:mod:`repro.serve.protocol`: one thread per connection reads a request,
executes it and writes the reply.  Three properties carry over from the
in-process path:

* **Determinism** — requests execute one at a time, in the order their
  connection threads read them (a FIFO ticket), so a shard's op order
  is its request order and fault schedules keyed by op count replay
  exactly.  Each request executes on the connection thread that read
  it, which is also where its :class:`~repro.utils.clock.Deadline` is
  constructed: under a :class:`~repro.utils.clock.VirtualClock` the
  clock's offsets are per thread (context-local), so building the
  deadline anywhere else would race the sleeps the executing thread
  performs (this is the seam :mod:`repro.utils.clock` documents).
* **Budget awareness** — a request carries its remaining budget in
  seconds; the executing thread rebuilds the deadline against the
  *server's* clock and the shard refuses to start work whose budget is
  spent, exactly like the in-process attempt loop.
* **Robustness** — framing is validated before any payload allocation;
  a corrupt header, oversized length prefix or mid-frame disconnect
  costs one connection, never the server.

Every ``status`` and ``knn`` reply carries the served shard's
``content_token``, so the :class:`~repro.serve.transport.RemoteShard`
on the other side always holds the token of the content it last heard
from (the read-only router's memo keys its validity on it).

Draining (the ``drain`` op, :meth:`ShardServer.drain`, or
:meth:`ShardServerHandle.drain` over the network) stops the listener,
lets in-flight requests finish, answers later requests on open
connections with :class:`~repro.serve.protocol.ServiceDraining`, closes
the shard (checkpointing it when durable) and exits — the graceful half
of the front door's restart-under-traffic path.

Run as a module (``python -m repro.serve.shard_server --shard-dir ...``)
this serves one durable shard directory as a subprocess and prints a
single JSON ready-line with the bound port; :class:`ShardServerHandle`
wraps that contract.  The subprocess always runs on the real
:class:`~repro.utils.clock.SystemClock` and serves its shard unfaulted:
a virtual clock or a fault schedule is an in-process testing seam.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

from repro.serve.protocol import counters_to_wire, stats_to_wire
from repro.serve.transport import FrameServer
from repro.shard.contract import ShardLike
from repro.shard.shard import Shard
from repro.utils.clock import Clock, Deadline, SystemClock
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock

__all__ = ["ShardServer", "ShardServerHandle", "main"]


class ShardServer(FrameServer):
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
        super().__init__(
            f"shard-server-{shard.shard_id}",
            f"shard {shard.shard_id}",
            host=host,
            port=port,
        )
        self._shard = shard
        self._clock = clock if clock is not None else SystemClock()
        # FIFO ticket: one request executes at a time, in the order the
        # connection threads read them.  Held only to take a ticket and
        # to pass the turn on, never across execution or socket I/O.
        self._turn_lock = make_lock("ShardServer._turn_lock")
        self._turn = threading.Condition(self._turn_lock)
        self._next_ticket = 0
        self._now_serving = 0

    def _after_close(self) -> None:
        # Closing checkpoints a durable shard — drain never loses
        # committed state.
        self._shard.close()

    def drain(self) -> None:
        """Request a graceful drain from any thread."""
        self.stop()

    # ------------------------------------------------------------------
    # Request execution (one at a time, in ticket order)
    # ------------------------------------------------------------------
    def _execute(self, op: str, params: dict, summary) -> dict:
        if op == "drain":
            # Acked before the teardown it starts can close anything:
            # the drain waits for this request like any in flight.
            self.stop()
            return {"draining": True}
        with self._turn_lock:
            ticket = self._next_ticket
            self._next_ticket += 1
            while ticket != self._now_serving:
                self._turn.wait()
        try:
            return self._run(op, params, summary)
        finally:
            with self._turn_lock:
                self._now_serving += 1
                self._turn.notify_all()

    def _run(self, op: str, params: dict, summary) -> dict:
        """Run one request on its connection thread, holding the turn.

        The :class:`Deadline` is constructed *here*, on the thread that
        will execute (and under a fault schedule, sleep through) the
        query — the per-context offset seam :mod:`repro.utils.clock`
        documents.
        """
        shard = self._shard
        if op == "status":
            return dict(
                shard.status(),
                draining=self._stopping.is_set(),
                content_token=shard.content_token(),
            )
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
        if op == "knn":
            self._require_summary(op, summary)
            budget = params.get("budget")
            deadline = (
                Deadline(self._clock, float(budget))
                if budget is not None
                else None
            )
            bundle = CostCounters()
            result = shard.knn(
                summary,
                int(params["k"]),
                out_counters=bundle,
                deadline=deadline,
                attempt=int(params.get("attempt", 0)),
            )
            return {
                "videos": list(result.videos),
                "scores": list(result.scores),
                "stats": stats_to_wire(result.stats),
                "counters": counters_to_wire(bundle),
                "pruned": result.pruned,
                "content_token": shard.content_token(),
            }
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def _require_summary(op: str, summary) -> None:
        if summary is None:
            raise ValueError(f"op {op!r} requires a query summary")


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
        ]
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
    args = parser.parse_args(argv)

    shard = Shard(
        args.shard_id,
        epsilon=args.epsilon,
        path=args.shard_dir,
        buffer_capacity=args.buffer_capacity,
        cache_size=args.cache_size,
        range_cache_size=args.range_cache_size,
    )
    server = ShardServer(shard, host=args.host, port=args.port)

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

    server.serve(on_ready=on_ready)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
