"""The fleet's front door: admission, shedding, drain, restart.

:class:`FrontDoor` sits between clients and a
:class:`~repro.shard.router.ShardedVideoDatabase` (usually one built
with :meth:`~repro.shard.router.ShardedVideoDatabase.from_shards` over
:class:`~repro.serve.transport.RemoteShard` proxies) and decides, for
every query, *whether it runs at all* before any work is spent on it:

1. **Draining?**  A front door that has begun shutting down sheds with
   :class:`~repro.serve.protocol.ServiceDraining`.
2. **Rate limit.**  One :class:`TokenBucket` meters every query; an
   empty bucket sheds with :class:`~repro.serve.protocol.RateLimited`.
3. **Queue depth.**  A query is admitted only while fewer than
   ``max_queue`` wait in the queue; a full queue sheds with
   :class:`~repro.serve.protocol.ServiceOverloaded`.

Shedding is *cheap by construction*: all three checks happen before the
query touches the router, so an overload burst costs the service a few
dictionary operations per rejected query instead of a scatter.  An
admitted query is first looked up in a read-only router's answer memo
(outside the front door's lock); a hit is answered right there, on the
submitting thread, without a queue or a worker hop.  The rest are served
by a small worker pool through the router's *resilient* path
(``fail_fast=False``), so a shard mid-restart degrades the answer
instead of erroring it.

:class:`NetworkFleet` is the composition root: it reads a durable
fleet's ``shards.json`` manifest, stands up one
:class:`~repro.serve.shard_server.ShardServer` per shard (in-process
threads or real subprocesses), wires :class:`RemoteShard` proxies into a
read-only router, and mounts a :class:`FrontDoor` on top.  Its
:meth:`~NetworkFleet.restart_shard` drains one shard server under live
traffic and reconnects its proxy to the replacement.  The router
memoises complete answers, so a repeated query is answered at admission,
before any leg is sent.

:class:`FrontDoorServer` exposes a front door over TCP with the same
framing the shard servers speak (``repro-video serve`` runs one).
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import threading
from concurrent.futures import Future

from repro.serve.protocol import (
    RateLimited,
    ServiceDraining,
    ServiceOverloaded,
    stats_to_wire,
)
from repro.replication import ReplicaSet, ReplicaShard
from repro.serve.shard_server import ShardServer, ShardServerHandle
from repro.serve.transport import FrameServer, RemoteShard
from repro.shard.router import ShardedKNNResult, ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.utils.clock import Clock, SystemClock
from repro.utils.locks import make_lock
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["FrontDoor", "FrontDoorServer", "NetworkFleet", "TokenBucket"]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Refill is computed lazily from the injected clock at each
    :meth:`try_acquire`, so there is no background thread and a
    :class:`~repro.utils.clock.VirtualClock` drives it deterministically
    in tests.  The clock is read *before* the bucket's lock is taken;
    since a ``VirtualClock``'s offsets are per context (every thread
    starts with its own), another thread's sleeps can make consecutive
    readings non-monotonic across threads — a reading older than the
    last refill stamp simply adds no tokens (time never runs backwards
    inside the bucket).
    """

    def __init__(
        self, rate: float, burst: float, *, clock: Clock | None = None
    ) -> None:
        self._rate = check_positive(rate, "rate")
        self._burst = check_positive(burst, "burst")
        self._clock = clock if clock is not None else SystemClock()
        self._lock = make_lock("TokenBucket._lock")
        self._tokens = float(burst)
        self._stamp = self._clock.now()

    def try_acquire(self) -> bool:
        """Take one token if one is available; never blocks."""
        now = self._clock.now()
        with self._lock:
            if now > self._stamp:
                self._tokens = min(
                    self._burst,
                    self._tokens + (now - self._stamp) * self._rate,
                )
                self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"TokenBucket(rate={self._rate}, burst={self._burst}, "
                f"tokens={self._tokens:.3f})"
            )


class FrontDoor:
    """Bounded admission in front of a sharded router.

    Parameters
    ----------
    router:
        The (usually read-only) :class:`ShardedVideoDatabase` to serve.
    max_queue:
        Admission queue depth; queries beyond it shed with
        :class:`ServiceOverloaded` instead of piling up latency.
    workers:
        Serving threads draining the queue.  Each admitted query still
        fans out across all relevant shards inside the router.
    rate, burst:
        The front door's one token bucket (tokens/second and capacity),
        shared by every query.  ``None`` disables rate limiting;
        ``burst`` defaults to ``rate``.
    clock:
        Drives the token bucket; tests inject a
        :class:`~repro.utils.clock.VirtualClock`.
    drain_timeout:
        Per-thread join budget during :meth:`drain`.
    """

    def __init__(
        self,
        router: ShardedVideoDatabase,
        *,
        max_queue: int = 32,
        workers: int = 2,
        rate: float | None = None,
        burst: float | None = None,
        clock: Clock | None = None,
        drain_timeout: float = 5.0,
    ) -> None:
        check_positive_int(max_queue, "max_queue")
        check_positive_int(workers, "workers")
        self._router = router
        self._bucket = (
            TokenBucket(rate, burst if burst is not None else rate, clock=clock)
            if rate is not None
            else None
        )
        self._rate = rate
        self._max_queue = max_queue
        self._drain_timeout = drain_timeout
        # Guards the admission state: the draining flag, the queue bound
        # and the stats tallies.  Never held across any blocking call —
        # admission is put_nowait, shedding is a counter bump.
        self._lock = make_lock("FrontDoor._lock")
        # Unbounded, so drain() hands every worker its stop sentinel
        # without waiting; submit() enforces max_queue under _lock.
        self._queue: queue.Queue = queue.Queue()
        self._draining = False
        self._stats = {
            "admitted": 0,
            "completed": 0,
            "failed": 0,
            "shed_overload": 0,
            "shed_rate_limited": 0,
            "shed_draining": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._worker,
                name=f"frontdoor-worker-{position}",
                daemon=True,
            )
            for position in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, query, k: int) -> Future:
        """Admit one query (or shed it, typed) and return its future.

        The returned :class:`~concurrent.futures.Future` resolves to the
        router's :class:`~repro.shard.router.ShardedKNNResult`.  Shed
        queries never enter the queue: this method raises
        :class:`ServiceDraining`, :class:`RateLimited` or
        :class:`ServiceOverloaded` *synchronously*.  An admitted query
        the router's memo answers (see
        :meth:`~repro.shard.router.ShardedVideoDatabase.cached_answer`)
        never enters it either: its future is resolved here, on the
        calling thread, and it counts as admitted and completed.
        """
        with self._lock:
            if self._draining:
                self._stats["shed_draining"] += 1
                raise ServiceDraining(
                    "front door is draining; not admitting queries"
                )
        if self._bucket is not None and not self._bucket.try_acquire():
            with self._lock:
                self._stats["shed_rate_limited"] += 1
            raise RateLimited(f"exceeded {self._rate} queries/second")
        with self._lock:
            self._shed_if_full()
        future: Future = Future()
        # Outside _lock: the probe takes the router's leaf memo lock.
        try:
            answer = self._router.cached_answer(query, k)
        except (TypeError, ValueError):
            answer = None  # malformed: the worker's knn raises it, as before
        with self._lock:
            if answer is None:
                self._shed_if_full()  # the queue may have filled meanwhile
                self._queue.put_nowait((future, query, k))
            else:
                self._stats["completed"] += 1
            self._stats["admitted"] += 1
        if answer is not None:
            future.set_result(answer)
        return future

    def _shed_if_full(self) -> None:
        """Shed with :class:`ServiceOverloaded` while ``max_queue``
        queries wait (caller holds ``_lock``)."""
        if self._queue.qsize() >= self._max_queue:
            self._stats["shed_overload"] += 1
            raise ServiceOverloaded(
                f"admission queue is full ({self._max_queue} deep)"
            )

    def query_sync(
        self, query, k: int, *, timeout: float | None = None
    ) -> ShardedKNNResult:
        """Admit and wait: :meth:`submit` plus ``Future.result()``."""
        return self.submit(query, k).result(timeout)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, query, k = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = self._router.knn(query, k, fail_fast=False)
            except BaseException as exc:
                future.set_exception(exc)
                self._bump("failed")
            else:
                future.set_result(result)
                self._bump("completed")

    def _bump(self, key: str) -> None:
        with self._lock:
            self._stats[key] += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Admission and outcome tallies plus the live queue depth."""
        with self._lock:
            snapshot = dict(self._stats)
        snapshot["queue_depth"] = self._queue.qsize()
        return snapshot

    def drain(self) -> None:
        """Stop admitting, finish the queue, stop the workers.

        Queued-but-unserved work left behind by a worker that missed its
        join budget gets :class:`ServiceDraining` set on its future, so
        no caller ever blocks on a future nobody will complete.  A
        worker still stuck in a query gets a fresh stop sentinel, so it
        exits once that query returns.  Idempotent.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        for _ in self._threads:
            self._queue.put_nowait(None)
        for thread in self._threads:
            thread.join(self._drain_timeout)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                item[0].set_exception(
                    ServiceDraining(
                        "front door drained before this query ran"
                    )
                )
        for thread in self._threads:
            if thread.is_alive():
                self._queue.put_nowait(None)

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    def __repr__(self) -> str:
        return (
            f"FrontDoor(queue={self._queue.qsize()}/{self._max_queue}, "
            f"workers={len(self._threads)})"
        )


class NetworkFleet:
    """A durable fleet stood up as a network service, end to end.

    Reads ``path``'s ``shards.json`` manifest (written by a durable
    :class:`~repro.shard.router.ShardedVideoDatabase`), serves every
    shard directory behind its own :class:`ShardServer`, and mounts a
    :class:`FrontDoor` over a read-only router of
    :class:`RemoteShard` proxies.

    Parameters
    ----------
    path:
        The fleet directory (must contain ``shards.json``).
    mode:
        ``"thread"`` — each shard server runs on a daemon thread in
        this process (fast, deterministic with an injected clock).
        ``"subprocess"`` — each shard server is a real
        ``python -m repro.serve.shard_server`` child process.
    clock:
        Shared by the router, the front door's buckets and (thread
        mode) every shard server.  Subprocess servers run on their own
        system clock — see :mod:`repro.utils.clock`.
    cache_size:
        Each served copy's engine result cache.  The router's fleet memo
        (fixed size) admits only answers every leg served from this
        cache, so ``0`` also leaves the memo empty.
    replicas_per_shard:
        Read replicas behind each shard endpoint (thread mode only).
        Each shard server then fronts a
        :class:`~repro.replication.group.ReplicaSet`: the primary plus
        ``N`` :class:`~repro.replication.replica.ReplicaShard` copies
        restored from the primary's checkpoint into sibling
        ``<shard-dir>-replica<i>`` directories, with reads
        load-balanced across the copies.
    range_cache_size:
        Page-tier pages per served copy's engine (see
        :class:`~repro.core.engine.QueryEngine`; 0 disables).
    max_queue, workers, rate, burst, drain_timeout:
        Front-door knobs, forwarded verbatim.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        mode: str = "thread",
        clock: Clock | None = None,
        cache_size: int = 128,
        buffer_capacity: int = 256,
        replicas_per_shard: int = 0,
        range_cache_size: int = 0,
        max_queue: int = 32,
        workers: int = 2,
        rate: float | None = None,
        burst: float | None = None,
        drain_timeout: float = 5.0,
    ) -> None:
        if mode not in ("thread", "subprocess"):
            raise ValueError(
                f"mode must be 'thread' or 'subprocess', got {mode!r}"
            )
        if replicas_per_shard < 0:
            raise ValueError("replicas_per_shard must be >= 0")
        if replicas_per_shard and mode != "thread":
            raise ValueError(
                "replicas_per_shard requires mode='thread' (subprocess "
                "servers own their shard directory exclusively)"
            )
        self._path = os.fspath(path)
        manifest_path = os.path.join(self._path, "shards.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        self._epsilon = float(manifest["epsilon"])
        self._reference = str(manifest.get("reference", "optimal"))
        self._seed = int(manifest.get("summarize_seed", 0))
        self._mode = mode
        self._clock = clock if clock is not None else SystemClock()
        self._cache_size = cache_size
        self._buffer_capacity = buffer_capacity
        self._replicas_per_shard = replicas_per_shard
        self._range_cache_size = range_cache_size
        self._drain_timeout = drain_timeout
        self._closed = False
        self._shard_dirs = [
            os.path.join(self._path, name) for name in manifest["shards"]
        ]
        self._servers: dict[int, object] = {}
        self._remotes: list[RemoteShard] = []
        try:
            for position, shard_dir in enumerate(self._shard_dirs):
                host, port = self._start_server(position, shard_dir)
                self._remotes.append(RemoteShard(position, host, port))
            self._router = ShardedVideoDatabase.from_shards(
                list(self._remotes),
                epsilon=self._epsilon,
                clock=self._clock,
            )
            self._frontdoor = FrontDoor(
                self._router,
                max_queue=max_queue,
                workers=workers,
                rate=rate,
                burst=burst,
                clock=self._clock,
                drain_timeout=drain_timeout,
            )
        except BaseException:
            # A later shard (or the front door) failed to come up: the
            # servers already listening hold shard directories open.
            self._closed = True
            self._stop_servers()
            for remote in self._remotes:
                remote.close()
            raise

    def _start_server(self, position: int, shard_dir: str) -> tuple[str, int]:
        """Stand up one shard server and record its handle."""
        if self._mode == "thread":
            shard = Shard(
                position,
                epsilon=self._epsilon,
                reference=self._reference,
                summarize_seed=self._seed,
                path=shard_dir,
                buffer_capacity=self._buffer_capacity,
                cache_size=self._cache_size,
                range_cache_size=self._range_cache_size,
            )
            endpoint = (
                self._replicate(shard, shard_dir)
                if self._replicas_per_shard
                else shard
            )
            server = ShardServer(endpoint, clock=self._clock)
            host, port = server.run_in_thread()
            self._servers[position] = server
            return host, port
        handle = ShardServerHandle.spawn(
            shard_dir,
            position,
            epsilon=self._epsilon,
            cache_size=self._cache_size,
            buffer_capacity=self._buffer_capacity,
            range_cache_size=self._range_cache_size,
        )
        self._servers[position] = handle
        return handle.host, handle.port

    def _replicate(self, primary: Shard, shard_dir: str) -> ReplicaSet:
        """Wrap one primary in a replica group with restored copies.

        Replica directories sit next to the shard's
        (``<shard-dir>-replica<i>``), so the manifest's directories stay
        byte-owned by their primaries and a restore can overwrite a
        replica's directory without touching durable state.
        """
        group = ReplicaSet(primary, clock=self._clock)
        for index in range(self._replicas_per_shard):
            group.attach_replica(
                ReplicaShard(
                    primary.shard_id,
                    f"{shard_dir}-replica{index}",
                    epsilon=self._epsilon,
                    buffer_capacity=self._buffer_capacity,
                    cache_size=self._cache_size,
                    range_cache_size=self._range_cache_size,
                )
            )
        return group

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardedVideoDatabase:
        """The read-only router over the remote proxies."""
        return self._router

    @property
    def frontdoor(self) -> FrontDoor:
        """The admission layer clients should go through."""
        return self._frontdoor

    @property
    def num_shards(self) -> int:
        """Fleet size (one server per shard directory)."""
        return len(self._shard_dirs)

    @property
    def epsilon(self) -> float:
        """The fleet's frame similarity threshold (from the manifest)."""
        return self._epsilon

    def status(self) -> dict:
        """Front-door stats plus each live shard server's status."""
        shards = {}
        for remote in self._remotes:
            try:
                shards[remote.shard_id] = remote.status()
            except (OSError, ConnectionError) as exc:
                shards[remote.shard_id] = {"error": str(exc)}
        return {"frontdoor": self._frontdoor.stats(), "shards": shards}

    # ------------------------------------------------------------------
    # Serving / lifecycle
    # ------------------------------------------------------------------
    def submit(self, query, k: int) -> Future:
        """Admit one query through the front door."""
        return self._frontdoor.submit(query, k)

    def query_sync(
        self, query, k: int, *, timeout: float | None = None
    ) -> ShardedKNNResult:
        """Admit one query and wait for its result."""
        return self._frontdoor.query_sync(query, k, timeout=timeout)

    def restart_shard(
        self, shard_id: int, *, timeout: float | None = None
    ) -> tuple[str, int]:
        """Drain one shard server and bring up its replacement.

        The drain checkpoints the shard (close always does for durable
        shards), the replacement reopens the same directory, and the
        shard's :class:`RemoteShard` proxy reconnects to the new
        address.  Queries scattered to the shard meanwhile see
        :class:`ServiceDraining` / connection errors — both retryable —
        so front-door traffic degrades instead of failing.
        """
        self._stop_server(
            self._servers[shard_id],
            timeout if timeout is not None else self._drain_timeout,
        )
        host, port = self._start_server(shard_id, self._shard_dirs[shard_id])
        self._remotes[shard_id].reconnect(host, port)
        return host, port

    def close(self) -> None:
        """Drain the front door, every shard server, then the router."""
        if self._closed:
            return
        self._closed = True
        self._frontdoor.drain()
        self._stop_servers()
        self._router.close()

    def _stop_servers(self) -> None:
        """Drain every shard server started so far (each drain
        checkpoints and closes the shard it serves)."""
        for server in self._servers.values():
            self._stop_server(server, self._drain_timeout)

    def _stop_server(self, server, wait: float) -> None:
        """Drain one shard server and wait up to ``wait`` seconds for it
        to exit; a child process that outlives the wait is killed."""
        if self._mode == "thread":
            server.drain()
            server.wait_closed(wait)
            return
        try:
            server.drain(timeout=wait)
        except (OSError, ConnectionError):
            pass  # already gone; nothing left to drain
        try:
            server.wait(wait)
        except subprocess.TimeoutExpired:
            server.kill()

    def __enter__(self) -> "NetworkFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"NetworkFleet(path={self._path!r}, mode={self._mode!r}, "
            f"shards={len(self._shard_dirs)})"
        )


def _result_to_wire(result: ShardedKNNResult) -> dict:
    """JSON body for one sharded result (scores survive exactly)."""
    body = {
        "videos": list(result.videos),
        "scores": list(result.scores),
        "stats": stats_to_wire(result.stats),
        "scatter": {
            "shards_total": result.scatter.shards_total,
            "shards_queried": list(result.scatter.shards_queried),
            "shards_pruned": list(result.scatter.shards_pruned),
        },
    }
    if result.coverage is not None:
        body["coverage"] = {
            "complete": result.coverage.complete,
            "shards_answered": list(result.coverage.shards_answered),
            "shards_pruned": list(result.coverage.shards_pruned),
            "shards_failed": list(result.coverage.shards_failed),
            "shards_timed_out": list(result.coverage.shards_timed_out),
            "shards_tripped": list(result.coverage.shards_tripped),
        }
    return body


class FrontDoorServer(FrameServer):
    """The front door over TCP, speaking the shard-server framing.

    Ops: ``status`` (front-door stats) and ``knn`` (param ``k``; the
    query summary rides as the request's binary blob, the answer comes
    back as a binary knn reply, see :mod:`repro.serve.protocol`).
    Admission errors come back as the same typed error frames a shard
    server sends, so one client codec serves both layers.  Each
    connection's thread submits its query and waits for the answer
    itself; :meth:`stop` lets those in flight finish.
    """

    def __init__(
        self,
        frontdoor: FrontDoor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__("frontdoor-server", "front door", host=host, port=port)
        self._frontdoor = frontdoor

    def _execute(self, op: str, params: dict, summary) -> dict:
        if op == "status":
            return {"stats": self._frontdoor.stats()}
        if op == "knn":
            if summary is None:
                raise ValueError("op 'knn' requires a query summary")
            # submit() is non-blocking (sheds synchronously, typed);
            # only the admitted query's completion is waited for.
            future = self._frontdoor.submit(summary, int(params["k"]))
            return _result_to_wire(future.result())
        raise ValueError(f"unknown op {op!r}")
