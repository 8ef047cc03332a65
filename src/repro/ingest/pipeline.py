"""Streaming ingest: bounded admission, WAL-batched commits, typed sheds.

:class:`IngestPipeline` is the write-side front door, and a sharded
fleet (:class:`~repro.shard.router.ShardedVideoDatabase`) is the only
target it takes.  Producers :meth:`~IngestPipeline.submit` summaries
into a bounded queue; a pump (inline or a background thread) drains
them in batches into the fleet, which routes each insert through its
partitioner, and a durable fleet commits each batch with **one**
checkpoint, so a crash can only lose whole batches, never split one.

The admission discipline mirrors :class:`repro.serve.FrontDoor`: a full
queue or a draining pipeline sheds with a *typed* error before any work
is done — :class:`IngestOverloaded` / :class:`IngestDraining`, both
:class:`IngestBackpressure` — so producers can tell "back off and
retry" from a real failure, exactly like the read path's 429-shaped
refusals.  Admission and drain share one lock, so a producer can never
slip a summary past a concurrent :meth:`~IngestPipeline.drain`'s final
flush: everything counted ``submitted`` is either committed by the
drain or was shed with a typed error.

With a :class:`~repro.ingest.drift.DriftMonitor` attached, every
committed batch feeds per-shard insert counts, keyed by shard position
(fixed for a fleet's life); when a measurement says the principal angle
drifted past the threshold, the pipeline calls the router's
:meth:`~repro.shard.router.ShardedVideoDatabase.rebuild_shard` on that
position, which runs the online rebuild (:mod:`repro.ingest.cutover`)
while queries keep being served.

A commit failure never silently kills ingestion: the background worker
records the error, keeps the un-applied remainder of the batch for the
next attempt, and retries with backoff.  A fleet rebuild in flight is
not such a failure: a fleet write waits on the rebuild's write barrier
and then lands.  Only after eight consecutive failures does the
pipeline transition to a terminal failed state, which
:meth:`~IngestPipeline.submit` then reports as :class:`IngestFailed`
instead of letting producers fill a queue nobody drains.

The worker's backoff sleeps read the injected
:class:`~repro.utils.clock.Clock` (VIL007): a virtual-clock test replays
the pipeline's entire schedule deterministically.
"""

from __future__ import annotations

# vilint: disable-file=blocking-while-locked -- the pump lock exists
# precisely to serialise committers: a commit IS durable I/O (batch
# checkpoint, online rebuild's side build + pointer swap), and holding
# the lock across it is the invariant the oracle-checkpoint quiesce and
# the one-checkpoint-per-batch contract rely on.  Admission (submit) never
# takes this lock, so producers are not blocked by an in-flight commit.

import queue
import threading

from repro.core.vitri import VideoSummary
from repro.ingest.drift import DriftMonitor
from repro.shard.router import ShardedVideoDatabase
from repro.utils.clock import Clock, SystemClock
from repro.utils.locks import make_lock

__all__ = [
    "IngestBackpressure",
    "IngestDraining",
    "IngestFailed",
    "IngestOverloaded",
    "IngestPipeline",
]

# The background worker's sleep schedule: deterministic doubling from
# _MIN_BACKOFF to _MAX_BACKOFF seconds, no jitter (reruns replay
# identically), shared by idle polls and commit-failure retries.
_MIN_BACKOFF = 0.005
_MAX_BACKOFF = 0.25
# Consecutive commit failures the worker retries before it parks the
# pipeline in the terminal failed state.
_MAX_PUMP_FAILURES = 8


class IngestBackpressure(RuntimeError):
    """Base of the pipeline's typed sheds (retriable by construction)."""


class IngestOverloaded(IngestBackpressure):
    """The admission queue is full; back off and resubmit."""


class IngestDraining(IngestBackpressure):
    """The pipeline is draining/closed; no new work is admitted."""


class IngestFailed(RuntimeError):
    """The pump failed terminally; submissions are refused, not queued.

    Deliberately *not* an :class:`IngestBackpressure`: retrying will not
    help until an operator intervenes (``stats()["failed"]`` carries the
    last error).
    """


class IngestPipeline:
    """Bounded, batching ingest into a live serving fleet.

    Parameters
    ----------
    target:
        The writable :class:`~repro.shard.router.ShardedVideoDatabase`
        summaries land in; anything else, a read-only
        :meth:`~repro.shard.router.ShardedVideoDatabase.from_shards`
        router included, raises :class:`TypeError`.
    batch_size:
        Summaries per commit (one fleet checkpoint when durable).
    max_queue:
        Admission bound; a full queue sheds :class:`IngestOverloaded`.
    clock:
        Injected clock for pump backoff (defaults to the system clock).
    drift:
        Optional :class:`DriftMonitor`; ``None`` disables drift-triggered
        rebuilds.
    """

    def __init__(
        self,
        target,
        *,
        batch_size: int = 32,
        max_queue: int = 256,
        clock: Clock | None = None,
        drift: DriftMonitor | None = None,
    ) -> None:
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ValueError(f"batch_size must be a positive int, got {batch_size}")
        if not isinstance(max_queue, int) or max_queue < 1:
            raise ValueError(f"max_queue must be a positive int, got {max_queue}")
        if drift is not None and not isinstance(drift, DriftMonitor):
            raise TypeError("drift must be a DriftMonitor")
        if not isinstance(target, ShardedVideoDatabase) or not target.writable:
            raise TypeError(
                "target must be a writable ShardedVideoDatabase (not a "
                "read-only from_shards router)"
            )
        self._fleet = target
        self._batch_size = batch_size
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._clock = clock if clock is not None else SystemClock()
        if not isinstance(self._clock, Clock):
            raise TypeError("clock must be a Clock")
        self._drift = drift
        self._pump_lock = make_lock("IngestPipeline._pump_lock")
        self._admit_lock = make_lock("IngestPipeline._admit_lock")
        # Un-applied remainder of a failed commit, recommitted before
        # anything newly queued (only touched under the pump lock).
        self._carry: list[VideoSummary] = []
        self._draining = False
        self._failed: BaseException | None = None
        self._last_error: str | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.submitted = 0
        self.ingested = 0
        self.rejected = 0
        self.shed = 0
        self.batches = 0
        self.rebuilds = 0
        self.pump_errors = 0

    # ------------------------------------------------------------------
    # Admission (producer side)
    # ------------------------------------------------------------------
    def submit(self, summary: VideoSummary) -> None:
        """Admit one summary, or shed with a typed backpressure error.

        All refusals happen *before* any work — the FrontDoor
        discipline: a shed costs the producer nothing but the retry.
        Admission runs under the same lock :meth:`drain` uses to raise
        its flag, so a summary is either visible to the drain's final
        flush or refused — never admitted-and-abandoned.
        """
        if not isinstance(summary, VideoSummary):
            raise TypeError("summary must be a VideoSummary")
        with self._admit_lock:
            if self._failed is not None:
                raise IngestFailed(
                    "ingest pump failed terminally "
                    f"({self._last_error}); see stats()['failed']"
                ) from self._failed
            if self._draining:
                self.shed += 1
                raise IngestDraining("pipeline is draining; resubmit later")
            try:
                self._queue.put_nowait(summary)
            except queue.Full:
                self.shed += 1
                raise IngestOverloaded(
                    f"ingest queue full ({self._queue.maxsize}); back off"
                ) from None
            self.submitted += 1

    @property
    def depth(self) -> int:
        """Admitted, uncommitted summaries (queued + carried by a retry)."""
        return self._queue.qsize() + len(self._carry)  # vilint: disable=guard-discipline -- monitoring read: _carry is reassigned (never mutated in place) under the pump lock, and a momentarily stale length must not block producers behind an in-flight commit

    # ------------------------------------------------------------------
    # Pump (consumer side)
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Drain the queue into batched commits; returns summaries committed.

        Safe to call concurrently with :meth:`start`'s worker — a pump
        lock serialises committers, and admission stays open throughout.
        A commit failure propagates to the caller; the batch's
        un-applied remainder is kept and recommitted by the next pump.
        """
        committed = 0
        with self._pump_lock:
            while True:
                batch = self._take_batch()
                if not batch:
                    return committed
                committed += self._commit_batch(batch)

    def _take_batch(self) -> list[VideoSummary]:
        """Assemble one batch: a failed commit's carry first, then the queue."""
        batch = self._carry
        self._carry = []
        while len(batch) < self._batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _commit_batch(self, batch: list[VideoSummary]) -> int:
        try:
            applied, landed = self._apply(batch)
        except Exception:
            # ``_apply`` consumes ``batch`` destructively, so whatever
            # it did not reach is still in it: keep that remainder for
            # the next pump instead of losing a dequeued batch.
            self._carry = batch
            raise
        self._after_commit(landed)
        return applied

    def _apply(self, batch: list[VideoSummary]) -> tuple[int, dict[int, int]]:
        """Insert a batch and commit it durably.

        Returns ``(applied, landed)``: how many summaries landed, and
        per-shard-position counts for drift accounting.  The batch list
        is consumed front-to-back, so on failure it holds exactly the
        un-applied remainder.
        """
        applied = 0
        landed: dict[int, int] = {}
        while batch:
            try:
                video_id = self._fleet.add_summary(batch[0])
            except (TypeError, ValueError):
                self.rejected += 1
                batch.pop(0)
                continue
            batch.pop(0)
            applied += 1
            self.ingested += 1
            position = self._fleet.shard_of(video_id)
            landed[position] = landed.get(position, 0) + 1
        if applied and self._fleet.path is not None:
            # One checkpoint per batch: the whole batch becomes one WAL
            # transaction on each shard it touched.
            self._fleet.checkpoint()
        self.batches += 1
        return applied, landed

    def _after_commit(self, landed: dict[int, int]) -> None:
        if self._drift is None:
            return
        for position, count in landed.items():
            index = self._fleet.shards[position].database.index
            if index is None:
                continue
            check = self._drift.observe(position, index, inserted=count)
            if check is not None and check.rebuild:
                self._fleet.rebuild_shard(position)
                self._drift.forget(position)
                self.rebuilds += 1

    # ------------------------------------------------------------------
    # Background worker
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the pump on a background thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("pipeline worker already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="ingest-pump", daemon=True
        )
        self._thread.start()

    def _pump_once(self) -> int:
        """Commit at most one batch — whatever is carried or queued,
        partial or full; the worker's pump path."""
        with self._pump_lock:
            batch = self._take_batch()
            if not batch:
                return 0
            return self._commit_batch(batch)

    def _run(self) -> None:
        backoff = _MIN_BACKOFF
        failures = 0
        while not self._stop.is_set():
            try:
                committed = self._pump_once()
            except Exception as exc:
                # A dead pump thread must never be silent: record every
                # failure, retry with backoff, and past the
                # consecutive-failure budget park the pipeline in a
                # state submit() reports.
                self.pump_errors += 1
                failures += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
                if failures >= _MAX_PUMP_FAILURES:
                    self._failed = exc
                    return
                self._clock.sleep(backoff)
                backoff = min(backoff * 2.0, _MAX_BACKOFF)
                continue
            failures = 0
            if committed > 0:
                backoff = _MIN_BACKOFF
            else:
                self._clock.sleep(backoff)
                backoff = min(backoff * 2.0, _MAX_BACKOFF)

    def stop(self) -> None:
        """Stop the background worker (queued work stays queued)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def drain(self) -> int:
        """Refuse new work, stop the worker, commit everything queued.

        Returns the number of summaries committed by the final pump.
        The draining flag is raised under the admission lock, so every
        summary counted ``submitted`` is either already in the queue
        when the final pump runs or was refused with a typed shed —
        nothing admitted is left volatile.  Drain ingest *before* the
        front door's query drain so the last served queries see every
        acknowledged write.
        """
        with self._admit_lock:
            self._draining = True
        self.stop()
        return self.pump()

    def close(self) -> None:
        """Alias for :meth:`drain` (context-manager friendly)."""
        self.drain()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters snapshot (submitted/ingested/rejected/shed/...).

        Taken under both the pump and admission locks so commit-side
        *and* producer-side counters are each a consistent cut (never
        mid-batch, never mid-submit).  ``pump_errors`` counts every
        commit failure the worker survived; ``failed`` is ``None`` while
        healthy, else the terminal error message.
        """
        with self._pump_lock:
            with self._admit_lock:
                return {
                    "submitted": self.submitted,
                    "ingested": self.ingested,
                    "rejected": self.rejected,
                    "shed": self.shed,
                    "batches": self.batches,
                    "rebuilds": self.rebuilds,
                    "depth": self.depth,
                    "draining": self._draining,
                    "pump_errors": self.pump_errors,
                    "failed": (
                        self._last_error if self._failed is not None else None
                    ),
                    "drift_checks": self._drift.checks if self._drift else 0,
                }

    def __repr__(self) -> str:
        with self._pump_lock:
            return (
                f"IngestPipeline(ingested={self.ingested}, "
                f"depth={self.depth}, rebuilds={self.rebuilds})"
            )
