"""Fault tolerance for the scatter-gather query path.

The plain router treats the fleet as all-or-nothing: one slow or failing
shard fails the whole query.  This module supplies the policies and state
machines that let :class:`~repro.shard.router.ShardedVideoDatabase`
survive partial failure instead:

* :class:`RetryPolicy` — bounded attempts with deterministic exponential
  backoff.  Jitter comes from a seeded hash of ``(seed, shard, attempt)``,
  not a wall-clock RNG, so the same seed always produces the same backoff
  schedule (the property ``tests/test_shard_resilience.py`` asserts).
* Per-shard **deadlines** — ``FaultPolicy.deadline`` is the *total*
  clock-time budget for resolving one shard's sub-query: attempts and
  backoff sleeps all draw from one
  :class:`~repro.utils.clock.Deadline`.  The budget is enforced
  *before* work happens: budget-aware work (``Shard.knn``'s
  ``deadline=`` seam, the fault injector's post-sleep check, a remote
  shard server) raises :class:`ShardTimeout` instead of computing an
  answer nobody is waiting for, and :func:`run_attempts` skips retries
  whose budget is already spent rather than running them and
  discarding the result.  A discarded attempt's cost bundle is *not*
  folded into the query's stats, so retries can never double-count
  :class:`~repro.utils.counters.CostCounters`.
* :class:`CircuitBreaker` — per-shard closed/open/half-open state machine
  with a failure-rate window, a cooldown, and a probe budget.  An open
  breaker fails the shard fast (disposition ``tripped``) instead of
  burning a full retry schedule on every query.
* :class:`Coverage` — the degraded-results protocol.  In degraded mode
  (``fail_fast=False``) the router returns whatever the surviving shards
  answered plus a coverage report saying exactly which shards were
  answered, pruned, timed out, tripped or failed — and therefore whether
  the merged top-k is provably complete.  Key-bounds pruning keeps its
  losslessness: a pruned shard provably contributes nothing, so pruning
  never makes a result incomplete.

Everything here is deterministic by construction: no ``time`` module, no
``random`` module (enforced by the ``injected-clock`` vilint rule) — time
comes from the injected clock, jitter from the seeded hash.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import deque
from dataclasses import dataclass, field

from repro.storage.faults import SimulatedCrash
from repro.utils.clock import Clock, Deadline
from repro.utils.counters import CostCounters
from repro.utils.locks import make_lock
from repro.utils.stats import percentile

__all__ = [
    "ANSWERED",
    "FAILED",
    "TIMED_OUT",
    "TRIPPED",
    "AttemptOutcome",
    "BreakerPolicy",
    "CircuitBreaker",
    "Coverage",
    "FaultPolicy",
    "FleetHealth",
    "HealthStats",
    "InjectedShardError",
    "RetryPolicy",
    "ScatterError",
    "ShardDown",
    "ShardTimeout",
    "run_attempts",
]

_JITTER = struct.Struct("<qqq")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------
class ShardTimeout(RuntimeError):
    """A shard sub-query ran out of its clock-time budget."""


class ShardDown(RuntimeError):
    """A shard is unavailable (hard-down injection or an open breaker)."""


class InjectedShardError(RuntimeError):
    """A scripted transient error from a :class:`ShardFaultInjector`."""


class ScatterError(RuntimeError):
    """All of a scatter's worker errors, with per-shard attribution.

    The headline (first line of ``str(exc)``) is the first failing
    shard's error message — what ``raise errors[0]`` used to surface —
    followed by one attributed line per failed shard, so no worker error
    is ever discarded.  The raw exceptions are kept in :attr:`failures`.
    """

    def __init__(self, failures: dict[int, BaseException]) -> None:
        if not failures:
            raise ValueError("ScatterError needs at least one failure")
        self.failures = dict(failures)
        ordered = sorted(self.failures.items())
        first = ordered[0][1]
        lines = [str(first)]
        for shard_id, error in ordered:
            lines.append(
                f"  shard {shard_id}: {type(error).__name__}: {error}"
            )
        super().__init__("\n".join(lines))
        self.__cause__ = first


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------
def _check_fraction(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _check_positive_number(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def _check_count(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff + jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts per shard per query (1 = no retries).
    base_backoff:
        Sleep before the first retry, in clock seconds.
    multiplier:
        Exponential growth factor between retries.
    max_backoff:
        Cap on any single backoff sleep.
    jitter:
        Fraction of the nominal backoff that the seeded jitter may move
        it by (``0.5`` means each sleep lands in ``[0.5x, 1.5x]``).
    seed:
        Jitter seed.  The jitter for retry ``i`` on shard ``s`` is a pure
        hash of ``(seed, s, i)``, so schedules are reproducible and
        independent of call order or threading.
    """

    max_attempts: int = 3
    base_backoff: float = 0.01
    multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count(self.max_attempts, "max_attempts")
        _check_positive_number(self.base_backoff, "base_backoff")
        _check_positive_number(self.multiplier, "multiplier")
        _check_positive_number(self.max_backoff, "max_backoff")
        _check_fraction(self.jitter, "jitter")

    def backoff(self, shard_id: int, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (1-based) on a shard."""
        _check_count(retry_index, "retry_index")
        nominal = min(
            self.base_backoff * self.multiplier ** (retry_index - 1),
            self.max_backoff,
        )
        packed = _JITTER.pack(self.seed, shard_id, retry_index)
        digest = hashlib.blake2b(packed, digest_size=8).digest()
        fraction = int.from_bytes(digest, "little") / 2.0**64
        # fraction in [0, 1) -> multiplier in [1 - jitter, 1 + jitter).
        return nominal * (1.0 + self.jitter * (2.0 * fraction - 1.0))

    def schedule(self, shard_id: int) -> tuple[float, ...]:
        """The full backoff schedule a shard would see (for tests/docs)."""
        return tuple(
            self.backoff(shard_id, i) for i in range(1, self.max_attempts)
        )


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker tuning.

    The breaker opens when, over the last ``window`` attempt outcomes
    (and at least ``min_volume`` of them), the failure fraction reaches
    ``failure_rate``.  After ``cooldown`` clock seconds it half-opens and
    admits up to ``probe_budget`` probe attempts; that many consecutive
    probe successes close it, any probe failure re-opens it.
    """

    failure_rate: float = 0.5
    window: int = 8
    min_volume: int = 4
    cooldown: float = 1.0
    probe_budget: int = 1

    def __post_init__(self) -> None:
        _check_fraction(self.failure_rate, "failure_rate")
        if self.failure_rate <= 0.0:
            raise ValueError("failure_rate must be > 0")
        _check_count(self.window, "window")
        _check_count(self.min_volume, "min_volume")
        if self.min_volume > self.window:
            raise ValueError(
                f"min_volume ({self.min_volume}) cannot exceed the window "
                f"({self.window})"
            )
        _check_positive_number(self.cooldown, "cooldown")
        _check_count(self.probe_budget, "probe_budget")


# The exception types a retry may fix; anything else (a ``TypeError``
# from a malformed query, say) propagates immediately — retrying a bug
# is not resilience.
_RETRYABLE = (
    ShardTimeout,
    ShardDown,
    InjectedShardError,
    SimulatedCrash,
    OSError,
)


@dataclass(frozen=True)
class FaultPolicy:
    """Everything the resilient scatter path needs, in one bundle.

    ``deadline`` is the shard sub-query's **total** clock-time budget in
    seconds (``None`` = unbounded): every attempt and backoff sleep for
    that shard draws from the same budget, and an attempt whose budget
    is already spent is skipped, not run.  Only the shard-failure
    exceptions (timeouts, down shards, injected faults, ``OSError``)
    are retried; anything else propagates immediately.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError("retry must be a RetryPolicy")
        if not isinstance(self.breaker, BreakerPolicy):
            raise TypeError("breaker must be a BreakerPolicy")
        if self.deadline is not None:
            _check_positive_number(self.deadline, "deadline")


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class CircuitBreaker:
    """Per-shard closed/open/half-open breaker.

    State machine::

        CLOSED --(failure rate >= threshold over window)--> OPEN
        OPEN --(cooldown elapsed)--> HALF_OPEN
        HALF_OPEN --(probe_budget successes)--> CLOSED
        HALF_OPEN --(any probe failure)--> OPEN

    All transitions are driven by the injected clock, so breaker
    behaviour in tests is exactly reproducible.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy) -> None:
        if not isinstance(policy, BreakerPolicy):
            raise TypeError("policy must be a BreakerPolicy")
        self.policy = policy
        self._lock = make_lock("CircuitBreaker._lock")
        self._state = self.CLOSED
        self._window: deque[bool] = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probes_succeeded = 0
        self.opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _open(self, now: float) -> None:
        self._state = self.OPEN
        self._opened_at = now
        self._probes_issued = 0
        self._probes_succeeded = 0
        self.opens += 1

    def allow(self, now: float) -> bool:
        """Whether a request may be dispatched to the shard right now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if now - self._opened_at < self.policy.cooldown:
                    return False
                self._state = self.HALF_OPEN
                self._probes_issued = 0
                self._probes_succeeded = 0
            # HALF_OPEN: admit up to probe_budget in-flight probes.
            if self._probes_issued < self.policy.probe_budget:
                self._probes_issued += 1
                return True
            return False

    def record(self, success: bool, now: float) -> None:
        """Fold one attempt outcome into the state machine."""
        with self._lock:
            self._window.append(success)
            if self._state == self.HALF_OPEN:
                if success:
                    self._probes_succeeded += 1
                    if self._probes_succeeded >= self.policy.probe_budget:
                        self._state = self.CLOSED
                        self._window.clear()
                else:
                    self._open(now)
                return
            if self._state == self.CLOSED and not success:
                if len(self._window) >= self.policy.min_volume:
                    failures = sum(1 for ok in self._window if not ok)
                    if failures / len(self._window) >= self.policy.failure_rate:
                        self._open(now)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CircuitBreaker(state={self._state!r}, "
                f"opens={self.opens}, window={list(self._window)})"
            )


# ---------------------------------------------------------------------------
# Health accounting
# ---------------------------------------------------------------------------
_LATENCY_WINDOW = 128


class HealthStats:
    """One shard's serving-health counters (mutable, router-owned)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.successes = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.retries = 0
        self.timeouts = 0
        self.trips = 0
        self.wasted_page_reads = 0
        self.latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)

    @property
    def p95_latency(self) -> float:
        """95th-percentile attempt latency over the recent window.

        0.0 before the first attempt lands (explicitly: no samples).
        """
        return percentile(sorted(self.latencies), 0.95, default=0.0)

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "successes": self.successes,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "trips": self.trips,
            "wasted_page_reads": self.wasted_page_reads,
            "p95_latency": self.p95_latency,
        }


class FleetHealth:
    """Per-shard :class:`HealthStats` + :class:`CircuitBreaker` registry.

    Owned by the router and shared by every resilient query.  Breakers
    are created lazily with the policy of the first query that touches
    the shard; later queries reuse the existing breaker (retuning a live
    breaker mid-flight would reset its window).
    """

    def __init__(self) -> None:
        self._lock = make_lock("FleetHealth._lock")
        self._stats: dict[int, HealthStats] = {}
        self._breakers: dict[int, CircuitBreaker] = {}

    def stats(self, shard_id: int) -> HealthStats:
        with self._lock:
            if shard_id not in self._stats:
                self._stats[shard_id] = HealthStats(shard_id)
            return self._stats[shard_id]

    def breaker(self, shard_id: int, policy: BreakerPolicy) -> CircuitBreaker:
        with self._lock:
            if shard_id not in self._breakers:
                self._breakers[shard_id] = CircuitBreaker(policy)
            return self._breakers[shard_id]

    def record_success(self, shard_id: int, latency: float) -> None:
        stats = self.stats(shard_id)
        with self._lock:
            stats.successes += 1
            stats.consecutive_failures = 0
            stats.latencies.append(latency)

    def record_failure(self, shard_id: int, *, timeout: bool = False) -> None:
        stats = self.stats(shard_id)
        with self._lock:
            stats.failures += 1
            stats.consecutive_failures += 1
            if timeout:
                stats.timeouts += 1

    def record_retry(self, shard_id: int) -> None:
        stats = self.stats(shard_id)
        with self._lock:
            stats.retries += 1

    def record_trip(self, shard_id: int) -> None:
        stats = self.stats(shard_id)
        with self._lock:
            stats.trips += 1

    def record_waste(self, shard_id: int, page_reads: int) -> None:
        stats = self.stats(shard_id)
        with self._lock:
            stats.wasted_page_reads += page_reads

    def snapshot(self) -> dict[int, dict]:
        """Per-shard health, breaker state included (JSON-friendly)."""
        with self._lock:
            shard_ids = sorted(set(self._stats) | set(self._breakers))
        report: dict[int, dict] = {}
        for shard_id in shard_ids:
            entry = self.stats(shard_id).to_dict()
            with self._lock:
                breaker = self._breakers.get(shard_id)
            entry["breaker_state"] = (
                breaker.state if breaker is not None else CircuitBreaker.CLOSED
            )
            entry["breaker_opens"] = breaker.opens if breaker is not None else 0
            report[shard_id] = entry
        return report


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Coverage:
    """Which shards contributed to a degraded query's answer.

    ``complete`` is a *proof* statement: the merged top-k equals the
    full-fleet answer iff every populated, non-pruned shard answered.
    Pruned shards never threaten completeness — the key-bounds filter is
    lossless, so a pruned shard provably contributes zero-similarity
    videos only.
    """

    shards_total: int
    shards_answered: tuple[int, ...]
    shards_pruned: tuple[int, ...]
    shards_failed: tuple[int, ...] = ()
    shards_timed_out: tuple[int, ...] = ()
    shards_tripped: tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether the merged result is provably the full-fleet answer."""
        return not (
            self.shards_failed or self.shards_timed_out or self.shards_tripped
        )

    @property
    def shards_missing(self) -> tuple[int, ...]:
        """Every shard whose contribution is absent for a bad reason."""
        return tuple(
            sorted(
                set(self.shards_failed)
                | set(self.shards_timed_out)
                | set(self.shards_tripped)
            )
        )

    @property
    def fraction_answered(self) -> float:
        """Answered share of the shards that should have answered."""
        relevant = len(self.shards_answered) + len(self.shards_missing)
        if relevant == 0:
            return 1.0
        return len(self.shards_answered) / relevant

    def to_dict(self) -> dict:
        return {
            "shards_total": self.shards_total,
            "shards_answered": list(self.shards_answered),
            "shards_pruned": list(self.shards_pruned),
            "shards_failed": list(self.shards_failed),
            "shards_timed_out": list(self.shards_timed_out),
            "shards_tripped": list(self.shards_tripped),
            "complete": self.complete,
            "fraction_answered": self.fraction_answered,
        }


# ---------------------------------------------------------------------------
# The per-shard attempt loop
# ---------------------------------------------------------------------------
# How one shard's sub-query resolved (AttemptOutcome.disposition).
ANSWERED = "answered"
FAILED = "failed"
TIMED_OUT = "timed_out"
TRIPPED = "tripped"


@dataclass
class AttemptOutcome:
    """How one shard's sub-query resolved under a fault policy.

    Exactly one of ``result``/``error`` is meaningful: an ``answered``
    outcome carries the result and the one accepted cost ``bundle``
    (every other attempt's cost went to the shard's ``wasted`` tally);
    any other disposition carries the final error instead.
    """

    disposition: str
    result: object = None
    bundle: CostCounters | None = None
    error: BaseException | None = None


def _one_attempt(
    work,
    shard_id: int,
    policy: FaultPolicy,
    clock: Clock,
    deadline: Deadline,
    dispatch: int,
):
    """Run a single attempt; returns ``(result, bundle, latency, error)``.

    The attempt gets its own fresh :class:`CostCounters` bundle, so its
    cost can be accepted or discarded atomically.  ``work`` receives the
    sub-query's shared :class:`Deadline`: budget-aware work (the shard's
    ``deadline=`` seam, the fault injector, a remote shard server)
    raises :class:`ShardTimeout` *before* computing an answer nobody is
    waiting for.  The post-completion check below is the fallback for
    work that ignores its deadline — the result is discarded even though
    it completed, exactly what a caller that stopped waiting would have
    seen.

    ``dispatch`` is this attempt's ordinal within the sub-query — 0 for
    the first attempt, +1 per retry — passed through so a replica group
    can route each dispatch to a different copy.
    """
    bundle = CostCounters()
    start = clock.now()
    try:
        result = work(bundle, deadline, dispatch)
    except _RETRYABLE as exc:
        return None, bundle, clock.now() - start, exc
    latency = clock.now() - start
    if deadline.expired():
        timeout = ShardTimeout(
            f"shard {shard_id} attempt finished {-deadline.remaining():.6f}s "
            f"past its {policy.deadline:.6f}s budget"
        )
        return None, bundle, latency, timeout
    return result, bundle, latency, None


def run_attempts(
    work,
    shard_id: int,
    policy: FaultPolicy,
    health: FleetHealth,
    clock: Clock,
) -> AttemptOutcome:
    """Run one shard's sub-query to resolution under ``policy``.

    ``work(bundle, deadline, dispatch)`` performs one attempt against
    the shard, folding its cost events into the fresh bundle it is
    handed and honouring (or ignoring — the loop copes either way) the
    sub-query's shared :class:`Deadline`.  ``dispatch`` is the attempt's
    ordinal within this resolution (0, then +1 per retry), which a
    replica set folds into copy selection so a retry lands on a
    different copy than the failed attempt.  The loop:

    1. Ask the shard's breaker for admission; an open breaker resolves
       ``tripped`` immediately (no attempt, no cost).
    2. Up to ``retry.max_attempts`` attempts, all drawing on one
       clock-time budget (``policy.deadline``; unbounded when ``None``).
       Retryable errors and budget overruns count as failed attempts;
       any other exception propagates — retrying a programming error is
       not resilience.  A retry whose budget is already spent — or whose
       backoff sleep alone would spend it — is *skipped*, not run: the
       sub-query resolves ``timed_out`` on the spot, recording one
       timeout but no breaker outcome (no attempt was dispatched) and no
       retry.

    Cost discipline: exactly one attempt's bundle is accepted and
    returned; every other attempt (failed or timed out) has its page
    reads recorded as the shard's ``wasted`` tally and its bundle
    dropped.  A query total built from accepted bundles therefore
    can never double-count a retry, and a budget-aborted attempt shows
    up as zero waste because it never touched a page.  The breaker
    records one outcome per dispatched attempt.
    """
    breaker = health.breaker(shard_id, policy.breaker)
    if not breaker.allow(clock.now()):
        health.record_trip(shard_id)
        return AttemptOutcome(
            TRIPPED,
            error=ShardDown(f"circuit breaker open for shard {shard_id}"),
        )
    # One budget for the whole resolution; created here, on the thread
    # that will sleep the backoffs (see the Deadline thread contract).
    deadline = Deadline(clock, policy.deadline)
    last_error: BaseException | None = None
    timed_out = False
    for attempt in range(1, policy.retry.max_attempts + 1):
        if attempt > 1:
            backoff = policy.retry.backoff(shard_id, attempt - 1)
            if deadline.remaining() <= backoff:
                # The budget is spent (or the mandatory backoff alone
                # would spend it): skip the doomed attempt entirely.
                last_error = ShardTimeout(
                    f"shard {shard_id} budget of {policy.deadline:.6f}s "
                    f"exhausted after {attempt - 1} attempt(s); "
                    f"skipping attempt {attempt}"
                )
                timed_out = True
                health.record_failure(shard_id, timeout=True)
                break
            health.record_retry(shard_id)
            clock.sleep(backoff)
        result, bundle, latency, error = _one_attempt(
            work, shard_id, policy, clock, deadline, attempt - 1
        )
        if error is not None:
            last_error = error
            timed_out = isinstance(error, ShardTimeout)
            breaker.record(False, clock.now())
            health.record_failure(shard_id, timeout=timed_out)
            health.record_waste(shard_id, bundle.page_reads)
            continue
        breaker.record(True, clock.now())
        health.record_success(shard_id, latency)
        return AttemptOutcome(ANSWERED, result=result, bundle=bundle)
    return AttemptOutcome(
        TIMED_OUT if timed_out else FAILED, error=last_error
    )
