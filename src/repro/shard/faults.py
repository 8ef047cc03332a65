"""Deterministic shard-level fault injection.

The storage layer's :class:`~repro.storage.faults.FaultInjector` crashes
a database at the *page* level; this module does the same one layer up,
at the *shard serving* level, so the scatter-gather resilience path can
be exercised end to end.  The design mirrors PR 2's injector: faults are
scheduled by **operation count**, never by wall clock or RNG state, so a
fault sweep is exactly reproducible run-to-run and under any thread
interleaving.

* :class:`ShardFault` — one scripted fault window: on query operations
  ``first_op..last_op`` (1-based, inclusive; ``last_op=None`` = forever)
  the shard responds slowly (``slow``), raises a retryable
  :class:`~repro.shard.resilience.InjectedShardError` (``error``), or is
  hard-down, raising :class:`~repro.shard.resilience.ShardDown`
  (``down``).
* :class:`ShardFaultInjector` — the per-fleet schedule: a map from shard
  id to a list of fault windows, with a thread-safe per-shard operation
  counter.  Only *serving* operations (``knn`` attempts) tick the
  counter; routing metadata called on its own (``key_bounds``,
  ``may_contain``) stays fault-free.  The key-bounds proof a sub-query
  runs comes after the fault, so a faulted attempt never proves a shard
  pruned: it fails like any other attempt.
* :class:`FaultInjectingShard` — a transparent :class:`Shard` proxy that
  consults the injector before delegating each query.

Delays are injected through the router's :class:`~repro.utils.clock.Clock`
(``clock.sleep``), so under a ``VirtualClock`` a "slow" shard costs zero
real time but still trips deadlines and breakers exactly as it
would in production.  A slow fault is also *budget-aware*: after
sleeping its injected delay it re-checks the attempt's
:class:`~repro.utils.clock.Deadline` and raises
:class:`~repro.shard.resilience.ShardTimeout` if the budget is now
spent, so a doomed attempt never reaches the real shard — exactly the
behaviour of a remote shard server whose client stopped waiting.
"""

from __future__ import annotations

import threading

from repro.shard.resilience import InjectedShardError, ShardDown, ShardTimeout
from repro.shard.shard import Shard
from repro.utils.clock import Clock, Deadline, SystemClock

__all__ = ["FaultInjectingShard", "ShardFault", "ShardFaultInjector"]

_FAULT_KINDS = ("slow", "error", "down")


class ShardFault:
    """One scripted fault window on a shard's serving operations.

    Parameters
    ----------
    kind:
        ``"slow"`` (inject ``delay`` seconds of clock latency, then serve
        normally), ``"error"`` (raise a retryable
        :class:`InjectedShardError`), or ``"down"`` (raise
        :class:`ShardDown`).
    first_op, last_op:
        The window of 1-based query-operation counts the fault covers,
        inclusive.  ``last_op=None`` means the fault never heals.
    delay:
        Injected latency in clock seconds (``slow`` faults only).
    """

    def __init__(
        self,
        kind: str,
        *,
        first_op: int = 1,
        last_op: int | None = None,
        delay: float = 0.0,
    ) -> None:
        if kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {_FAULT_KINDS}"
            )
        if not isinstance(first_op, int) or isinstance(first_op, bool) or first_op < 1:
            raise ValueError(f"first_op must be an int >= 1, got {first_op}")
        if last_op is not None and (
            not isinstance(last_op, int)
            or isinstance(last_op, bool)
            or last_op < first_op
        ):
            raise ValueError(
                f"last_op must be None or an int >= first_op, got {last_op}"
            )
        delay = float(delay)
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if kind == "slow" and delay <= 0.0:
            raise ValueError("slow faults need a positive delay")
        self.kind = kind
        self.first_op = first_op
        self.last_op = last_op
        self.delay = delay

    # Convenience constructors for the three scenarios the fault sweep
    # exercises; keyword-only so call sites read as scenario names.
    @classmethod
    def slow(
        cls, delay: float, *, first_op: int = 1, last_op: int | None = None
    ) -> "ShardFault":
        """A straggler: every covered op takes ``delay`` extra seconds."""
        return cls("slow", first_op=first_op, last_op=last_op, delay=delay)

    @classmethod
    def transient(cls, *, first_op: int = 1, errors: int = 1) -> "ShardFault":
        """``errors`` consecutive retryable failures, then heal."""
        if not isinstance(errors, int) or isinstance(errors, bool) or errors < 1:
            raise ValueError(f"errors must be an int >= 1, got {errors}")
        return cls("error", first_op=first_op, last_op=first_op + errors - 1)

    @classmethod
    def hard_down(cls, *, first_op: int = 1) -> "ShardFault":
        """The shard is gone from ``first_op`` onward; it never heals."""
        return cls("down", first_op=first_op, last_op=None)

    def covers(self, op: int) -> bool:
        """Whether 1-based operation ``op`` falls inside this window."""
        if op < self.first_op:
            return False
        return self.last_op is None or op <= self.last_op

    def __repr__(self) -> str:
        window = f"{self.first_op}..{self.last_op if self.last_op is not None else 'inf'}"
        extra = f", delay={self.delay}" if self.kind == "slow" else ""
        return f"ShardFault({self.kind!r}, ops {window}{extra})"


class ShardFaultInjector:
    """A deterministic per-fleet fault schedule, keyed by shard id.

    Each shard's *serving* operations (knn attempts, including
    retries — every attempt is one op) tick a
    thread-safe counter; the first scheduled fault window covering the
    current count fires.  Shards without an entry serve normally.
    """

    def __init__(self, schedule: dict[int, list[ShardFault]]) -> None:
        validated: dict[int, tuple[ShardFault, ...]] = {}
        for shard_id, faults in schedule.items():
            for fault in faults:
                if not isinstance(fault, ShardFault):
                    raise TypeError(
                        f"schedule for shard {shard_id} contains {fault!r}; "
                        "expected ShardFault instances"
                    )
            validated[int(shard_id)] = tuple(faults)
        self._schedule = validated
        self._lock = threading.Lock()
        self._ops: dict[int, int] = {}

    def operations(self, shard_id: int) -> int:
        """How many serving operations the shard has seen so far."""
        with self._lock:
            return self._ops.get(shard_id, 0)

    def on_query(
        self,
        shard_id: int,
        clock: Clock,
        *,
        deadline: Deadline | None = None,
    ) -> None:
        """Tick the shard's op counter and fire any covering fault.

        Called by :class:`FaultInjectingShard` immediately before each
        serving attempt is delegated.  Raising here means the attempt
        never reaches the real shard, so the real shard's state (engine
        cache, ``queries_served``) is untouched by injected failures.

        A slow fault honours the attempt's deadline: after sleeping the
        injected delay it raises :class:`ShardTimeout` if the budget is
        now spent, so the delegated work — the expensive part — never
        runs for a caller that has already given up.
        """
        with self._lock:
            op = self._ops.get(shard_id, 0) + 1
            self._ops[shard_id] = op
        for fault in self._schedule.get(shard_id, ()):
            if not fault.covers(op):
                continue
            if fault.kind == "slow":
                clock.sleep(fault.delay)
                if deadline is not None and deadline.expired():
                    raise ShardTimeout(
                        f"injected {fault.delay:.6f}s delay on shard "
                        f"{shard_id} (op {op}) spent the attempt's budget"
                    )
                return
            if fault.kind == "error":
                raise InjectedShardError(
                    f"injected transient error on shard {shard_id} (op {op})"
                )
            raise ShardDown(
                f"injected hard-down on shard {shard_id} (op {op})"
            )

    def __repr__(self) -> str:
        return f"ShardFaultInjector(shards={sorted(self._schedule)})"


class FaultInjectingShard:
    """A :class:`Shard` proxy that runs the fault schedule before serving.

    Only ``knn`` is intercepted; the rest of the
    :class:`~repro.shard.contract.WritableShard` contract (routing
    metadata, content token, status, mutation, durability) delegates
    untouched via ``__getattr__``, so the router never needs to know
    whether a fleet is faulted.
    """

    def __init__(
        self,
        shard: Shard,
        injector: ShardFaultInjector,
        *,
        clock: Clock | None = None,
    ) -> None:
        if isinstance(shard, FaultInjectingShard):
            raise TypeError("shard is already fault-injecting; do not nest")
        self._shard = shard
        self._injector = injector
        self._clock = clock if clock is not None else SystemClock()

    @property
    def inner(self) -> Shard:
        """The wrapped shard (exposed for tests and unwrapping)."""
        return self._shard

    def knn(self, query, k, **kwargs):
        self._injector.on_query(
            self._shard.shard_id, self._clock, deadline=kwargs.get("deadline")
        )
        return self._shard.knn(query, k, **kwargs)

    # ``len(proxy)`` must work (dunders bypass __getattr__).
    def __len__(self) -> int:
        return len(self._shard)

    def __getattr__(self, name: str):
        return getattr(self._shard, name)

    def __repr__(self) -> str:
        return f"FaultInjectingShard({self._shard!r})"
