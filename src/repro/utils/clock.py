"""Injectable clocks: real time for production, virtual time for tests.

The fault-tolerance layer (``repro.shard.resilience``) needs a notion of
time for three things — attempt latencies, retry backoff sleeps and
circuit-breaker cooldowns — and all three must be *deterministic* under
test.  Hard-wiring ``time.monotonic`` / ``time.sleep`` would make every
breaker transition depend on scheduler noise, so the
resilience code never touches the ``time`` module (enforced by the
``injected-clock`` vilint rule): it receives a :class:`Clock` and calls
:meth:`Clock.now` / :meth:`Clock.sleep`.

Two implementations:

* :class:`SystemClock` — the production clock.  ``now()`` reads the
  monotonic performance counter (this module is, like
  :class:`repro.utils.counters.Timer`, a sanctioned wall-clock wrapper);
  ``sleep()`` really sleeps.
* :class:`VirtualClock` — the test clock.  Time only moves when someone
  moves it: ``sleep(s)`` advances the *calling context's* view by ``s``
  instantly (no real waiting), and :meth:`VirtualClock.advance` moves the
  shared base time (how tests let a breaker cooldown elapse).  The offset
  lives in a :mod:`contextvars` variable: every thread starts with its
  own, and the router runs each scatter leg in a fresh copy of the
  caller's context, so what one leg sleeps is invisible to its siblings
  and to whichever later leg reuses the same pool worker.  Latencies
  and breaker times therefore never depend on which worker ran a leg,
  and a multi-threaded fault sweep is bit-for-bit repeatable.

:class:`Deadline` sits on top of either clock: a fixed clock-time budget
captured at construction, shared by everything resolving one request
(attempts, backoff sleeps, and — through the wire protocol —
remote shard servers).

Process and thread boundaries
-----------------------------
Clock state never crosses a process boundary.  A ``VirtualClock`` (its
base *and* its per-context offsets) lives in the process that created it,
so a subprocess shard server cannot share the router's clock object —
it runs its own :class:`SystemClock`, and the two agree through what
goes over the wire instead: deadlines travel as **relative remaining
budgets** (seconds, not absolute times), so the two clocks never need a
common origin, and retry jitter stays a seeded hash on the client side.

Within one process, a ``VirtualClock`` deadline must be created on the
thread that will do the work: ``now()`` includes the *calling context's*
accumulated sleep offset, so a :class:`Deadline` captured on thread A
and checked on thread B would mix two unrelated offset histories.  The
serve layer therefore constructs each deadline on the connection
thread that reads and runs the query.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time


__all__ = ["Clock", "Deadline", "SystemClock", "VirtualClock"]


class Clock:
    """Minimal clock interface the resilience layer programs against."""

    def now(self) -> float:
        """Current time in seconds (monotonic; origin is arbitrary)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (or pretend to) for ``seconds``; negative means zero."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real, monotonic clock — the production default."""

    def now(self) -> float:
        # The clock module is the sanctioned wall-clock wrapper for the
        # resilience layer, exactly like Timer is for benchmarks.
        return time.perf_counter()  # vilint: disable=wall-clock-discipline

    def sleep(self, seconds: float) -> None:
        if seconds > 0.0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """A deterministic clock that only moves when told to.

    ``now()`` returns ``base + context-local offset``.  ``sleep(s)``
    advances only the calling context's offset, so latencies measured
    inside one scatter leg (``now() - start``) see exactly that leg's
    injected delays and backoffs, never a sibling's.  :meth:`advance`
    moves the shared base — the seam tests use to let breaker cooldowns
    elapse between queries.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._base = float(start)
        self._lock = threading.Lock()
        self._offset = contextvars.ContextVar(
            f"VirtualClock.offset@{id(self):x}", default=0.0
        )

    def now(self) -> float:
        with self._lock:
            base = self._base
        return base + self._offset.get()

    def sleep(self, seconds: float) -> None:
        if seconds > 0.0:
            self._offset.set(self._offset.get() + float(seconds))

    def advance(self, seconds: float) -> None:
        """Move the shared base time forward (visible to every thread)."""
        if seconds < 0.0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        with self._lock:
            self._base += float(seconds)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now():.6f})"


class Deadline:
    """A clock-time budget shared by everything resolving one request.

    Captures ``clock.now() + budget`` at construction; every later
    :meth:`remaining` / :meth:`expired` call re-reads the same clock, so
    sleeps (real or virtual) performed by the constructing thread count
    against the budget.  ``budget=None`` means unbounded: ``expired()``
    is always false and ``remaining()`` is ``inf`` — callers never need
    to branch on whether a deadline was actually requested.

    Under a :class:`VirtualClock` the deadline must be constructed on
    the thread that will do the work (see the module docstring); to
    cross a process boundary, send :meth:`remaining` and rebuild with
    the receiver's own clock.
    """

    __slots__ = ("_clock", "_expires_at")

    def __init__(self, clock: Clock, budget: float | None) -> None:
        self._clock = clock
        if budget is None:
            self._expires_at = math.inf
        else:
            budget = float(budget)
            if not math.isfinite(budget):
                raise ValueError(f"budget must be finite or None, got {budget}")
            self._expires_at = clock.now() + budget

    @property
    def bounded(self) -> bool:
        """Whether this deadline can ever expire."""
        return math.isfinite(self._expires_at)

    def remaining(self) -> float:
        """Seconds of budget left (negative once past due, ``inf`` if
        unbounded) — what travels on the wire as the relative budget."""
        return self._expires_at - self._clock.now()

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.remaining() <= 0.0

    def __repr__(self) -> str:
        if not self.bounded:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.6f})"
