"""Named locks with optional runtime lock-order validation.

Every long-lived lock in the package is created through
:func:`make_lock` with a stable ``"ClassName._attr"`` name — the same
node names the static lock-model analysis
(:mod:`repro.analysis.concurrency`) derives, so the runtime-observed
acquisition graph and the statically-derived one speak the same
vocabulary and the stress tests can assert the former is a subgraph of
the latter.

By default :func:`make_lock` returns a plain :class:`threading.RLock`
— zero overhead, nothing recorded.  Setting the ``REPRO_TRACK_LOCKS``
environment variable (checked once, at lock construction) switches to
:class:`TrackedRLock`: a re-entrant lock that keeps a per-thread stack
of held lock names and, on every acquisition while another lock is
held, records a ``held -> acquired`` edge into the process-wide
:data:`LOCK_ORDER_GRAPH`.  An edge that would close a cycle raises
:class:`LockOrderViolation` *before* blocking, turning a potential
deadlock into a deterministic test failure.

Edges are keyed by lock *name*, not instance: every ``Pager._lock`` in
the process is one node.  That is deliberately coarse — the static
analysis reasons about classes, not objects, and a consistent
class-level order is what rules out deadlock across any number of
instances acquired in that order.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "LOCK_ORDER_GRAPH",
    "LockOrderGraph",
    "LockOrderViolation",
    "TrackedRLock",
    "make_lock",
    "tracking_enabled",
]

TRACK_ENV = "REPRO_TRACK_LOCKS"


class LockOrderViolation(RuntimeError):
    """An acquisition would create a cycle in the lock-order graph."""


class LockOrderGraph:
    """Process-wide directed graph of observed ``held -> acquired`` edges.

    Mutations and reads are guarded by an internal plain lock (never a
    tracked one: the graph must not observe itself).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[str, set[str]] = {}

    def record(self, held: str, acquired: str) -> None:
        """Add one observed edge; raises :class:`LockOrderViolation` if
        the edge would close a cycle.  Recording happens *before* the
        blocking acquire, so an inversion fails fast instead of
        deadlocking."""
        if held == acquired:
            return
        with self._lock:
            if acquired in self._edges and self._reaches(acquired, held):
                raise LockOrderViolation(
                    f"acquiring {acquired!r} while holding {held!r} inverts "
                    f"the established lock order ({acquired!r} -> ... -> "
                    f"{held!r} already observed)"
                )
            self._edges.setdefault(held, set()).add(acquired)

    def _reaches(self, source: str, target: str) -> bool:
        # Callers hold self._lock.
        stack = [source]
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
        return False

    def edges(self) -> set[tuple[str, str]]:
        """Snapshot of every observed edge."""
        with self._lock:
            return {
                (held, acquired)
                for held, targets in self._edges.items()
                for acquired in targets
            }

    def to_dot(self) -> str:
        """Graphviz rendering of the observed order (stable output)."""
        lines = ["digraph lock_order {"]
        for held, acquired in sorted(self.edges()):
            lines.append(f'  "{held}" -> "{acquired}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Forget every edge (test isolation between stress runs)."""
        with self._lock:
            self._edges.clear()


LOCK_ORDER_GRAPH = LockOrderGraph()

_held_stack = threading.local()


def _stack() -> list[str]:
    stack = getattr(_held_stack, "names", None)
    if stack is None:
        stack = []
        _held_stack.names = stack
    return stack


class TrackedRLock:
    """Re-entrant lock that records acquisition order per thread.

    Drop-in for ``with``-style use of :class:`threading.RLock`; every
    acquisition while the thread already holds other tracked locks
    records ``innermost-held -> this`` into *graph*.  Re-entrant
    acquisitions of the same name record nothing (a re-entry cannot
    invert an order).
    """

    def __init__(self, name: str, graph: LockOrderGraph | None = None) -> None:
        if not name:
            raise ValueError("a tracked lock needs a non-empty name")
        self.name = name
        self._graph = graph if graph is not None else LOCK_ORDER_GRAPH
        self._inner = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _stack()
        if stack and self.name not in stack:
            self._graph.record(stack[-1], self.name)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            stack.append(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._pop(_stack())

    # threading.Condition protocol: wait() releases every level of the
    # lock and restores them afterwards; the held stack follows suit, and
    # the re-acquisition records its edge like any other.
    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self):
        state = self._inner._release_save()
        stack = _stack()
        for _ in range(state[0]):
            self._pop(stack)
        return state

    def _acquire_restore(self, state) -> None:
        stack = _stack()
        if stack and self.name not in stack:
            self._graph.record(stack[-1], self.name)
        self._inner._acquire_restore(state)
        stack.extend([self.name] * state[0])

    def _pop(self, stack: list[str]) -> None:
        # Remove the innermost entry for this name; release order follows
        # with-block nesting, so this is normally stack.pop().
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == self.name:
                del stack[position]
                break

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedRLock({self.name!r})"


def tracking_enabled() -> bool:
    """Whether :func:`make_lock` currently returns tracked locks."""
    return bool(os.environ.get(TRACK_ENV))


def make_lock(name: str):
    """A named re-entrant lock: plain RLock, or tracked when the
    ``REPRO_TRACK_LOCKS`` environment variable is set.

    The environment is consulted at construction time, so enabling
    tracking requires setting the variable *before* the locks' owners
    are built (the stress tests do this via ``monkeypatch.setenv``).
    """
    if tracking_enabled():
        return TrackedRLock(name)
    return threading.RLock()
