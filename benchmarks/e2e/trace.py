"""Span tracing from outside the program.

Nothing under ``src/`` knows it is being traced: :class:`Tracer` swaps
the public callables named in :mod:`e2e.layers` for recording wrappers
and puts the originals back on :meth:`Tracer.uninstall`.  In-program
tracing is the ROADMAP's "tracing spine" item and will take these span
names over.

A span is ``[name, start, end, parent, request id, attrs]``.  Its parent
is the innermost span open on the same thread.  A span that opens a
thread's stack and receives the query attaches, by request id, to the
innermost open span of the same request on another thread — that is how
a front-door worker, a scatter thread and a shard-server executor join
the client's tree.  The request id is ``query_fingerprint`` plus the
ordinal of that fingerprint at that callable, plus ``/s<shard>`` on a
scatter leg, so the four legs of one request do not adopt each other's
server spans.  Repeats of one hot query issued by two clients at the
same instant may swap ordinals; sums and means are unaffected.

Spans stay in memory; :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.engine import query_fingerprint
from repro.utils.clock import SystemClock

__all__ = ["SpanStats", "Tracer", "self_times", "summarize_spans"]

NAME, START, END, PARENT, RID, ATTRS = range(6)


class Tracer:
    """Records spans around patched callables until :meth:`uninstall`."""

    def __init__(self, now=None) -> None:
        self.now = now if now is not None else SystemClock().now
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list] = []
        self._open: dict[str, list] = {}
        self._ordinals: dict[tuple, int] = {}
        self._patches: list[tuple] = []
        # span name -> {id(owner): owner}: the objects a query span was
        # called on, so their public counters can be read afterwards.
        self.instances: dict[str, dict[int, object]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap_method(
        self, cls, attr, name, *, query_arg=None, before=None, after=None
    ) -> None:
        """Record a span around ``cls.attr``.

        ``query_arg`` is the positional index of the query summary; it
        makes the span request-aware.  ``before(args, kwargs)`` returns a
        token and ``after(token, args, kwargs, result)`` returns the
        span's attrs (a dict of numbers) or ``None``.
        """
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        inner = raw.__func__ if kind is not None else raw
        wrapper = self._wrapper(name, inner, query_arg, before, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, kind(wrapper) if kind is not None else wrapper)

    def wrap_function(self, function, name, *, after=None) -> None:
        """Record a span around a module-level function, in every loaded
        ``repro`` module that imported it by name."""
        wrapper = self._wrapper(name, function, None, None, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module.__dict__.get(function.__name__) is function:
                self._patches.append((module, function.__name__, function))
                setattr(module, function.__name__, wrapper)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Request roots (opened by the load generator)
    # ------------------------------------------------------------------
    def open_request(self, query) -> list:
        """Open the root span of one request on the calling thread."""
        stack = self._stack()
        rid, _ = self._adopt("request", None, query)
        record = ["request", self.now(), 0.0, None, rid, None]
        stack.append(record)
        self._register(rid, record)
        return record

    def leave_thread(self, record: list) -> None:
        """Stop nesting this thread's spans under the request (its reply
        arrives on another thread); the request itself stays open."""
        self._stack().remove(record)

    def close_request(self, record: list, end: float | None = None) -> None:
        """Close a request root, from any thread."""
        record[END] = self.now() if end is None else end
        self._unregister(record[RID], record)
        with self._lock:
            self._thread_spans[0].append(record)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def spans(self) -> list[list]:
        """Every closed span recorded so far."""
        with self._lock:
            return [span for spans in self._thread_spans for span in spans]

    def dump(self, path: str) -> int:
        """Write the spans as JSON lines; returns how many."""
        spans = self.spans()
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": ids.get(id(parent)),
                            "request": request_of(span),
                            "attrs": span[ATTRS],
                        }
                    )
                    + "\n"
                )
        return len(spans)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.spans = []
            with self._lock:
                if not self._thread_spans:
                    self._thread_spans.append([])  # request roots
                self._thread_spans.append(self._local.spans)
            return self._local.stack

    def _adopt(self, name: str, owner, query) -> tuple[str, list | None]:
        """Request id for a span that opens its thread's stack, and the
        open span of that request it attaches to."""
        fingerprint = query_fingerprint(query)[:16]
        with self._lock:
            key = (name, id(owner), fingerprint)
            ordinal = self._ordinals.get(key, 0)
            self._ordinals[key] = ordinal + 1
            base = f"{fingerprint}#{ordinal}"
            rid = _leg(base, owner)
            for candidate in (rid, base):
                open_spans = self._open.get(candidate)
                if open_spans:
                    return rid, open_spans[-1]
        return rid, None

    def _register(self, rid: str, record: list) -> None:
        with self._lock:
            self._open.setdefault(rid, []).append(record)

    def _unregister(self, rid: str, record: list) -> None:
        with self._lock:
            open_spans = self._open[rid]
            open_spans.remove(record)
            if not open_spans:
                del self._open[rid]

    def _wrapper(self, name, function, query_arg, before, after):
        now = self.now
        local = self._local
        get_stack = self._stack

        if query_arg is None and before is None and after is None:
            # Page fetches run hundreds of times per query: no request
            # lookup, no hooks.
            def plain(*args, **kwargs):
                try:
                    stack = local.stack
                except AttributeError:
                    stack = get_stack()
                record = [
                    name, now(), 0.0, stack[-1] if stack else None, None, None
                ]
                stack.append(record)
                try:
                    return function(*args, **kwargs)
                finally:
                    record[END] = now()
                    stack.pop()
                    local.spans.append(record)

            return plain

        instances = self.instances[name]

        def hooked(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else None
            rid = key = None
            if query_arg is not None:
                owner = args[0]
                instances[id(owner)] = owner
                if parent is None:
                    rid, parent = self._adopt(name, owner, args[query_arg])
                    key = rid
                else:
                    # Nested under its request on this thread: still the
                    # span a scatter leg on another thread must find.
                    key = _leg(request_of(parent), owner)
            token = before(args, kwargs) if before is not None else None
            record = [name, now(), 0.0, parent, rid, None]
            stack.append(record)
            if key is not None:
                self._register(key, record)
            try:
                result = function(*args, **kwargs)
                record[END] = now()
                if after is not None:
                    record[ATTRS] = after(token, args, kwargs, result)
                return result
            finally:
                if record[END] == 0.0:
                    record[END] = now()
                stack.pop()
                if key is not None:
                    self._unregister(key, record)
                local.spans.append(record)

        return hooked


def _leg(request: str | None, owner) -> str | None:
    """The request id as one shard's scatter leg carries it."""
    shard = getattr(owner, "shard_id", None)
    if request is None or shard is None:
        return request
    return f"{request}/s{shard}"


def request_of(span: list) -> str | None:
    """The request a span belongs to (its own id, or an ancestor's),
    without the scatter-leg suffix."""
    while span is not None:
        if span[RID] is not None:
            return span[RID].split("/")[0]
        span = span[PARENT]
    return None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """``id(span) -> self time``: the span's duration minus the part of
    that interval its child spans cover (children on other threads may
    overlap each other, so the cover is a union, clipped to the parent)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        clipped = [
            (max(child[START], start), min(child[END], end))
            for child in children.get(id(span), ())
        ]
        cover = _covered([(low, high) for low, high in clipped if high > low])
        result[id(span)] = (end - start) - cover
    return result


@dataclass
class SpanStats:
    """Totals of every span with one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(float))


def summarize_spans(
    spans: list[list], own: dict[int, float] | None = None
) -> dict[str, SpanStats]:
    """Per-name count, total time, self time and summed attrs."""
    if own is None:
        own = self_times(spans)
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for span in spans:
        entry = stats[span[NAME]]
        entry.count += 1
        entry.total_s += span[END] - span[START]
        entry.self_s += own[id(span)]
        if span[ATTRS]:
            for key, value in span[ATTRS].items():
                entry.attrs[key] += value
    return stats
