"""Load generation: percentiles, closed and open loops, Zipf draws.

Latency runs from each operation's **due** time.  In a closed loop an
operation is due when its client becomes free; in an open loop it is due
on a fixed schedule, so a stall in the target is charged to every
operation that had to wait behind it, and the generator's own lateness
is reported next to the result.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.utils.stats import percentile

__all__ = [
    "InsufficientSamples",
    "Sample",
    "best_tail",
    "median",
    "run_closed_loop",
    "run_open_loop",
    "supported_tail",
    "tail",
    "zipf_draws",
]

# The percentile rule of the choosing-metrics guide: a tail percentile is
# printed only with at least this many samples beyond it.
BEYOND = 10
# Tail fractions tried, highest first, when a phase is too short for p95.
TAIL_LADDER = (0.95, 0.90, 0.75, 0.50)


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def median(values) -> float:
    """Median of a non-empty collection."""
    return percentile(sorted(values), 0.5)


def tail(values, fraction: float) -> float:
    """The ``fraction`` percentile, refused unless at least ``BEYOND``
    samples lie beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) * (1.0 - fraction)
    if beyond < BEYOND - 1e-9:
        raise InsufficientSamples(
            f"p{fraction * 100:g} of {len(ordered)} samples has only "
            f"{beyond:.1f} beyond it; need {BEYOND}"
        )
    return percentile(ordered, fraction)


def supported_tail(count: int) -> float | None:
    """The highest fraction of ``TAIL_LADDER`` that ``count`` samples
    support, or ``None`` when even the lowest has too few beyond it."""
    for fraction in TAIL_LADDER:
        if count * (1.0 - fraction) >= BEYOND - 1e-9:
            return fraction
    return None


def best_tail(values) -> tuple[float | None, float]:
    """``(fraction, value)`` of the highest tail the samples support;
    ``(None, nan)`` when they support none."""
    values = list(values)
    fraction = supported_tail(len(values))
    if fraction is None:
        return None, math.nan
    return fraction, tail(values, fraction)


@dataclass
class Sample:
    """One issued operation: when it was due, when it was actually
    started, when it completed, and what came back."""

    op: object
    due: float
    started: float
    done: float = math.nan
    answer: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion."""
        return self.done - self.due

    @property
    def answered(self) -> bool:
        return self.error is None and not math.isnan(self.done)


def run_closed_loop(clients, issue, *, now, stop_at):
    """Drive one operation list per client, each client sending its next
    operation when the previous one returned.

    ``issue(client_index, sample)`` performs the operation synchronously
    and fills ``sample.answer`` (or raises).  A client stops early once
    ``now()`` passes ``stop_at``, so a slow system bounds the run instead
    of stretching it.  Returns the samples of all clients.
    """
    results: list[list[Sample]] = [[] for _ in clients]

    def drive(index: int) -> None:
        for op in clients[index]:
            started = now()
            if started > stop_at:
                return
            sample = Sample(op, started, started)
            try:
                issue(index, sample)
            except Exception as exc:  # counted as a failed operation
                sample.error = exc
            sample.done = now()
            results[index].append(sample)

    if len(clients) == 1:
        drive(0)
    else:
        threads = [
            threading.Thread(target=drive, args=(i,), name=f"e2e-client-{i}")
            for i in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [sample for samples in results for sample in samples]


def run_open_loop(ops, rate: float, issue, *, now, sleep, idle=None):
    """Send ``ops`` at ``rate`` per second regardless of completions.

    ``issue(sample)`` starts the operation.  It may block until the reply
    (then the next operation starts late and its latency, measured from
    its due time, includes that wait) or return at once and fill
    ``sample.done`` from a completion callback on another thread.
    ``idle()`` runs in roughly millisecond slices while the generator
    waits for the next due time.  Returns the samples in issue order.
    """
    samples: list[Sample] = []
    origin = now()
    for position, op in enumerate(ops):
        due = origin + position / rate
        while True:
            remaining = due - now()
            if remaining <= 0.0:
                break
            if idle is None:
                sleep(remaining)
            else:
                idle()
                sleep(min(remaining, 0.001))
        sample = Sample(op, due, now())
        samples.append(sample)
        try:
            issue(sample)
        except Exception as exc:  # counted as a failed operation
            sample.error = exc
            sample.done = now()
    return samples


def zipf_draws(rng: np.random.Generator, population: int, exponent: float, count: int):
    """``count`` ranks in ``[0, population)`` with ``P(rank) ~ 1/(rank+1)^s``."""
    weights = 1.0 / np.arange(1, population + 1) ** exponent
    return rng.choice(population, size=count, p=weights / weights.sum())
