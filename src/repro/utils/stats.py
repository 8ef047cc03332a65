"""Running statistics (Welford's algorithm).

Used by the clustering code to compute the mean and standard deviation of
member-to-centre distances in one pass, and by the evaluation harness to
aggregate per-query costs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_probability

__all__ = ["RunningStats", "percentile"]


def percentile(
    sorted_values, fraction: float, *, default: float | None = None
) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence.

    The definition behind the fleet's reported latency percentiles
    (``HealthStats.p95_latency``).

    ``fraction`` must be a finite number in ``[0, 1]``.  An empty
    sequence has no percentiles: it raises :class:`ValueError` unless
    the caller opts into a sentinel via ``default=`` (a metrics path
    reporting "no samples yet" passes ``default=0.0`` and says so,
    instead of every caller silently reading 0.0 that looks like a
    measurement).
    """
    fraction = check_probability(fraction, "fraction")
    count = len(sorted_values)
    if count == 0:
        if default is None:
            raise ValueError(
                "percentile() of an empty sequence (pass default= to map "
                "the no-samples case to a sentinel)"
            )
        return default
    if count == 1:
        return float(sorted_values[0])
    rank = fraction * (count - 1)
    low = int(rank)
    high = min(low + 1, count - 1)
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


class RunningStats:
    """Single-pass mean/variance accumulator (Welford).

    Population variance is used (divide by ``n``) to match the paper's
    definition of sigma in Section 4.1.

    Examples
    --------
    >>> rs = RunningStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     rs.add(x)
    >>> rs.mean
    2.0
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_many(self, values) -> None:
        """Fold an iterable of observations into the accumulator."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.add(float(value))

    @property
    def count(self) -> int:
        """Number of observations seen."""
        return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations; 0.0 when empty."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance; 0.0 when fewer than two observations."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest observation; ``inf`` when empty."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation; ``-inf`` when empty."""
        return self._max

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both streams."""
        if not isinstance(other, RunningStats):
            raise TypeError("can only merge with another RunningStats")
        merged = RunningStats()
        n = self._count + other._count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._count = n
        merged._mean = self._mean + delta * other._count / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._count * other._count / n
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )
