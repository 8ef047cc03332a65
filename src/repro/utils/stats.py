"""Percentiles of sorted samples (the fleet's latency percentiles)."""

from __future__ import annotations

from repro.utils.validation import check_probability

__all__ = ["percentile"]


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
