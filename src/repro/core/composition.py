"""Query composition (paper Section 5.2).

A KNN query summarised into ``M`` query ViTris produces ``M`` key ranges,
one per ViTri.  Searching them independently re-reads every leaf page shared
by overlapping ranges; *query composition* merges overlapping (or touching)
ranges into disjoint composed ranges first, so each leaf page is accessed
at most once per query.
"""

from __future__ import annotations

import math

from repro.core.transform import OneDimensionalTransform
from repro.core.vitri import VideoSummary

__all__ = ["compose_ranges", "query_key_ranges"]


def query_key_ranges(
    query: VideoSummary,
    transform: OneDimensionalTransform,
    epsilon: float,
    method: str = "composed",
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """A query's key ranges under *transform*: ``(per_vitri, search)``.

    A query ViTri ``(O^Q, R^Q)`` can only share frames with database
    ViTris within centre distance ``gamma = R^Q + eps/2`` (indexed radii
    are at most ``eps/2``), so by the triangle inequality its candidates
    lie in ``[key(O^Q) - gamma, key(O^Q) + gamma]``, clamped at zero
    (keys are distances).  ``per_vitri`` holds that lossless interval
    for every query ViTri, in order; ``search`` is what the B+-tree is
    asked for — the same list for ``method="naive"``, the composed
    (merged) ranges for ``"composed"``.
    """
    per_vitri = []
    for vitri in query.vitris:
        gamma = vitri.radius + epsilon / 2.0
        key = transform.key(vitri.position)
        per_vitri.append((max(key - gamma, 0.0), key + gamma))
    if method == "naive":
        return per_vitri, per_vitri
    return per_vitri, compose_ranges(per_vitri)


def compose_ranges(
    ranges: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Merge overlapping/touching key ranges into disjoint ones.

    Parameters
    ----------
    ranges:
        ``(low, high)`` pairs with ``low <= high``.  Order does not matter.

    Returns
    -------
    list[tuple[float, float]]
        Disjoint ranges sorted by their low end, whose union equals the
        union of the inputs.  Ranges that merely touch (``high == next
        low``) are merged, matching the closed-interval semantics of the
        B+-tree range search.
    """
    validated: list[tuple[float, float]] = []
    for low, high in ranges:
        low = float(low)
        high = float(high)
        if math.isnan(low) or math.isnan(high):
            raise ValueError("range bounds must not be NaN")
        if high < low:
            raise ValueError(f"invalid range: low {low} > high {high}")
        validated.append((low, high))
    if not validated:
        return []

    validated.sort()
    composed = [validated[0]]
    for low, high in validated[1:]:
        last_low, last_high = composed[-1]
        if low <= last_high:
            composed[-1] = (last_low, max(last_high, high))
        else:
            composed.append((low, high))
    return composed
