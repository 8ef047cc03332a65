"""Streaming drift monitoring (paper Section 6.3.3, online form).

The paper's rebuild trigger is "has the first principal component
drifted past the allowed angle?"
(:meth:`~repro.core.index.VitriIndex.drift_angle`), asked on an
every-N-inserts cadence — the policy's two parameters, the allowed
angle and the check cadence.  Under continuous ingestion the cadence
needs per-shard state: a fleet drifts unevenly, so the monitor keys its
insert counters by an opaque shard key and one hot shard's rebuild is
not charged to the others.  The measurement itself is cheap (it reads
the index's streaming moments, no page I/O).

The monitor only ever *measures and recommends*; actually rebuilding is
the pipeline's (or the router's) call.  Every measurement is returned
as a :class:`DriftCheck`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_positive, check_positive_int

__all__ = ["DriftCheck", "DriftMonitor"]


@dataclass(frozen=True)
class DriftCheck:
    """One drift measurement: the angle, the threshold, the verdict."""

    key: object
    angle: float
    threshold: float
    rebuild: bool


class DriftMonitor:
    """Decides *when* to measure drift and whether it warrants a rebuild.

    Parameters
    ----------
    max_angle_degrees:
        Principal-angle threshold (paper's allowed drift).
    check_every:
        Inserts per key between measurements.
    """

    def __init__(
        self,
        *,
        max_angle_degrees: float = 15.0,
        check_every: int = 100,
    ) -> None:
        self._max_angle = math.radians(
            check_positive(max_angle_degrees, "max_angle_degrees")
        )
        self._check_every = check_positive_int(check_every, "check_every")
        self._since_check: dict = {}
        self.checks = 0
        self.last_angle: float | None = None
        self.max_angle_seen = 0.0

    @property
    def threshold_radians(self) -> float:
        """The rebuild threshold in radians."""
        return self._max_angle

    def observe(self, key, index, inserted: int = 1) -> DriftCheck | None:
        """Record ``inserted`` insertions into ``key``'s index; maybe measure.

        Returns ``None`` when no measurement was due (count below
        ``check_every``), else the :class:`DriftCheck` verdict; the
        insert count resets with every measurement.
        """
        if inserted < 1:
            raise ValueError(f"inserted must be >= 1, got {inserted}")
        count = self._since_check.get(key, 0) + inserted
        self._since_check[key] = count
        if count < self._check_every:
            return None
        self._since_check[key] = 0
        angle = index.drift_angle()
        self.checks += 1
        self.last_angle = angle
        self.max_angle_seen = max(self.max_angle_seen, angle)
        return DriftCheck(
            key=key,
            angle=angle,
            threshold=self._max_angle,
            rebuild=angle > self._max_angle,
        )

    def forget(self, key) -> None:
        """Drop a key's counters (its shard was rebuilt or removed)."""
        self._since_check.pop(key, None)

    def __repr__(self) -> str:
        return (
            f"DriftMonitor(checks={self.checks}, "
            f"last_angle={self.last_angle}, keys={len(self._since_check)})"
        )
