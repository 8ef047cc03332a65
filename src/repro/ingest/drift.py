"""Streaming drift monitoring (paper Section 6.3.3, online form).

The paper's rebuild trigger is "has the first principal component
drifted past the allowed angle?"
(:meth:`~repro.core.index.VitriIndex.drift_angle`), asked on an
every-N-inserts cadence.  Under continuous ingestion that cadence needs
two more properties:

* **per-shard state** — a fleet drifts unevenly; the monitor keys its
  insert counters by an opaque shard key so one hot shard's rebuild is
  not charged to the others;
* **a wall-clock floor** — the measurement itself is cheap (it reads the
  index's streaming moments, no page I/O), but a positive verdict costs
  a full online side build; a burst of inserts must not trigger
  back-to-back rebuilds.  The floor reads the *injected*
  :class:`~repro.utils.clock.Clock` (VIL007: a virtual-clock test
  replays the whole trigger schedule exactly).

The monitor only ever *measures and recommends*; actually rebuilding is
the pipeline's (or the router's) call.  Every measurement is returned
as a :class:`DriftCheck` so eval harnesses can plot angle-vs-time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.clock import Clock, SystemClock
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["DriftCheck", "DriftMonitor"]


@dataclass(frozen=True)
class DriftCheck:
    """One drift measurement: the angle, the threshold, the verdict."""

    key: object
    angle: float
    threshold: float
    rebuild: bool
    at: float


class DriftMonitor:
    """Decides *when* to measure drift and whether it warrants a rebuild.

    Parameters
    ----------
    max_angle_degrees:
        Principal-angle threshold (paper's allowed drift).
    check_every:
        Inserts per key between measurements.
    min_interval:
        Minimum injected-clock seconds between measurements per key
        (``0`` disables the floor).
    clock:
        Injected clock; defaults to the system clock.
    """

    def __init__(
        self,
        *,
        max_angle_degrees: float = 15.0,
        check_every: int = 100,
        min_interval: float = 0.0,
        clock: Clock | None = None,
    ) -> None:
        self._max_angle = math.radians(
            check_positive(max_angle_degrees, "max_angle_degrees")
        )
        self._check_every = check_positive_int(check_every, "check_every")
        if min_interval < 0:
            raise ValueError(
                f"min_interval must be >= 0, got {min_interval}"
            )
        self._min_interval = float(min_interval)
        self._clock = clock if clock is not None else SystemClock()
        if not isinstance(self._clock, Clock):
            raise TypeError("clock must be a Clock")
        self._since_check: dict = {}
        self._last_check_at: dict = {}
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
        ``check_every``, or inside the ``min_interval`` floor), else the
        :class:`DriftCheck` verdict.  The insert count resets only when
        a measurement actually runs, so a burst suppressed by the floor
        is measured at the first opportunity after it.
        """
        if inserted < 1:
            raise ValueError(f"inserted must be >= 1, got {inserted}")
        count = self._since_check.get(key, 0) + inserted
        self._since_check[key] = count
        if count < self._check_every:
            return None
        now = self._clock.now()
        last_at = self._last_check_at.get(key)
        if (
            self._min_interval > 0.0
            and last_at is not None
            and now - last_at < self._min_interval
        ):
            return None
        self._since_check[key] = 0
        self._last_check_at[key] = now
        angle = index.drift_angle()
        self.checks += 1
        self.last_angle = angle
        self.max_angle_seen = max(self.max_angle_seen, angle)
        return DriftCheck(
            key=key,
            angle=angle,
            threshold=self._max_angle,
            rebuild=angle > self._max_angle,
            at=now,
        )

    def forget(self, key) -> None:
        """Drop a key's counters (its shard was rebuilt or removed)."""
        self._since_check.pop(key, None)
        self._last_check_at.pop(key, None)

    def __repr__(self) -> str:
        return (
            f"DriftMonitor(checks={self.checks}, "
            f"last_angle={self.last_angle}, keys={len(self._since_check)})"
        )
