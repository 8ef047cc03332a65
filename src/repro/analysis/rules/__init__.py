"""Rule modules — importing this package registers every rule."""

from __future__ import annotations

from repro.analysis.concurrency import rules as _concurrency_rules  # noqa: F401
from repro.analysis.rules import (  # noqa: F401
    boundary_validation,
    counter_discipline,
    duck_sniffing,
    float_equality,
    future_annotations,
    injected_clock,
    seeded_rng,
    wall_clock,
)
