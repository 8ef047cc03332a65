"""Shared utilities: argument validation, RNG handling and cost/time
accounting used across the ViTri reproduction."""

from __future__ import annotations

from repro.utils.counters import CostCounters, Timer
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite,
    check_matrix,
    check_non_negative,
    check_positive,
    check_probability,
    check_vector,
)

__all__ = [
    "CostCounters",
    "Timer",
    "ensure_rng",
    "check_finite",
    "check_matrix",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_vector",
]
