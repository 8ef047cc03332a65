"""Evaluation harness: frame-level ground truth, the precision metric and
cost aggregation used by every experiment in Section 6.

Serving-stack performance (fleets, wire, replicas, ingest) is measured
by ``benchmarks/e2e`` (see ``BENCHMARK.json``), not from this package."""

from __future__ import annotations

from repro.eval.ground_truth import GroundTruthCache, knn_ground_truth
from repro.eval.harness import aggregate_stats, format_table
from repro.eval.metrics import precision_at_k
from repro.eval.refine import refine_ranking, refined_knn

__all__ = [
    "GroundTruthCache",
    "knn_ground_truth",
    "aggregate_stats",
    "format_table",
    "precision_at_k",
    "refine_ranking",
    "refined_knn",
]
