"""Shared infrastructure for the experiment benchmarks.

Each ``bench_*.py`` reproduces one table or figure from the paper's
Section 6: it builds the workload, runs the experiment once, prints the
paper-style table, and writes it to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can reference the measured numbers.  A ``pytest-benchmark``
hook additionally times the experiment's core operation.

Scales are reduced from the paper's 6,500-video corpus to keep the whole
suite re-runnable in minutes; every bench states its workload in the
output header.

These benches reproduce the paper; the serving stack's performance is
measured by ``benchmarks/e2e`` alone (``BENCHMARK.json``).
"""

from __future__ import annotations

import os

import repro
from repro.datasets import generate_dataset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str) -> None:
    """Print an experiment table and persist it under benchmarks/results."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print()
    print(text)


def summarize_dataset(dataset, epsilon: float, seed_base: int = 0):
    """Summarise every video of a dataset with deterministic seeds."""
    return [
        repro.summarize_video(
            video_id, dataset.frames(video_id), epsilon, seed=seed_base + video_id
        )
        for video_id in range(dataset.num_videos)
    ]


def build_workload(config, epsilon: float, *, seed: int, reference="optimal"):
    """Dataset + summaries + index for one experiment."""
    dataset = generate_dataset(config, seed=seed)
    summaries = summarize_dataset(dataset, epsilon)
    index = repro.VitriIndex.build(summaries, epsilon, reference=reference)
    return dataset, summaries, index
