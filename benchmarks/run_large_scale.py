"""Large-scale demonstration (not collected by pytest — run directly).

The pytest benches keep workloads small so the whole suite re-runs in
minutes.  This script demonstrates headroom at a scale closer to the
paper's (thousands of videos, tens of thousands of ViTris is reachable;
the default here builds a few thousand ViTris in a couple of minutes on
a laptop):

    python benchmarks/run_large_scale.py [num_videos] [epsilon]

It reports build time, index size, per-query costs for the index vs the
sequential scan, and verifies result equality on sampled queries.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

import repro
from repro.baselines import SequentialScan
from repro.datasets import DatasetConfig, generate_dataset
from repro.eval import aggregate_stats, format_table
from repro.utils.counters import Timer

from _common import save_result


def main(num_videos: int = 2000, epsilon: float = 0.25) -> None:
    config = DatasetConfig.indexing_preset(
        num_distractors=num_videos,
        scene_weight=8.0,
        palette_weight=16.0,
        duration_classes=((150, 0.45), (75, 0.38), (50, 0.17)),
    )

    with Timer() as generate_timer:
        dataset = generate_dataset(config, seed=2005)
    generated = generate_timer.elapsed
    print(
        f"generated {dataset.num_videos} videos / {dataset.total_frames} "
        f"frames in {generated:.1f}s"
    )

    with Timer() as summarize_timer:
        summaries = [
            repro.summarize_video(i, dataset.frames(i), epsilon, seed=i)
            for i in range(dataset.num_videos)
        ]
    summarised = summarize_timer.elapsed
    num_vitris = sum(len(s) for s in summaries)
    print(f"summarised into {num_vitris} ViTris in {summarised:.1f}s")

    with Timer() as build_timer:
        index = repro.VitriIndex.build(summaries, epsilon)
    built = build_timer.elapsed
    pages = index.btree.buffer_pool.pager.num_pages
    print(
        f"built index in {built:.1f}s: height {index.btree.height}, "
        f"{pages} pages ({pages * 4096 // 1024} KiB)"
    )

    scan = SequentialScan(index)
    queries = list(range(0, 100, 2))
    index_stats = []
    scan_stats = []
    for query_id in queries:
        a = index.knn(summaries[query_id], 50, cold=True)
        b = scan.knn(summaries[query_id], 50)
        assert a.videos == b.videos, f"divergence on query {query_id}"
        index_stats.append(a.stats)
        scan_stats.append(b.stats)

    agg_index = aggregate_stats(index_stats)
    agg_scan = aggregate_stats(scan_stats)
    table = format_table(
        ["method", "pages/query", "similarity computations", "ms/query"],
        [
            (
                "ViTri index (optimal)",
                agg_index["page_requests"],
                agg_index["similarity_computations"],
                agg_index["wall_time"] * 1000,
            ),
            (
                "sequential scan",
                agg_scan["page_requests"],
                agg_scan["similarity_computations"],
                agg_scan["wall_time"] * 1000,
            ),
        ],
        title=(
            f"Large-scale demo: {dataset.num_videos} videos, "
            f"{num_vitris} ViTris, epsilon = {epsilon}, "
            f"{len(queries)} queries of 50-NN (results verified equal)"
        ),
    )
    save_result("large_scale_demo", table)


if __name__ == "__main__":
    videos = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    eps = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    main(videos, eps)
