"""A growing video library: dynamic insertion and drift-triggered rebuilds.

New videos arrive in batches and are inserted with standard B+-tree
insertions — the reference point is *not* refitted.  As the content
distribution drifts, the build-time reference point stops being optimal
and query I/O degrades; the paper's remedy (Section 6.3.3) is to monitor
the angle between the original first principal component and the current
one, and rebuild once it exceeds an allowed degree.

The script grows a library whose later batches have a different palette
distribution, shows the drift angle and the query cost after each batch,
and then applies the paper's policy by hand: check
:meth:`~repro.core.index.VitriIndex.drift_angle` every few insertions and
swap in :meth:`~repro.core.index.VitriIndex.rebuild` when it passes the
allowed degree.  (A served, durable fleet does the same online:
``repro.ingest.DriftMonitor`` plus the cutover in ``repro.ingest.cutover``.)

Run:  python examples/dynamic_library.py
"""

import math

import numpy as np

import repro
from repro.datasets import DatasetConfig, generate_dataset


def shifted_batch(seed: int, shift_dims: tuple[int, ...], num_videos: int,
                  id_base: int, epsilon: float):
    """A batch of videos whose histograms lean on different bins, so the
    collection's principal component rotates as batches arrive."""
    config = DatasetConfig.indexing_preset(
        num_distractors=num_videos,
        duration_classes=((50, 1.0),),
    )
    dataset = generate_dataset(config, seed=seed)
    summaries = []
    for i in range(dataset.num_videos):
        frames = dataset.frames(i).copy()
        # Lean the batch's mass onto its designated bins.
        frames[:, list(shift_dims)] += 0.4 / len(shift_dims)
        frames = frames / frames.sum(axis=1, keepdims=True)
        summaries.append(
            repro.summarize_video(id_base + i, frames, epsilon, seed=i)
        )
    return summaries


def average_query_cost(index, queries, k=20):
    pages = [index.knn(q, k, cold=True).stats.page_requests for q in queries]
    return float(np.mean(pages))


def main() -> None:
    epsilon = 0.3
    batches = [
        shifted_batch(seed=1, shift_dims=(0, 1), num_videos=60, id_base=0,
                      epsilon=epsilon),
        shifted_batch(seed=2, shift_dims=(10, 11), num_videos=60, id_base=1000,
                      epsilon=epsilon),
        shifted_batch(seed=3, shift_dims=(30, 31), num_videos=60, id_base=2000,
                      epsilon=epsilon),
    ]
    # Query workload drawn from every batch: the index must serve the
    # whole library, not just the founding content.
    queries = batches[0][:3] + batches[1][:3] + batches[2][:3]

    # --- Without maintenance: insert everything, watch the drift. -------
    index = repro.VitriIndex.build(batches[0], epsilon)
    print("growing the library without rebuilds:")
    print(f"  initial: {index.num_vitris} ViTris, "
          f"{average_query_cost(index, queries):.1f} pages/query")
    for number, batch in enumerate(batches[1:], start=2):
        for summary in batch:
            index.insert_video(summary)
        drift = math.degrees(index.drift_angle())
        print(f"  after batch {number}: {index.num_vitris} ViTris, "
              f"{average_query_cost(index, queries):.1f} pages/query, "
              f"PC drift {drift:.1f} deg")

    rebuilt = index.rebuild()
    print(f"  one-off rebuild at same content: "
          f"{average_query_cost(rebuilt, queries):.1f} pages/query")

    # --- With the paper's policy: measure drift, rebuild past 10 deg. ----
    max_angle, check_every = math.radians(10.0), 30
    index = repro.VitriIndex.build(batches[0], epsilon)
    rebuilds = 0
    for batch in batches[1:]:
        for inserted, summary in enumerate(batch, start=1):
            index.insert_video(summary)
            # drift_angle() reads streaming moments: no page I/O.
            if inserted % check_every == 0 and index.drift_angle() > max_angle:
                index = index.rebuild()
                rebuilds += 1
    print(f"\nmaintained index: {rebuilds} drift-triggered rebuild(s), "
          f"{average_query_cost(index, queries):.1f} pages/query, "
          f"final drift {math.degrees(index.drift_angle()):.1f} deg")


if __name__ == "__main__":
    main()
