"""On-disk indexes: build once, reopen later.

A durable :class:`repro.VideoDatabase` keeps its index in a directory:
the B+-tree pages (``index.btree``) and the ViTri heap (``index.heap``)
in ordinary files with 4 KiB pages, plus the non-paged metadata
(epsilon, the fitted reference point, per-video frame counts) in
``db.json``.  All three commit together through the directory's
write-ahead log.  This script builds a database, closes it, reopens it
from the directory alone and repeats the query.

Run:  python examples/persistent_index.py
"""

import os
import tempfile

import repro
from repro.datasets import DatasetConfig, generate_dataset

EPSILON = 0.3


def main() -> None:
    config = DatasetConfig.precision_preset(
        num_families=4,
        family_size=3,
        num_distractors=12,
        duration_classes=((50, 1.0),),
    )
    library = generate_dataset(config, seed=21)
    summaries = [
        repro.summarize_video(i, library.frames(i), EPSILON, seed=i)
        for i in range(library.num_videos)
    ]

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ads.db")

        # Build and persist: close() commits everything added.
        with repro.VideoDatabase(EPSILON, path=path) as database:
            database.add_summaries(summaries)
            database.build()
            index = database.index
            first_answer = index.knn(summaries[0], 5).videos
            vitris = index.num_vitris
        btree_size = os.path.getsize(os.path.join(path, "index.btree"))
        heap_size = os.path.getsize(os.path.join(path, "index.heap"))
        print(f"persisted: {vitris} ViTris -> "
              f"{btree_size // 1024} KiB B+-tree + {heap_size // 1024} KiB heap "
              f"({btree_size // 4096} + {heap_size // 4096} pages)")

        # Reopen from the directory alone and query again.
        with repro.VideoDatabase(path=path) as reopened:
            second_answer = reopened.index.knn(summaries[0], 5).videos
            print(f"reopened:  {reopened.index}")
        print(f"answers identical: {first_answer == second_answer}")
        print(f"top-5 for video 0: {list(second_answer)}")


if __name__ == "__main__":
    main()
