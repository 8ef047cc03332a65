"""Command-line interface.

Drives the full pipeline from a shell::

    repro-video generate  --out ads.npz --preset precision --seed 7
    repro-video stats     --dataset ads.npz
    repro-video summarize --dataset ads.npz --epsilon 0.3
    repro-video build     --dataset ads.npz --epsilon 0.3 --out ads-index
    repro-video query     --index ads-index --dataset ads.npz \\
                          --video-id 0 --k 10

``build`` writes a durable :class:`~repro.core.database.VideoDatabase`
directory (``index.btree``, whose leaves hold every ViTri record, and
``db.json``, committed as one transaction through its write-ahead log).  ``query`` reopens it,
summarises the query video with the stored epsilon, and prints the
ranked results plus the exact query cost.

``repro-video check`` verifies a directory without creating anything:
a fleet (it holds ``shards.json``) shard by shard, plus its placement;
a single database like one shard.
Each database gets every page frame's CRC32 checksum and every B+-tree
invariant.  Exit code 0 means consistent, 1 means corruption, a path
holding neither, or a directory in a format this version does not read.

``repro-video lint`` runs the project's own static-analysis pass
(vilint; see ``docs/static_analysis.md``) over ``src/repro`` or any
given paths.

``repro-video serve`` stands a durable fleet directory up as a network
service: one shard server per shard (in-process threads or spawned
subprocesses), a read-only scatter router over remote proxies, and a
TCP front door with bounded admission.  Ctrl-C drains gracefully.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.index import VitriIndex
from repro.core.summarize import summarize_video
from repro.datasets.loader import VideoDataset
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.eval.harness import format_table

__all__ = ["main"]

_PRESETS = {
    "default": lambda **kw: DatasetConfig(**kw),
    "precision": DatasetConfig.precision_preset,
    "indexing": DatasetConfig.indexing_preset,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    overrides = {}
    if args.families is not None:
        overrides["num_families"] = args.families
    if args.family_size is not None:
        overrides["family_size"] = args.family_size
    if args.distractors is not None:
        overrides["num_distractors"] = args.distractors
    config = _PRESETS[args.preset](**overrides)
    dataset = generate_dataset(config, seed=args.seed)
    dataset.save(args.out)
    print(
        f"wrote {dataset.num_videos} videos / {dataset.total_frames} frames "
        f"({dataset.dim}-d) to {args.out}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = VideoDataset.load(args.dataset)
    rows = dataset.duration_table()
    print(
        format_table(
            ["Frames per video", "Videos", "Frames"],
            rows,
            title=f"{args.dataset}: {dataset.num_videos} videos, "
            f"{dataset.total_frames} frames, dim {dataset.dim}",
        )
    )
    return 0


def _summaries(dataset: VideoDataset, epsilon: float):
    return [
        summarize_video(i, dataset.frames(i), epsilon, seed=i)
        for i in range(dataset.num_videos)
    ]


def _cmd_summarize(args: argparse.Namespace) -> int:
    dataset = VideoDataset.load(args.dataset)
    summaries = _summaries(dataset, args.epsilon)
    clusters = sum(len(s) for s in summaries)
    print(
        format_table(
            ["epsilon", "clusters", "avg cluster size", "clusters/video"],
            [
                (
                    args.epsilon,
                    clusters,
                    round(dataset.total_frames / clusters, 1),
                    round(clusters / dataset.num_videos, 2),
                )
            ],
            title=f"summary statistics for {args.dataset}",
        )
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.database import VideoDatabase
    from repro.core.summary_io import load_summaries, save_summaries

    if os.path.isdir(args.out) and os.listdir(args.out):
        print(f"error: {args.out} is not empty", file=sys.stderr)
        return 1
    dataset = VideoDataset.load(args.dataset)
    if args.summaries:
        summaries, _ = load_summaries(
            args.summaries, expected_epsilon=args.epsilon
        )
    else:
        summaries = _summaries(dataset, args.epsilon)
        if args.save_summaries:
            save_summaries(args.save_summaries, summaries, args.epsilon)
    with VideoDatabase(
        args.epsilon, reference=args.reference, path=args.out
    ) as database:
        database.add_summaries(summaries)
        database.build()
        vitris = database.index.num_vitris
    print(f"built {vitris} ViTris over {len(summaries)} videos -> {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.frontdoor import FrontDoorServer, NetworkFleet

    try:
        fleet = NetworkFleet(
            args.index,
            mode=args.mode,
            workers=args.workers,
            max_queue=args.max_queue,
            rate=args.rate,
            burst=args.burst,
            drain_timeout=args.drain_timeout,
        )
    except (ValueError, OSError) as exc:
        print(f"error: cannot open fleet: {exc}", file=sys.stderr)
        return 1
    try:
        server = FrontDoorServer(
            fleet.frontdoor, host=args.host, port=args.port
        )
        host, port = server.run_in_thread()
        status = fleet.status()
        videos = sum(
            entry["videos"] for entry in status["shards"].values()
        )
        try:
            # Flushed, and inside the try: a supervisor reading a pipe
            # learns a --port 0 address from the first line and may
            # interrupt as soon as it has.
            print(
                f"serving {videos} videos across {fleet.num_shards} "
                f"{args.mode}-mode shard server(s) on {host}:{port}",
                flush=True,
            )
            print(
                "Ctrl-C drains the front door and shard servers, then exits",
                flush=True,
            )
            while not server.wait_closed(1.0):
                pass
        except KeyboardInterrupt:
            print("\ndraining...")
        server.stop()
        server.wait_closed(args.drain_timeout + 5.0)
    finally:
        fleet.close()
    print("drained; all shard servers stopped")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _verify_database(index: VitriIndex, label: str) -> list[str]:
    """Check one database's index: the page checksums of its B+-tree
    file and the tree's invariants.

    Prints the label's line once its pages verify and returns the
    failures; a checksum failure ends the check, since nothing past it
    can be read.
    """
    from repro.btree.checker import check_tree

    try:
        pages = index.btree.buffer_pool.pager.verify_checksums()
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return [f"{label} checksum: {exc}"]
    failures: list[str] = []
    try:
        check_tree(index.btree)
    except AssertionError as exc:
        failures.append(f"{label} btree: {exc}")
    print(
        f"{label}: {index.num_videos} video(s), {pages} page frame(s) "
        "verified, invariants hold"
    )
    return failures


def _report(path: str, failures: list[str], summary: str) -> int:
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    print(f"{path}: consistent ({summary})")
    return 0


def _check_fleet(path: str) -> int:
    from repro.shard.router import ShardedVideoDatabase
    from repro.storage.serialization import ChecksumError

    try:
        # Reopening performs each shard's standard WAL recovery and
        # rebuilds membership (exactly what a restart would do); a video
        # on two shards fails it.
        fleet = ShardedVideoDatabase(path=path)
    except (ChecksumError, ValueError, OSError) as exc:
        print(f"error: cannot open fleet: {exc}", file=sys.stderr)
        return 1
    try:
        failures: list[str] = []
        misplaced = 0
        for shard in fleet.shards:
            label = f"shard {shard.shard_id}"
            if len(shard) == 0:
                print(f"{label}: empty")
                continue
            shard_failures = _verify_database(shard.database.index, label)
            failures.extend(shard_failures)
            if shard_failures:
                continue  # placement reads every leaf: verified ones only
            for summary in shard.summaries():
                if fleet.partitioner.shard_for(summary) != shard.shard_id:
                    misplaced += 1
        if misplaced:
            # Every add is routed by the partitioner, so no operation
            # leaves a video elsewhere.
            failures.append(
                f"placement: {misplaced} video(s) off their partitioned shard"
            )
        return _report(
            path,
            failures,
            f"{len(fleet)} videos across {fleet.num_shards} shards, "
            f"{fleet.partitioner.name} placement",
        )
    finally:
        # Read-only: release the fleet without a checkpoint.
        fleet.detach()


def _holds(path: str, *names: str) -> bool:
    return any(os.path.exists(os.path.join(path, name)) for name in names)


def _open_database(path: str):
    """Reopen the database directory at ``path`` for reading.

    Decides from the files first, because opening creates whatever is
    missing; prints the failure and returns ``None`` when ``path``
    holds no database or it cannot be opened.
    """
    from repro.core.database import _EPOCH_FILE, _META_FILE, VideoDatabase
    from repro.storage.serialization import ChecksumError

    if not _holds(path, _META_FILE, _EPOCH_FILE):
        print(
            f"error: {path} holds no index (neither a database nor a fleet)",
            file=sys.stderr,
        )
        return None
    try:
        return VideoDatabase(path=path)
    except (ChecksumError, ValueError, OSError) as exc:
        # Opening reads the tree's metadata page, so corruption can
        # surface here.
        print(f"error: cannot open index: {exc}", file=sys.stderr)
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.shard.router import _MANIFEST_FILE

    if _holds(args.index, _MANIFEST_FILE):
        return _check_fleet(args.index)
    database = _open_database(args.index)
    if database is None:
        return 1
    try:
        index = database.index
        if index is None:
            return _report(args.index, [], "0 videos")
        failures = _verify_database(index, args.index)
        return _report(args.index, failures, f"{index.num_videos} videos")
    finally:
        # Read-only: release the files without a checkpoint.
        database.detach()


def _cmd_query(args: argparse.Namespace) -> int:
    database = _open_database(args.index)
    if database is None:
        return 1
    try:
        return _run_query(database.index, args)
    finally:
        database.detach()


def _run_query(index: VitriIndex | None, args: argparse.Namespace) -> int:
    if index is None:
        print(f"error: {args.index} holds no videos", file=sys.stderr)
        return 1
    dataset = VideoDataset.load(args.dataset)
    if args.video_id < 0 or args.video_id >= dataset.num_videos:
        print(
            f"error: video-id {args.video_id} out of range "
            f"[0, {dataset.num_videos})",
            file=sys.stderr,
        )
        return 1
    query = summarize_video(
        args.video_id,
        dataset.frames(args.video_id),
        index.epsilon,
        seed=args.video_id,
    )
    try:
        result = index.knn(query, args.k, method=args.method, cold=True)
    except ValueError as exc:  # e.g. --k 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        (rank, video, f"{score:.4f}")
        for rank, (video, score) in enumerate(
            zip(result.videos, result.scores), 1
        )
    ]
    print(
        format_table(
            ["rank", "video", "similarity"],
            rows,
            title=f"top-{args.k} for video {args.video_id} "
            f"({args.method} method)",
        )
    )
    stats = result.stats
    print(
        f"\ncost: {stats.page_requests} page accesses, "
        f"{stats.similarity_computations} similarity computations, "
        f"{stats.ranges} range search(es)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-video",
        description="ViTri video-sequence indexing (SIGMOD 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic video dataset"
    )
    generate.add_argument("--out", required=True, help="output .npz path")
    generate.add_argument(
        "--preset", choices=sorted(_PRESETS), default="default"
    )
    generate.add_argument("--families", type=int, default=None)
    generate.add_argument("--family-size", type=int, default=None)
    generate.add_argument("--distractors", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    stats = commands.add_parser("stats", help="dataset statistics (Table 2)")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=_cmd_stats)

    summarize = commands.add_parser(
        "summarize", help="summary statistics at one epsilon (Table 3 row)"
    )
    summarize.add_argument("--dataset", required=True)
    summarize.add_argument("--epsilon", type=float, default=0.3)
    summarize.set_defaults(func=_cmd_summarize)

    build = commands.add_parser("build", help="build a database directory")
    build.add_argument("--dataset", required=True)
    build.add_argument("--out", required=True, help="database directory")
    build.add_argument("--epsilon", type=float, default=0.3)
    build.add_argument(
        "--reference",
        choices=("optimal", "data_center", "space_center"),
        default="optimal",
    )
    build.add_argument(
        "--summaries",
        default=None,
        help="load cached summaries (.npz) instead of re-clustering",
    )
    build.add_argument(
        "--save-summaries",
        default=None,
        help="cache the computed summaries to this .npz path",
    )
    build.set_defaults(func=_cmd_build)

    query = commands.add_parser("query", help="KNN query against an index")
    query.add_argument("--index", required=True, help="database directory")
    query.add_argument("--dataset", required=True)
    query.add_argument("--video-id", type=int, required=True)
    query.add_argument("--k", type=int, default=10)
    query.add_argument(
        "--method", choices=("composed", "naive"), default="composed"
    )
    query.set_defaults(func=_cmd_query)

    check = commands.add_parser(
        "check",
        help="verify a database or fleet directory's integrity",
        description=(
            "Verify page checksums and B+-tree invariants of a database "
            "directory written by 'build', or of every shard of a fleet "
            "directory plus its placement."
        ),
    )
    check.add_argument(
        "--index", required=True, help="database or fleet directory"
    )
    check.set_defaults(func=_cmd_check)

    serve = commands.add_parser(
        "serve",
        help="serve a durable fleet over TCP behind a bounded front door",
        description=(
            "Start one shard server per shard of a fleet directory, a "
            "read-only scatter router over remote proxies, and a TCP "
            "front door with bounded admission. Ctrl-C drains gracefully."
        ),
    )
    serve.add_argument("--index", required=True, help="fleet directory")
    serve.add_argument(
        "--mode",
        choices=("thread", "subprocess"),
        default="thread",
        help="run shard servers on threads or as child processes",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="front-door port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="front-door worker threads"
    )
    serve.add_argument(
        "--max-queue", type=int, default=32, help="admission queue depth"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="front-door token-bucket refill (queries/s; default: unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        help="front-door token-bucket capacity (default: --rate)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight queries at shutdown",
    )
    serve.set_defaults(func=_cmd_serve)

    from repro.analysis.cli import build_parser as build_lint_parser

    lint_parser = build_lint_parser()
    lint = commands.add_parser(
        "lint",
        # The -h of vilint's own parser comes with its other options.
        parents=[lint_parser],
        add_help=False,
        help="run vilint, the project's static-analysis pass",
        description=lint_parser.description,
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
