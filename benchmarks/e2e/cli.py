"""Command line of the end-to-end benchmark.

One invocation generates the seed's corpus once, runs one or all
workloads over it and prints every metric by name and unit.  The last
line of standard output is the driver's JSON object for the last run:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from repro.utils.clock import SystemClock

from e2e import compare, layers
from e2e.compare import ROOT, load_spec
from e2e.corpus import generate_corpus
from e2e.trace import Tracer
from e2e.workloads import WORKLOADS, execute

HERE = os.path.dirname(os.path.abspath(__file__))

TRACED_FRACTION = 1.0 / 3.0


def pin_to_one_core() -> list[int]:
    """Run the whole process, and every thread it starts, on one core.

    On two cores every threaded workload is bimodal: where the kernel
    happens to place the GIL-sharing threads decides between two latency
    levels a factor of two apart (15 ms or 31 ms at the median on
    ``fleet_open_unique``), and the draw sticks for the whole run.  No
    bound can be held across such runs, so the placement is fixed instead.
    One core is also the faster of the two levels for this GIL-bound
    program.  Returns the cores in use, for the fingerprint.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return [core]


def load_calibration() -> dict:
    with open(os.path.join(HERE, "calibration.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(args, scale, seconds, calibration, names, cores) -> dict:
    """Where and with what the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cores": cores,
        "seed": args.seed,
        "seconds": seconds,
        "scale": scale,
        "calibrated_on": calibration["machine"],
        "calibration": {name: calibration["scales"][scale][name] for name in names},
    }


def _named(values: dict, declared: list) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def run_once(name, spec, calibration, scale, dataset, generate_s, workdir, args, seconds):
    """One run of one workload; returns its record for the output document."""
    common = dict(seed=args.seed, seconds=seconds)
    if not args.trace:
        outcome = execute(
            name, calibration, scale, dataset, workdir,
            setups=calibration["setup_repeats"], **common,
        )
        metrics = _named(outcome.metrics, spec["end_to_end"])
        metrics.update(
            _named(
                outcome.metrics,
                [m for m in compare.EXTENDED if m["name"] in outcome.metrics],
            )
        )
    else:
        # The per-layer table covers the first third of each operation
        # list, once untraced and once traced from fresh set-ups: the
        # difference between the two medians is the tracing overhead.
        plain = execute(
            name, calibration, scale, dataset, workdir,
            fraction=TRACED_FRACTION, **common,
        )
        tracer = Tracer()
        layers.install(tracer)
        try:
            outcome = execute(
                name, calibration, scale, dataset, workdir,
                fraction=TRACED_FRACTION, tracer=tracer, **common,
            )
        finally:
            tracer.uninstall()
        values = layers.derive(
            outcome, tracer,
            untraced_p50_ms=plain.metrics["query_p50_ms"], generate_s=generate_s,
        )
        metrics = _named(values, spec["per_layer"])
        if args.spans:
            tracer.dump(args.spans)
    detail = {
        key: value for key, value in outcome.facts.items() if key in ("rates", "oracle_last_bit_diffs")
    }
    return {
        "workload": name,
        "trace": int(args.trace),
        "correct": not outcome.invalid,
        "invalid": outcome.invalid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "samples": len(outcome.reported),
        "metrics": metrics,
        "detail": detail,
    }


def print_runs(runs: list, stream) -> None:
    """The metrics of every run by name and unit; with repeats, the
    median and quartiles over the runs of one workload."""
    by_workload: dict = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    for name, group in by_workload.items():
        first = group[0]
        state = "ok" if all(run["correct"] for run in group) else "INVALID"
        print(
            f"== {name}  trace={first['trace']}  runs={len(group)}  "
            f"samples={first['samples']}  attempted={first['attempted']}  "
            f"failed={first['failed']}  {state}",
            file=stream,
        )
        for run in group:
            for reason in run["invalid"]:
                print(f"   invalid: {reason}", file=stream)
        for metric, entry in first["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in group]
            if len(values) == 1:
                print(f"   {metric:<44}{values[0]:>16.6g} {entry['unit']}", file=stream)
            else:
                low, mid, high = compare.quartiles(values)
                print(
                    f"   {metric:<44}{mid:>16.6g} {entry['unit']:<6} "
                    f"[q1 {low:.6g}, q3 {high:.6g}]",
                    file=stream,
                )
        for rate in first["detail"].get("rates", ()):
            tail = rate["tail_fraction"]
            print(
                f"   rate {rate['rate_qps']:g}/s: n={rate['samples']} "
                f"p50={rate['p50_ms']:.1f} ms "
                f"p{(tail or 0) * 100:g}={rate['tail_ms']:.1f} ms "
                f"sheds={rate['sheds']} backlog_end={rate['backlog_end']} "
                f"done/s={rate['completed_per_s']:.1f} ok={rate['ok']}",
                file=stream,
            )


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: print the per-layer table from a traced run instead",
    )
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload")
    parser.add_argument("--smoke", action="store_true", help="200-video scale, seconds")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--spans", help="with --trace: dump the spans as JSON lines")
    args = parser.parse_args(argv)

    cores = pin_to_one_core()
    spec = load_spec()
    calibration = load_calibration()
    scale = "smoke" if args.smoke else "bench"
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.smoke else float(spec["run_seconds"])
    )
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    nproc = os.cpu_count() or 1
    for name in names:
        threads = WORKLOADS[name].generator_threads
        if threads > nproc:
            parser.error(
                f"{name} drives {threads} generator threads but this "
                f"machine has {nproc} cores"
            )

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    clock = SystemClock()
    runs = []
    try:
        videos = max(calibration["scales"][scale][name]["videos"] for name in names)
        started = clock.now()
        dataset = generate_corpus(videos, calibration["corpus_seed"])
        generate_s = clock.now() - started
        for name in names:
            for _ in range(args.repeats):
                runs.append(
                    run_once(
                        name, spec, calibration, scale, dataset, generate_s,
                        workdir, args, seconds,
                    )
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.out:
        document = {
            "fingerprint": fingerprint(args, scale, seconds, calibration, names, cores),
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    print_runs(runs, sys.stdout)
    last = runs[-1]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        json.dumps(
            {
                "correct": last["correct"],
                "attempted": last["attempted"],
                "failed": last["failed"],
                "metrics": {m["name"]: last["metrics"][m["name"]] for m in declared},
            }
        )
    )
    return 0
