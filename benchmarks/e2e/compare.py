"""``run.py compare A.json B.json``: is B worse than A?

One row per workload x end-to-end metric.  B is ``worse`` when its median
is worse than A's by more than the metric's bound, ``unresolved`` when the
run-to-run spread of either side (the distance between its quartiles)
exceeds the bound, so the comparison cannot tell, and ``ok`` otherwise.
Exit code 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

__all__ = ["EXTENDED", "load_spec", "main", "quartiles", "verdict"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# End-to-end metrics the driver cannot gate on, so they are printed,
# written to --out and gated here but are not in BENCHMARK.json.  Its
# contract wants one metric set that every workload reports, never 0, and
# steady within a bound of at most 25 %: the last five exist on one
# workload or are 0 on the seed, and a p95 over the few hundred samples a
# run affords has a run-to-run spread of 4-50 % in the sandbox (see
# README.md).  An ``absolute`` bound is a difference, not a share of A's
# median.
EXTENDED = [
    {"name": "query_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "max_rate_ok_qps", "unit": "1/s", "better": "higher", "bound": 0.0},
    {"name": "ingest_burst_videos_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "ingest_commit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ingest_commit_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.005,
     "absolute": True},
]


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(metric: dict, before: list, after: list) -> tuple[str, float, float, float]:
    """``(verdict, median before, median after, spread)`` for one row."""
    low_a, mid_a, high_a = quartiles(before)
    low_b, mid_b, high_b = quartiles(after)
    scale = 1.0 if metric.get("absolute") else abs(mid_a)
    allowed = metric["bound"] * scale
    spread = max(high_a - low_a, high_b - low_b)
    worsening = mid_b - mid_a if metric["better"] == "lower" else mid_a - mid_b
    if spread > allowed and (len(before) > 1 or len(after) > 1):
        return "unresolved", mid_a, mid_b, spread
    return ("worse" if worsening > allowed else "ok"), mid_a, mid_b, spread


def _by_workload(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    groups: dict = {}
    for run in document["runs"]:
        if run["trace"] == 0:
            groups.setdefault(run["workload"], []).append(run)
    return groups


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("before", help="--out document of the parent commit")
    parser.add_argument("after", help="--out document of the change")
    args = parser.parse_args(argv)
    declared = load_spec()["end_to_end"] + EXTENDED
    before, after = _by_workload(args.before), _by_workload(args.after)
    worse = 0
    print(f"{'workload':<20}{'metric':<28}{'before':>12}{'after':>12}{'spread':>10}  verdict")
    for workload in before:
        if workload not in after:
            continue
        for metric in declared:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in before[workload] if name in r["metrics"]]
            values_b = [r["metrics"][name]["value"] for r in after[workload] if name in r["metrics"]]
            if not values_a or not values_b:
                continue
            result, mid_a, mid_b, spread = verdict(metric, values_a, values_b)
            worse += result == "worse"
            print(
                f"{workload:<20}{name:<28}{mid_a:>12.5g}{mid_b:>12.5g}{spread:>10.3g}  {result}"
            )
        for side, groups in (("before", before), ("after", after)):
            invalid = [reason for run in groups[workload] for reason in run["invalid"]]
            for reason in invalid:
                print(f"{workload:<20}{side} run invalid: {reason}")
    return 1 if worse else 0
