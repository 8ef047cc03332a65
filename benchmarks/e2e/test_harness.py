"""Tests of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.core.vitri import VideoSummary, ViTri
from repro.utils.clock import VirtualClock

from e2e import cli, compare, loadgen
from e2e.trace import Tracer, self_times


@pytest.fixture
def restore_affinity():
    """``cli.main`` pins the process to one core; undo it for later tests."""
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if before is not None:
        os.sched_setaffinity(0, before)


def _smoke(tmp_path, *extra) -> dict:
    out = tmp_path / "result.json"
    assert cli.main(["--smoke", "--seconds", "2", "--out", str(out), *extra]) == 0
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_reports_every_end_to_end_metric(tmp_path, restore_affinity, capsys):
    spec = cli.load_spec()
    document = _smoke(tmp_path)
    assert [run["workload"] for run in document["runs"]] == [
        workload["name"] for workload in spec["workloads"]
    ]
    for run in document["runs"]:
        for metric in spec["end_to_end"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] >= 0, (run["workload"], metric["name"])
        # Seconds of load cannot support a p95, so smoke runs are marked
        # invalid for that; the oracle must still agree.
        assert not [reason for reason in run["invalid"] if reason.startswith("oracle")]
        assert run["failed"] == 0
    assert document["fingerprint"]["seed"] == 1
    assert document["fingerprint"]["calibration"]["fleet_open_unique"]["rates_qps"]
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert list(last["metrics"]) == [metric["name"] for metric in spec["end_to_end"]]


def test_smoke_traced_run_reports_every_layer_metric(tmp_path, restore_affinity):
    spec = cli.load_spec()
    spans = tmp_path / "spans.jsonl"
    document = _smoke(tmp_path, "--trace", "1", "--spans", str(spans))
    for run in document["runs"]:
        for metric in spec["per_layer"]:
            assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
        values = {name: entry["value"] for name, entry in run["metrics"].items()}
        if run["workload"] == "index_cold_scan":
            # One thread: the layer spans must sum to the end-to-end time.
            assert values["trace.unattributed_frac"] <= 0.15
            assert values["engine.result_cache_hit_rate"] == 0
            assert values["protocol.bytes_per_query"] == 0
        if run["workload"] == "fleet_tcp_zipf":
            assert values["transport.requests_per_query"] > 0
            assert values["engine.result_cache_hit_rate"] > 0
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert sorted(first) == ["attrs", "end", "id", "name", "parent", "request", "start"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert loadgen.tail(range(200), 0.95) == pytest.approx(189.05)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.tail(range(199), 0.95)
    assert loadgen.supported_tail(1000) == 0.95
    assert loadgen.supported_tail(200) == 0.95
    assert loadgen.supported_tail(100) == 0.90
    assert loadgen.supported_tail(27) == 0.50
    assert loadgen.supported_tail(19) is None
    assert loadgen.best_tail(range(100)) == (0.90, pytest.approx(89.1))
    assert loadgen.best_tail(range(5))[0] is None


def test_open_loop_times_from_due_time_against_a_stalled_target():
    clock = VirtualClock()

    def issue(sample) -> None:
        # The first operation stalls the (synchronous) target for 50 ms;
        # every operation takes 1 ms of service.
        clock.sleep(0.051 if sample.op == 0 else 0.001)
        sample.done = clock.now()

    samples = loadgen.run_open_loop(
        range(4), 100.0, issue, now=clock.now, sleep=clock.sleep
    )
    # Due at 0, 10, 20, 30 ms whatever the target does.
    assert [s.due for s in samples] == pytest.approx([0.0, 0.01, 0.02, 0.03])
    # Started back to back once the stall ended: 0, 51, 52, 53 ms.
    assert [s.started for s in samples] == pytest.approx([0.0, 0.051, 0.052, 0.053])
    # The stall is charged to the operations that waited behind it.
    assert [s.latency for s in samples] == pytest.approx([0.051, 0.042, 0.033, 0.024])


def test_closed_loop_stops_issuing_at_its_deadline():
    clock = VirtualClock()

    def issue(_, sample) -> None:
        clock.sleep(1.0)

    samples = loadgen.run_closed_loop([range(10)], issue, now=clock.now, stop_at=2.5)
    assert len(samples) == 3
    assert all(s.answered for s in samples)


def test_self_time_subtracts_the_union_of_clipped_children():
    #   root 0..10
    #     a 1..4 (child 2..3), b 3..6 on another thread (overlaps a),
    #     c 8..12 runs past its parent and is clipped to 8..10
    root = ["root", 0.0, 10.0, None, None, None]
    a = ["a", 1.0, 4.0, root, None, None]
    a_child = ["a.child", 2.0, 3.0, a, None, None]
    b = ["b", 3.0, 6.0, root, None, None]
    c = ["c", 8.0, 12.0, root, None, None]
    own = self_times([root, a, a_child, b, c])
    assert own[id(root)] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[id(a)] == pytest.approx(2.0)
    assert own[id(a_child)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(4.0)


def _summary(video_id: int) -> VideoSummary:
    position = np.full(4, 0.25)
    return VideoSummary(video_id, (ViTri(position, 0.1, 5),), 5)


class _Service:
    def knn(self, query, k):
        return self.scan(k)

    def scan(self, k):
        return k


def test_tracer_links_spans_within_and_across_threads_and_restores():
    original = _Service.knn
    ticks = iter(range(100))
    tracer = Tracer(now=lambda: float(next(ticks)))
    tracer.wrap_method(_Service, "knn", "service.knn", query_arg=1)
    tracer.wrap_method(_Service, "scan", "service.scan")
    query = _summary(7)
    try:
        root = tracer.open_request(query)
        worker = threading.Thread(target=_Service().knn, args=(query, 3))
        worker.start()
        worker.join()
        tracer.leave_thread(root)
        tracer.close_request(root)
    finally:
        tracer.uninstall()
    assert _Service.knn is original
    by_name = {span[0]: span for span in tracer.spans()}
    assert by_name["service.scan"][3] is by_name["service.knn"]
    # The worker's span opened its thread's stack and joined the request
    # that was open on the main thread.
    assert by_name["service.knn"][3] is by_name["request"]
    assert by_name["service.knn"][4] == by_name["request"][4]


def test_compare_verdicts():
    lower = {"name": "query_p50_ms", "better": "lower", "bound": 0.10}
    assert compare.verdict(lower, [10.0], [10.9])[0] == "ok"
    assert compare.verdict(lower, [10.0], [11.1])[0] == "worse"
    assert compare.verdict(lower, [10.0], [5.0])[0] == "ok"
    # Quartiles 2.5 apart on a median of 10: wider than the 10% bound.
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert compare.verdict(lower, noisy, [10.0] * 5)[0] == "unresolved"
    higher = {"name": "max_rate_ok_qps", "better": "higher", "bound": 0.0}
    assert compare.verdict(higher, [47.0], [27.0])[0] == "worse"
    assert compare.verdict(higher, [47.0], [80.0])[0] == "ok"
    absolute = {"name": "failed_frac", "better": "lower", "bound": 0.005, "absolute": True}
    assert compare.verdict(absolute, [0.0], [0.004])[0] == "ok"
    assert compare.verdict(absolute, [0.0], [0.006])[0] == "worse"
