"""Concurrency stress: runtime lock acquisitions vs. the static model.

The static analysis (:mod:`repro.analysis.concurrency`) derives a
lock-order graph without running anything; :mod:`repro.utils.locks`
records the orders actually taken at runtime.  These tests hammer the
sharded database and the query engine from many threads with tracking
enabled and assert the two views agree:

* no :class:`LockOrderViolation` fires (the runtime graph stays acyclic
  even under adversarial interleavings), and
* every runtime edge is present in the static graph — the analysis is
  an over-approximation, so an unexplained runtime edge means the model
  missed a code path.

``REPRO_TRACK_LOCKS`` is consulted when a lock is *constructed*, so the
fixtures set it (via monkeypatch) before building any objects.
"""

import sys
import threading
from pathlib import Path

import pytest

from repro.analysis.concurrency import build_model_from_paths
from repro.core.index import VitriIndex
from repro.core.engine import QueryEngine
from repro.core.summarize import summarize_video
from repro.datasets.synthetic import DatasetConfig, generate_dataset
from repro.shard import KeyRangePartitioner, ShardedVideoDatabase
from repro.utils.locks import LOCK_ORDER_GRAPH, TrackedRLock, make_lock
from tests.test_core_engine import serve_concurrently

EPSILON = 0.3
SEEDS = [11, 23, 47]

_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def static_edges():
    """The statically-derived lock-order graph over the whole library."""
    return build_model_from_paths([str(_SRC)]).edge_set()


@pytest.fixture()
def tracked(monkeypatch):
    """Enable lock tracking and isolate this test's observed edges."""
    monkeypatch.setenv("REPRO_TRACK_LOCKS", "1")
    LOCK_ORDER_GRAPH.reset()
    yield
    LOCK_ORDER_GRAPH.reset()


def _summaries(seed):
    config = DatasetConfig(
        dim=8,
        num_families=3,
        family_size=3,
        num_distractors=6,
        duration_classes=((20, 0.5), (12, 0.5)),
    )
    dataset = generate_dataset(config, seed=seed)
    return [
        summarize_video(i, dataset.frames(i), EPSILON, seed=i)
        for i in range(dataset.num_videos)
    ]


def _run_threads(targets):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_stress_runtime_graph_within_static(
    tracked, static_edges, tmp_path, seed
):
    """Concurrent knn / add / remove / checkpoint / rebuild_shard on a
    durable fleet: the writer waits on the rebuild's write barrier while
    the queries run on."""
    summaries = _summaries(seed)
    fleet = ShardedVideoDatabase(
        EPSILON,
        partitioner=KeyRangePartitioner.fit(summaries, 3),
        path=str(tmp_path / "fleet"),
    )
    assert isinstance(fleet._lock, TrackedRLock)  # env gate took effect
    for summary in summaries:
        fleet.add_summary(summary)

    stop = threading.Event()

    def query(offset):
        def run():
            position = offset
            while not stop.is_set():
                fleet.knn(summaries[position % len(summaries)], 3)
                position += 1

        return run

    def write():
        # Re-adds each video it removes, so the fleet's content is whole
        # again whenever the loop stops.
        position = 0
        while not stop.is_set():
            summary = summaries[position % len(summaries)]
            fleet.remove(summary.video_id)
            fleet.add_summary(summary)
            position += 1

    def maintain():
        try:
            for _ in range(3):
                fleet.checkpoint()
            fleet.rebuild_shard(0)
        finally:
            stop.set()

    errors = _run_threads([query(0), query(5), query(9), write, maintain])
    stop.set()
    assert errors == []

    observed = LOCK_ORDER_GRAPH.edges()
    # The router's public ops nest into engine/pool/pager locks, so the
    # stress must have observed *something*.
    assert observed, "tracking was enabled but recorded no edges"
    unexplained = observed - static_edges
    assert not unexplained, (
        f"runtime lock-order edges missing from the static model: "
        f"{sorted(unexplained)}"
    )
    fleet.close()


def test_engine_stress_runtime_graph_within_static(tracked, static_edges):
    """Eight threads calling ``engine.knn`` at once over the engine's one
    shared view get the serial rankings, scores and logical per-query
    counters, and take no lock order the static model lacks."""
    summaries = _summaries(7)
    index = VitriIndex.build(summaries, EPSILON, reference="optimal")
    queries = summaries * 2
    serial = [index.knn(query, 3) for query in queries]
    engine = QueryEngine(index, cache_size=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results, _ = serve_concurrently(engine, queries, 3, workers=8)
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, results):
        assert got.videos == expected.videos
        assert got.scores == expected.scores
        # Physical reads depend on who finds a page in the shared pool.
        for field in (
            "page_requests",
            "node_visits",
            "similarity_computations",
            "candidates",
            "ranges",
        ):
            assert getattr(got.stats, field) == getattr(expected.stats, field)

    observed = LOCK_ORDER_GRAPH.edges()
    unexplained = observed - static_edges
    assert not unexplained, (
        f"runtime lock-order edges missing from the static model: "
        f"{sorted(unexplained)}"
    )


def test_static_graph_is_nonempty_and_acyclic(static_edges):
    """The library's own graph orders router above storage, and has no
    cycles (VIL009 clean means this must hold)."""
    assert ("BufferPool._lock", "Pager._lock") in static_edges
    assert any(
        held == "ShardedVideoDatabase._lock" for held, _ in static_edges
    )
    adjacency = {}
    for held, acquired in static_edges:
        adjacency.setdefault(held, set()).add(acquired)

    def reaches(source, target):
        stack, seen = [source], set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return False

    for held, acquired in static_edges:
        assert not reaches(acquired, held), (
            f"static cycle through {held} -> {acquired}"
        )


def test_tracking_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACK_LOCKS", raising=False)
    lock = make_lock("Fixture._lock")
    assert not isinstance(lock, TrackedRLock)


def test_tree_node_visits_exact_under_concurrent_readers():
    """The tree's lifetime ``node_visits`` loses no update when eight
    threads read through one shared tree: its delta equals the sum of the
    per-query ``btree_node_visits`` bundles."""
    summaries = _summaries(11)
    index = VitriIndex.build(summaries, EPSILON, reference="optimal")
    # No result cache: every query walks the shared tree.
    engine = QueryEngine(index, cache_size=0)
    tree = engine._snapshot.tree
    queries = summaries * 40
    before = tree.node_visits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, _ = serve_concurrently(engine, queries, 3, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert tree.node_visits - before == sum(
        result.stats.node_visits for result in results
    )
