"""Unit tests for the runtime lock-order validator (repro.utils.locks)."""

import threading

import pytest

from repro.utils.locks import (
    LockOrderGraph,
    LockOrderViolation,
    TrackedRLock,
    make_lock,
    tracking_enabled,
)


@pytest.fixture()
def graph():
    return LockOrderGraph()


class TestLockOrderGraph:
    def test_records_edges(self, graph):
        graph.record("A", "B")
        graph.record("B", "C")
        assert graph.edges() == {("A", "B"), ("B", "C")}

    def test_self_edge_ignored(self, graph):
        graph.record("A", "A")
        assert graph.edges() == set()

    def test_direct_inversion_raises(self, graph):
        graph.record("A", "B")
        with pytest.raises(LockOrderViolation, match="inverts"):
            graph.record("B", "A")

    def test_transitive_inversion_raises(self, graph):
        graph.record("A", "B")
        graph.record("B", "C")
        with pytest.raises(LockOrderViolation):
            graph.record("C", "A")

    def test_violation_leaves_graph_unchanged(self, graph):
        graph.record("A", "B")
        with pytest.raises(LockOrderViolation):
            graph.record("B", "A")
        assert graph.edges() == {("A", "B")}

    def test_reset(self, graph):
        graph.record("A", "B")
        graph.reset()
        assert graph.edges() == set()
        graph.record("B", "A")  # no longer an inversion
        assert graph.edges() == {("B", "A")}

    def test_to_dot_stable(self, graph):
        graph.record("B", "C")
        graph.record("A", "B")
        assert graph.to_dot() == (
            'digraph lock_order {\n  "A" -> "B";\n  "B" -> "C";\n}\n'
        )


class TestTrackedRLock:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            TrackedRLock("")

    def test_nested_acquisition_records_edge(self, graph):
        outer = TrackedRLock("Outer._lock", graph)
        inner = TrackedRLock("Inner._lock", graph)
        with outer:
            with inner:
                pass
        assert graph.edges() == {("Outer._lock", "Inner._lock")}

    def test_reentrant_acquisition_records_nothing(self, graph):
        lock = TrackedRLock("Outer._lock", graph)
        with lock:
            with lock:
                pass
        assert graph.edges() == set()

    def test_same_name_instances_record_no_self_edge(self, graph):
        # Class-level nodes: two Pager._lock instances are one node.
        first = TrackedRLock("Pager._lock", graph)
        second = TrackedRLock("Pager._lock", graph)
        with first:
            with second:
                pass
        assert graph.edges() == set()

    def test_inversion_raises_before_blocking(self, graph):
        a = TrackedRLock("A._lock", graph)
        b = TrackedRLock("B._lock", graph)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation):
                a.acquire()

    def test_held_stack_is_per_thread(self, graph):
        a = TrackedRLock("A._lock", graph)
        b = TrackedRLock("B._lock", graph)
        done = threading.Event()

        def other():
            with b:
                pass
            done.set()

        with a:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert done.is_set()
        # The other thread held nothing of this thread's stack: no edge.
        assert graph.edges() == set()

    def test_release_out_of_order_tolerated(self, graph):
        a = TrackedRLock("A._lock", graph)
        b = TrackedRLock("B._lock", graph)
        a.acquire()
        b.acquire()
        a.release()
        b.release()
        assert graph.edges() == {("A._lock", "B._lock")}

    def test_condition_wait_releases_every_level_and_restores_them(
        self, graph
    ):
        lock = TrackedRLock("Server._lock", graph)
        inner = TrackedRLock("Inner._lock", graph)
        condition = threading.Condition(lock)
        notified = []

        def notifier():
            with lock:  # only acquirable because wait() let go of both levels
                notified.append(True)
                condition.notify_all()

        thread = threading.Thread(target=notifier)
        with lock:
            with lock:
                thread.start()
                assert condition.wait_for(lambda: notified, timeout=10.0)
                with inner:  # the restored stack still names the lock
                    pass
        thread.join(10.0)
        assert graph.edges() == {("Server._lock", "Inner._lock")}
        assert not lock._is_owned()

    def test_repr_names_the_lock(self):
        assert "Pager._lock" in repr(TrackedRLock("Pager._lock"))


class TestMakeLock:
    def test_plain_rlock_when_untracked(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACK_LOCKS", raising=False)
        assert not tracking_enabled()
        lock = make_lock("X._lock")
        assert not isinstance(lock, TrackedRLock)
        with lock:  # still a context-manager re-entrant lock
            with lock:
                pass

    def test_tracked_when_env_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACK_LOCKS", "1")
        assert tracking_enabled()
        lock = make_lock("X._lock")
        assert isinstance(lock, TrackedRLock)
        assert lock.name == "X._lock"
