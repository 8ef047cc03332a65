"""Network-path equivalence and the front door's admission machinery.

The headline test scatters the PR 7 golden corpora through a full
:class:`~repro.serve.frontdoor.NetworkFleet` (thread-mode servers,
remote proxies, read-only router, front door) and asserts the rankings
are *bit-identical* to the in-process router's — scores, order, ties.

The admission tests drive a :class:`~repro.serve.frontdoor.FrontDoor`
over a stub router whose queries block on an event, so queue overflow,
rate limiting and draining are exercised deterministically, without
timing assumptions.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import threading

import pytest

from repro.serve.frontdoor import (
    FrontDoor,
    FrontDoorServer,
    NetworkFleet,
    TokenBucket,
)
from repro.serve.protocol import (
    RateLimited,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.serve.transport import RemoteShardClient
from repro.shard.router import ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.utils.clock import VirtualClock
from tests.test_golden_rankings import EPSILON, K, SEEDS, build_corpus
from tests.test_shard_router import toy_corpus


def build_fleet_dir(tmp: str, summaries, num_shards: int = 3) -> str:
    fleet_dir = f"{tmp}/fleet"
    db = ShardedVideoDatabase(
        EPSILON, partitioner="hash", num_shards=num_shards, path=fleet_dir
    )
    for summary in summaries:
        db.add_summary(summary)
    db.close()
    return fleet_dir


@pytest.mark.parametrize("seed", SEEDS)
def test_network_rankings_bit_identical_to_in_process(seed):
    summaries, _ = build_corpus(seed)
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir) as db:
            local = [db.knn(query, K) for query in summaries]
        with NetworkFleet(fleet_dir, mode="thread", workers=2) as fleet:
            for query, want in zip(summaries, local):
                got = fleet.query_sync(query, K, timeout=60.0)
                assert got.videos == want.videos
                assert got.scores == want.scores  # bitwise over TCP
                assert got.coverage is not None
                assert got.coverage.complete


def test_one_request_per_populated_shard():
    """A query costs each populated shard exactly one request: the
    key-bounds proof rides inside the sub-query, not in a probe of its
    own."""
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries, num_shards=4)
        with NetworkFleet(
            fleet_dir, mode="thread", replicas_per_shard=1
        ) as fleet:

            def served() -> int:
                return sum(
                    shard_server.requests_served
                    for shard_server in fleet._servers.values()
                )

            server = FrontDoorServer(fleet.frontdoor)
            client = RemoteShardClient(*server.run_in_thread())
            try:
                before = served()
                body = client.request("knn", {"k": K}, summary=summaries[0])
                assert len(body["scatter"]["shards_queried"]) == 4
                assert served() - before == 4
            finally:
                client.close()
                server.stop()
                assert server.wait_closed(10.0)


def test_far_query_is_pruned_over_the_wire():
    """Every shard server answers a far query with its proof, the wire
    carries ``pruned`` back, and no served shard runs a search."""
    summaries, far = toy_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries, num_shards=3)
        with NetworkFleet(fleet_dir, mode="thread") as fleet:

            def searches() -> list[int]:
                return [
                    body["queries_served"]
                    for body in fleet.status()["shards"].values()
                ]

            before = searches()
            got = fleet.query_sync(far, K, timeout=60.0)
            assert got.videos == ()
            assert got.scatter.shards_pruned == (0, 1, 2)
            assert got.scatter.shards_queried == ()
            assert got.coverage.shards_pruned == (0, 1, 2)
            assert got.coverage.complete
            assert got.stats.candidates == 0
            assert searches() == before


def test_read_only_router_refuses_mutation():
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with NetworkFleet(fleet_dir, mode="thread") as fleet:
            with pytest.raises(RuntimeError, match="read-only"):
                fleet.router.add_summary(summaries[0])
            with pytest.raises(RuntimeError, match="read-only"):
                fleet.router.checkpoint()
            assert fleet.router.video_ids() == {
                summary.video_id for summary in summaries
            }


def test_failed_startup_tears_down_what_it_started():
    """Regression: when a later shard fails to come up, the servers
    already listening (daemon threads holding shard directories and WAL
    handles open) used to be leaked by ``NetworkFleet.__init__``."""
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with open(f"{fleet_dir}/shards.json", encoding="utf-8") as handle:
            shard_dirs = json.load(handle)["shards"]
        meta_path = f"{fleet_dir}/{shard_dirs[-1]}/db.json"
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["format"] = "from-the-future"
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

        with pytest.raises(ValueError, match="unsupported format"):
            NetworkFleet(fleet_dir, mode="thread")
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("shard-server-")
        ]
        assert leaked == []
        # The first shard's directory was released cleanly: it reopens
        # writable and checkpoints.
        first = Shard(0, epsilon=EPSILON, path=f"{fleet_dir}/{shard_dirs[0]}")
        first.add_summary(dataclasses.replace(summaries[0], video_id=10_000))
        first.close()


def test_restart_shard_under_live_traffic():
    summaries, _ = build_corpus(SEEDS[1])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir) as db:
            local = {
                summary.video_id: db.knn(summary, K) for summary in summaries
            }
        with NetworkFleet(fleet_dir, mode="thread", workers=2) as fleet:
            stop = threading.Event()
            outcomes: list[tuple[int, object]] = []

            def traffic() -> None:
                position = 0
                while not stop.is_set():
                    query = summaries[position % len(summaries)]
                    position += 1
                    try:
                        result = fleet.query_sync(query, K, timeout=60.0)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        outcomes.append((query.video_id, exc))
                    else:
                        outcomes.append((query.video_id, result))

            client = threading.Thread(target=traffic, name="traffic")
            client.start()
            try:
                for shard_id in range(fleet.num_shards):
                    fleet.restart_shard(shard_id)
            finally:
                stop.set()
                client.join(30.0)

            assert outcomes, "traffic thread never completed a query"
            hard_failures = [
                exc for _, exc in outcomes if isinstance(exc, Exception)
            ]
            assert not hard_failures, hard_failures
            # Complete answers must equal the in-process golden result;
            # degraded ones must say exactly what they are.
            complete = 0
            for video_id, result in outcomes:
                if result.coverage is not None and result.coverage.complete:
                    complete += 1
                    assert result.videos == local[video_id].videos
                    assert result.scores == local[video_id].scores
            assert complete > 0, "no query ever saw the full fleet"

            # After every restart the fleet is whole again.
            final = fleet.query_sync(summaries[0], K, timeout=60.0)
            assert final.coverage.complete
            assert final.scores == local[summaries[0].video_id].scores


def test_frontdoor_server_speaks_the_shard_protocol():
    # The TCP front speaks the same framing as a shard server, so one
    # client codec serves both layers — and rankings stay bit-identical
    # through the extra hop.
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir) as db:
            want = db.knn(summaries[0], K)
        with NetworkFleet(fleet_dir, mode="thread", workers=2) as fleet:
            server = FrontDoorServer(fleet.frontdoor)
            host, port = server.run_in_thread()
            client = RemoteShardClient(host, port)
            try:
                assert client.request("status")["stats"]["admitted"] == 0
                body = client.request("knn", {"k": K}, summary=summaries[0])
                assert tuple(int(v) for v in body["videos"]) == want.videos
                assert tuple(
                    float(score) for score in body["scores"]
                ) == want.scores
                assert body["coverage"]["complete"] is True
                with pytest.raises(ValueError, match="requires a query"):
                    client.request("knn", {"k": K})
                assert client.request("status")["stats"]["admitted"] >= 1
            finally:
                client.close()
                server.stop()
                assert server.wait_closed(10.0)


def test_burst_accounting_over_a_real_fleet():
    # The front door's one bucket holds exactly `quota` tokens and
    # refills one token per ~11.6 days, so precisely the over-quota
    # excess of all clients together is shed whatever the machine's
    # speed; no wall-clock threshold anywhere.
    clients, offered_per_client, quota = 3, 6, 2
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir) as db:
            local = {
                summary.video_id: db.knn(summary, K) for summary in summaries
            }
        outcomes: list[list[tuple[int, object]]] = [[] for _ in range(clients)]

        def run_client(index: int) -> None:
            # Offset walks so concurrent clients hit different shards.
            for position in range(offered_per_client):
                query = summaries[(position + index) % len(summaries)]
                try:
                    result = fleet.query_sync(query, K, timeout=60.0)
                except Exception as exc:  # noqa: BLE001 - typed below
                    result = exc
                outcomes[index].append((query.video_id, result))

        with NetworkFleet(
            fleet_dir,
            mode="thread",
            workers=2,
            max_queue=8,
            rate=1e-6,
            burst=float(quota),
        ) as fleet:
            threads = [
                threading.Thread(target=run_client, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
                assert not thread.is_alive()

    flat = [entry for log in outcomes for entry in log]
    shed = [result for _, result in flat if isinstance(result, Exception)]
    completed = [
        entry for entry in flat if not isinstance(entry[1], Exception)
    ]
    # completed + shed == offered: every request got exactly one outcome,
    # and (below) every non-answer is a typed shed.
    assert len(completed) + len(shed) == clients * offered_per_client
    assert len(shed) == clients * offered_per_client - quota
    for exc in shed:
        assert isinstance(
            exc, (RateLimited, ServiceOverloaded, ServiceDraining)
        ), exc
    for video_id, result in completed:
        assert result.videos == local[video_id].videos
        assert result.scores == local[video_id].scores  # bitwise over TCP


class StubRouter:
    """A router whose queries block until released — admission tests
    control exactly how many workers are busy and how deep the queue is.
    """

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()
        self.served = 0
        self._lock = threading.Lock()

    def cached_answer(self, query, k):
        return None  # no memo: every admitted query is queued

    def knn(self, query, k, **kwargs):
        self.started.set()
        self.gate.wait(30.0)
        with self._lock:
            self.served += 1
        return (query, k)


def test_frontdoor_server_threads_gone_when_wait_closed_returns():
    """Regression: ``wait_closed`` used to return once the serve
    coroutine finished, while the thread running its event loop was
    still tearing down."""
    router = StubRouter()
    router.gate.set()
    door = FrontDoor(router, workers=1)
    try:
        for _ in range(30):
            server = FrontDoorServer(door)
            client = RemoteShardClient(*server.run_in_thread())
            assert "queue_depth" in client.request("status")["stats"]
            server.stop()
            assert server.wait_closed(5.0)
            client.close()
            alive = [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("frontdoor-server-")
            ]
            assert alive == []
    finally:
        door.drain()


class TestFrontDoorShedding:
    def test_overload_sheds_typed_and_queue_recovers(self):
        router = StubRouter()
        door = FrontDoor(router, max_queue=4, workers=1)
        try:
            # One query occupies the worker; four fill the queue.
            futures = [door.submit("q0", 1)]
            assert router.started.wait(10.0)  # worker holds q0, queue empty
            futures += [door.submit(f"q{i}", 1) for i in range(1, 5)]
            with pytest.raises(ServiceOverloaded, match="full"):
                door.submit("overflow", 1)
            stats = door.stats()
            assert stats["admitted"] == 5
            assert stats["shed_overload"] == 1
            router.gate.set()  # release the backlog
            for future in futures:
                assert future.result(30.0) is not None
            assert door.stats()["completed"] == 5
            # Capacity is back: admission succeeds again.
            assert door.submit("after", 1).result(30.0) is not None
        finally:
            router.gate.set()
            door.drain()

    def test_rate_limit_sheds_and_refills(self):
        clock = VirtualClock()
        router = StubRouter()
        router.gate.set()  # serve instantly; this test is about admission
        door = FrontDoor(
            router, max_queue=16, workers=1, rate=1.0, burst=2.0, clock=clock
        )
        try:
            door.submit("a", 1).result(30.0)
            door.submit("b", 1).result(30.0)
            with pytest.raises(RateLimited, match="1.0 queries/second"):
                door.submit("a", 1)
            assert door.stats()["shed_rate_limited"] == 1
            # Virtual time refills the bucket deterministically.
            clock.advance(1.0)
            door.submit("a", 1).result(30.0)
            with pytest.raises(RateLimited):
                door.submit("b", 1)
            assert door.stats()["shed_rate_limited"] == 2
        finally:
            door.drain()

    def test_rejects_nonpositive_rate_or_burst(self):
        router = StubRouter()
        with pytest.raises(ValueError, match="rate"):
            FrontDoor(router, rate=0.0, burst=8.0)
        with pytest.raises(ValueError, match="burst"):
            FrontDoor(router, rate=8.0, burst=0.0)

    def test_drain_sheds_then_stops_workers(self):
        router = StubRouter()
        router.gate.set()
        door = FrontDoor(router, max_queue=4, workers=2)
        door.submit("before", 1).result(30.0)
        door.drain()
        with pytest.raises(ServiceDraining, match="draining"):
            door.submit("after", 1)
        assert door.stats()["shed_draining"] == 1
        door.drain()  # idempotent

    def test_drain_fails_leftover_futures_instead_of_hanging(self):
        router = StubRouter()  # gate never set: worker blocks forever
        door = FrontDoor(router, max_queue=8, workers=1, drain_timeout=0.2)
        blocked = door.submit("blocked", 1)
        assert router.started.wait(10.0)  # the worker is wedged on it
        queued = door.submit("queued", 1)
        door.drain()
        router.gate.set()  # let the stuck worker finish after the fact
        assert blocked.result(30.0) is not None
        with pytest.raises(ServiceDraining, match="drained before"):
            queued.result(30.0)

    def test_drain_keeps_its_budget_when_the_queue_is_full(self):
        """Regression: with the queue full and the worker stuck, handing
        out the stop signal waited for the stuck query to return."""
        router = StubRouter()  # gate never set: worker blocks
        door = FrontDoor(router, max_queue=1, workers=1, drain_timeout=0.2)
        blocked = door.submit("blocked", 1)
        assert router.started.wait(10.0)
        queued = door.submit("queued", 1)  # the queue is now full
        drainer = threading.Thread(target=door.drain)
        drainer.start()
        try:
            drainer.join(5.0)
            assert not drainer.is_alive()
        finally:
            router.gate.set()
            drainer.join(30.0)
        with pytest.raises(ServiceDraining, match="drained before"):
            queued.result(30.0)
        assert blocked.result(30.0) is not None
        # The stuck worker exits once its query returns.
        for thread in door._threads:
            thread.join(10.0)
            assert not thread.is_alive()


class MemoStubRouter(StubRouter):
    """A :class:`StubRouter` whose memo answers the query ``"hot"``."""

    def __init__(self) -> None:
        super().__init__()
        self.probes = 0

    def cached_answer(self, query, k):
        self.probes += 1
        return ("memo", query, k) if query == "hot" else None


class TestAdmissionMemo:
    """A memo hit is answered at admission: after the three shedding
    checks, before the queue, on the submitting thread."""

    def test_hit_resolves_on_the_submitting_thread(self):
        router = MemoStubRouter()  # gate closed: a queued query would block
        door = FrontDoor(router, max_queue=4, workers=1)
        try:
            future = door.submit("hot", 3)
            assert future.done()
            assert future.result(0) == ("memo", "hot", 3)
            assert router.served == 0 and not router.started.is_set()
            stats = door.stats()
            assert (stats["admitted"], stats["completed"]) == (1, 1)
            assert stats["queue_depth"] == 0
        finally:
            router.gate.set()
            door.drain()

    def test_hit_is_shed_for_draining_rate_and_overload_in_order(self):
        clock = VirtualClock()
        router = MemoStubRouter()
        door = FrontDoor(
            router,
            max_queue=1,
            workers=1,
            rate=1.0,
            burst=2.0,
            clock=clock,
            drain_timeout=0.2,
        )
        try:
            blocked = door.submit("q0", 1)
            assert router.started.wait(10.0)
            queued = door.submit("q1", 1)  # queue full, bucket empty
            probes = router.probes
            with pytest.raises(RateLimited):
                door.submit("hot", 1)
            clock.advance(1.0)  # one token back; the queue is still full
            with pytest.raises(ServiceOverloaded):
                door.submit("hot", 1)
            clock.advance(1.0)
            door.drain()
            with pytest.raises(ServiceDraining):
                door.submit("hot", 1)
            assert router.probes == probes  # no shed query was probed
            stats = door.stats()
            assert stats["shed_rate_limited"] == 1
            assert stats["shed_overload"] == 1
            assert stats["shed_draining"] == 1
            assert (stats["admitted"], stats["completed"]) == (2, 0)
        finally:
            router.gate.set()
        assert blocked.result(30.0) == ("q0", 1)
        with pytest.raises(ServiceDraining):
            queued.result(30.0)

    def test_a_miss_still_queues(self):
        router = MemoStubRouter()
        router.gate.set()
        door = FrontDoor(router, max_queue=4, workers=1)
        try:
            assert door.submit("cold", 2).result(30.0) == ("cold", 2)
            assert router.probes == 1 and router.served == 1
        finally:
            door.drain()


@pytest.mark.parametrize("seed", [SEEDS[0]])
def test_fleet_with_replicas_serves_identical_rankings(seed):
    summaries, _ = build_corpus(seed)
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries, num_shards=2)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir) as db:
            local = [db.knn(query, K) for query in summaries]
        with NetworkFleet(
            fleet_dir,
            mode="thread",
            workers=2,
            replicas_per_shard=2,
            range_cache_size=64,
        ) as fleet:
            for query, want in zip(summaries, local):
                got = fleet.query_sync(query, K, timeout=60.0)
                assert got.videos == want.videos
                assert got.scores == want.scores  # bitwise via replicas
            status = fleet.status()
            assert status["shards"], "fleet status must cover the shards"
            for body in status["shards"].values():
                replication = body.get("replication")
                assert replication is not None, body
                assert len(replication["replicas"]) == 2
                assert all(
                    replica["state"] == "synced"
                    for replica in replication["replicas"]
                )


def test_fleet_replicas_require_thread_mode():
    summaries, _ = build_corpus(SEEDS[0])
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries, num_shards=2)
        with pytest.raises(ValueError, match="thread"):
            NetworkFleet(fleet_dir, mode="subprocess", replicas_per_shard=1)


class TestTokenBucket:
    def test_burst_then_steady_rate(self):
        clock = VirtualClock()
        bucket = TokenBucket(2.0, 3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]
        clock.advance(0.5)  # 2/s * 0.5s = 1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(10.0, 2.0, clock=clock)
        clock.advance(100.0)
        assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, -1.0)
