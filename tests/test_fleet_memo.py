"""The read-only router's answer memo: one way content can move per test.

A router built with ``from_shards`` answers a repeated query from its
memo, before the router lock and before any leg is sent.  It stores an
answer once every leg served it from its engine's result cache, so the
third time a query is asked is the first memo hit.  An entry is valid
only while every shard reports the content token the answer was
computed under.  Each test below moves a fleet's content one way (a
direct shard write, an online-rebuild cutover, a restarted server over
a changed directory) and asserts that the next
answer equals a *fresh scatter* — the first query of that content on a
second router over the same shards — bit for bit.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
import threading

import pytest

from repro.analysis.concurrency import build_model_from_paths
from repro.core.index import QueryStats
from repro.ingest.cutover import commit_cutover, side_build
from repro.serve.frontdoor import FrontDoor, FrontDoorServer, NetworkFleet
from repro.serve.shard_server import ShardServer
from repro.serve.transport import RemoteShard, RemoteShardClient
from repro.shard.faults import FaultInjectingShard, ShardFault, ShardFaultInjector
from repro.shard import router as router_module
from repro.shard.resilience import FaultPolicy, RetryPolicy, ScatterError
from repro.shard.router import ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.utils.clock import VirtualClock
from tests.test_golden_rankings import SEEDS, build_corpus
from tests.test_replication import EPSILON, make_primary, make_summaries
from tests.test_serve_network import build_fleet_dir

K = 4
# One attempt per shard, and a failed shard degrades the answer.
DEGRADABLE = {
    "fault_policy": FaultPolicy(retry=RetryPolicy(max_attempts=1)),
    "fail_fast": False,
}


@pytest.fixture(scope="module")
def summaries():
    return make_summaries()


def built_shards(summaries, count: int = 2, **kwargs) -> list[Shard]:
    """In-memory shards holding ``summaries`` by id parity, built."""
    shards = [
        Shard(position, epsilon=EPSILON, **kwargs) for position in range(count)
    ]
    for summary in summaries:
        shards[summary.video_id % count].add_summary(summary)
    for shard in shards:
        shard.database.build()
    return shards


@contextlib.contextmanager
def routers(shards, **kwargs):
    """The router under test and a second one for fresh scatters."""
    memo = ShardedVideoDatabase.from_shards(list(shards), epsilon=EPSILON, **kwargs)
    fresh = ShardedVideoDatabase.from_shards(list(shards), epsilon=EPSILON, **kwargs)
    try:
        yield memo, fresh
    finally:
        memo.close()
        fresh.close()  # closing a shard twice is a no-op


def assert_same(got, want) -> None:
    assert got.videos == want.videos
    assert got.scores == want.scores
    assert got.coverage == want.coverage


def assert_hit(result) -> None:
    assert result.scatter.shards_queried == ()
    assert result.scatter.shards_pruned == ()
    zero = QueryStats(0, 0, 0, 0, 0, 0, result.stats.wall_time)
    assert result.stats == zero


def assert_miss(result) -> None:
    assert result.scatter.shards_queried != ()


def scatter(fresh, query, **kwargs):
    """A fresh scatter: ``fresh`` has not seen this query over this
    content, so it sends every leg."""
    result = fresh.knn(query, K, **kwargs)
    assert_miss(result)
    return result


def check_repeat(memo, fresh, query, **kwargs):
    """Ask three times: the shards compute the first answer, their
    engine caches serve the second (which the memo stores), the memo
    the third.  All equal a fresh scatter.  Returns the first answer."""
    first, second, third = (memo.knn(query, K, **kwargs) for _ in range(3))
    assert_miss(first)
    assert first.stats.similarity_computations > 0
    assert_miss(second)
    assert second.stats.similarity_computations == 0
    assert_hit(third)
    assert_same(second, first)
    assert_same(third, first)
    assert_same(third, scatter(fresh, query, **kwargs))
    return first


class TestMemo:
    def test_repeat_is_a_hit_bit_for_bit(self, summaries):
        with routers(built_shards(summaries)) as (memo, fresh):
            for query in summaries[:4]:
                check_repeat(memo, fresh, query)

    def test_key_is_the_query_and_a_wider_k_misses(self, summaries):
        with routers(built_shards(summaries)) as (memo, fresh):
            query = summaries[0]
            check_repeat(memo, fresh, query)
            assert_miss(memo.knn(query, K + 1))
            assert_miss(memo.knn(summaries[1], K))

    def test_lru_keeps_memo_size_answers(self, monkeypatch, summaries):
        monkeypatch.setattr(router_module, "MEMO_SIZE", 2)
        shards = built_shards(summaries)
        with contextlib.closing(
            ShardedVideoDatabase.from_shards(shards, epsilon=EPSILON)
        ) as memo:
            first, second, third = summaries[:3]
            for query in (first, first, second, second):
                memo.knn(query, K)
            assert_hit(memo.knn(first, K))  # first is now most recent
            memo.knn(third, K)
            memo.knn(third, K)  # stored: evicts second
            assert_hit(memo.knn(first, K))
            assert_hit(memo.knn(third, K))
            assert_miss(memo.knn(second, K))

    def test_nothing_is_stored_without_engine_result_caches(self, summaries):
        with routers(built_shards(summaries, cache_size=0)) as (memo, _):
            for _ in range(3):
                assert_miss(memo.knn(summaries[0], K))

    def test_writable_routers_do_not_memoise(self, summaries):
        with ShardedVideoDatabase(EPSILON, num_shards=2) as writable:
            for summary in summaries:
                writable.add_summary(summary)
            for _ in range(3):
                assert_miss(writable.knn(summaries[0], K))

    def test_a_hit_still_checks_its_arguments(self, summaries):
        with routers(built_shards(summaries)) as (memo, fresh):
            check_repeat(memo, fresh, summaries[0])
            with pytest.raises(ValueError, match="k"):
                memo.knn(summaries[0], 0)
            with pytest.raises(TypeError, match="VideoSummary"):
                memo.knn("not a summary", K)

    def test_unknown_token_is_never_stored(self, monkeypatch, summaries):
        """A shard that reports ``None`` (an unbuilt one, or a remote
        whose server gave no status) keeps every answer out of the memo,
        even answers its engine cache served."""
        shards = [Shard(position, epsilon=EPSILON) for position in range(2)]
        for summary in summaries:
            shards[summary.video_id % 2].add_summary(summary)
        assert shards[0].content_token() is None
        with routers(shards) as (memo, _):
            query = summaries[0]
            assert_miss(memo.knn(query, K))  # builds both shards
            monkeypatch.setattr(shards[0], "content_token", lambda: None)
            for _ in range(3):
                cached = memo.knn(query, K)
                assert_miss(cached)
                assert cached.stats.similarity_computations == 0
            monkeypatch.undo()
            assert_miss(memo.knn(query, K))  # stored under real tokens
            assert_hit(memo.knn(query, K))

    def test_closed_router_raises_instead_of_hitting(self, summaries):
        memo = ShardedVideoDatabase.from_shards(
            built_shards(summaries), epsilon=EPSILON
        )
        memo.knn(summaries[0], K)
        memo.knn(summaries[0], K)
        assert_hit(memo.knn(summaries[0], K))
        memo.close()
        with pytest.raises(RuntimeError, match="closed"):
            memo.knn(summaries[0], K)

    def test_concurrent_hits_and_misses_match_a_fresh_scatter(
        self, monkeypatch, summaries
    ):
        """Eight clients, six queries, a memo of three: hits, misses,
        stores and evictions interleave, and every answer is exact."""
        monkeypatch.setattr(router_module, "MEMO_SIZE", 3)
        shards = built_shards(summaries)
        queries = summaries[:6]
        with routers(shards) as (memo, fresh):
            want = {query.video_id: scatter(fresh, query) for query in queries}
            errors: list[BaseException] = []
            hits = []

            def client(offset: int) -> None:
                try:
                    for round_ in range(12):
                        query = queries[(offset + round_ // 2) % len(queries)]
                        got = memo.knn(query, K)
                        assert_same(got, want[query.video_id])
                        hits.append(got.scatter.shards_queried == ())
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(offset,), name=f"client-{offset}")
                for offset in range(8)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(hits) == 8 * 12
            assert any(hits)


def uncached(summaries, count: int = 2) -> ShardedVideoDatabase:
    """A router over shards that keep no result cache, so its memo
    stays empty and every answer is computed afresh."""
    return ShardedVideoDatabase.from_shards(
        built_shards(summaries, count, cache_size=0), epsilon=EPSILON
    )


def assert_bits(got, want) -> None:
    """Same videos, same score bits, same coverage."""
    assert got.videos == want.videos
    assert [score.hex() for score in got.scores] == [
        score.hex() for score in want.scores
    ]
    assert got.coverage == want.coverage


class TestMemoAcrossK:
    """One entry per query: a smaller ``k`` is a prefix hit,
    a larger one widens the entry."""

    def test_a_smaller_k_is_a_prefix_hit(self, summaries):
        with routers(built_shards(summaries)) as (memo, fresh), contextlib.closing(
            uncached(summaries)
        ) as oracle:
            query = summaries[0]
            stored = check_repeat(memo, fresh, query)  # stored at K
            for k in range(1, K + 1):
                got = memo.knn(query, k)
                assert_hit(got)
                assert got.videos == stored.videos[:k]
                assert_bits(got, oracle.knn(query, k))

    def test_a_larger_k_misses_and_widens_the_entry(self, summaries):
        with routers(built_shards(summaries)) as (memo, _), contextlib.closing(
            uncached(summaries)
        ) as oracle:
            query = summaries[0]
            memo.knn(query, K)
            memo.knn(query, K)  # stored at K
            wide = 2 * K
            widened = memo.knn(query, wide)
            assert_miss(widened)
            # Every engine serves the wider k from the ranking it cached.
            assert widened.stats.similarity_computations == 0
            assert_bits(widened, oracle.knn(query, wide))
            for k in (wide, K, 1):
                got = memo.knn(query, k)
                assert_hit(got)
                assert_bits(got, oracle.knn(query, k))

    def test_a_narrower_answer_keeps_the_wider_entry(self, summaries):
        """Two clients race: the wider answer is stored first, the
        narrower one computed under the same tokens must not replace
        it."""
        with routers(built_shards(summaries)) as (memo, _):
            query = summaries[0]
            for _ in range(2):
                narrow = memo.knn(query, K)
            memo.knn(query, 2 * K)
            wide = memo.knn(query, 2 * K)
            assert_hit(wide)
            key = (router_module.query_fingerprint(query), "composed")
            tokens = tuple(shard.content_token() for shard in memo.shards)
            memo._memo_store(key, tokens, K, narrow)
            again = memo.knn(query, 2 * K)
            assert_hit(again)
            assert again.videos == wide.videos

    @pytest.mark.parametrize("k", range(1, K + 1))
    def test_a_moved_token_misses_at_every_k(self, summaries, k):
        base, newcomer = summaries[:-1], summaries[-1]
        shards = built_shards(base)
        with routers(shards) as (memo, fresh), contextlib.closing(
            uncached(summaries)
        ) as oracle:
            check_repeat(memo, fresh, newcomer)  # stored at K
            shards[0].add_summary(newcomer)
            moved = memo.knn(newcomer, k)
            assert_miss(moved)
            assert_bits(moved, oracle.knn(newcomer, k))
            assert moved.videos[0] == newcomer.video_id


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_corpora_over_tcp_equal_an_uncached_fleet(seed):
    """k alternating 10/5, as the served benchmark asks it: every
    answer, memo hits and prefix hits included, equals an uncached
    fleet's bit for bit."""
    golden, _ = build_corpus(seed)
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, golden)
        with ShardedVideoDatabase(EPSILON, path=fleet_dir, cache_size=0) as db:
            want = {
                (query.video_id, k): db.knn(query, k)
                for query in golden
                for k in (10, 5)
            }
        hits = 0
        with NetworkFleet(fleet_dir, mode="thread") as fleet:
            for round_ in range(4):
                for position, query in enumerate(golden):
                    k = 10 if (round_ + position) % 2 == 0 else 5
                    got = fleet.query_sync(query, k, timeout=60.0)
                    assert_bits(got, want[query.video_id, k])
                    hits += got.scatter.shards_queried == ()
        assert hits > 0


class TestContentMoves:
    """After each way content can move, the next answer is a fresh one."""

    def test_direct_writes_to_an_in_process_shard(self, summaries):
        base, newcomer = summaries[:-1], summaries[-1]
        shards = built_shards(base)
        with routers(shards) as (memo, fresh):
            check_repeat(memo, fresh, newcomer)

            shards[0].add_summary(newcomer)
            added = memo.knn(newcomer, K)
            assert_miss(added)
            assert_same(added, scatter(fresh, newcomer))
            assert added.videos[0] == newcomer.video_id

            check_repeat(memo, fresh, summaries[0])
            shards[0].remove(newcomer.video_id)
            removed = memo.knn(newcomer, K)
            assert_miss(removed)
            assert_same(removed, scatter(fresh, newcomer))
            assert newcomer.video_id not in removed.videos

    def test_online_rebuild_cutover(self, tmp_path, summaries):
        shard = make_primary(tmp_path / "shard", summaries)
        with routers([shard]) as (memo, fresh):
            query = summaries[0]
            check_repeat(memo, fresh, query)
            before = shard.content_token()
            commit_cutover(shard, side_build(shard.database, reference="data_center"))
            assert shard.content_token() != before
            after = memo.knn(query, K)
            assert_miss(after)
            assert_same(after, scatter(fresh, query))

    def test_restart_over_a_directory_changed_while_down(
        self, monkeypatch, summaries
    ):
        base, newcomer = summaries[:-1], summaries[-1]
        with tempfile.TemporaryDirectory() as tmp:
            fleet_dir = build_fleet_dir(tmp, base, num_shards=2)
            with NetworkFleet(fleet_dir, mode="thread") as fleet:
                memo = fleet.router
                fresh = ShardedVideoDatabase.from_shards(
                    list(memo.shards), epsilon=EPSILON
                )
                check_repeat(memo, fresh, newcomer, fail_fast=False)
                start = fleet._start_server

                def start_after_a_write(position, directory):
                    # The server is down: write its directory meanwhile.
                    offline = Shard(position, epsilon=EPSILON, path=directory)
                    offline.add_summary(newcomer)
                    offline.close()
                    return start(position, directory)

                monkeypatch.setattr(fleet, "_start_server", start_after_a_write)
                fleet.restart_shard(0)
                after = memo.knn(newcomer, K, fail_fast=False)
                assert_miss(after)
                assert_same(after, scatter(fresh, newcomer, fail_fast=False))
                assert after.videos[0] == newcomer.video_id
            fresh.close()

    def test_degraded_answer_is_not_stored(self, summaries):
        clock = VirtualClock()
        shards = built_shards(summaries)
        faulty = FaultInjectingShard(
            shards[1],
            ShardFaultInjector({1: [ShardFault("down", first_op=1, last_op=1)]}),
            clock=clock,
        )
        query = summaries[0]
        with routers([shards[0], faulty], clock=clock) as (memo, fresh):
            degraded = memo.knn(query, K, **DEGRADABLE)
            assert not degraded.coverage.complete
            healed = memo.knn(query, K, **DEGRADABLE)
            assert_miss(healed)
            assert healed.coverage.complete
            assert_same(healed, scatter(fresh, query, **DEGRADABLE))
            # Both engine caches hold it now: stored, then a hit.
            assert_miss(memo.knn(query, K, **DEGRADABLE))
            assert_hit(memo.knn(query, K, **DEGRADABLE))

    def test_a_hit_answers_while_a_shard_is_down(self, summaries):
        """A hit sends no leg, so a down shard does not fail it: the
        stored answer comes back complete even from a strict query,
        while a miss over the same down shard raises."""
        clock = VirtualClock()
        shards = built_shards(summaries)
        # Down from its third operation on: after the two that fill
        # the memo with ``query``.
        faulty = FaultInjectingShard(
            shards[1],
            ShardFaultInjector({1: [ShardFault("down", first_op=3)]}),
            clock=clock,
        )
        query, other = summaries[:2]
        with routers([shards[0], faulty], clock=clock) as (memo, _):
            first = memo.knn(query, K)
            memo.knn(query, K)
            with pytest.raises(ScatterError):
                memo.knn(other, K)
            down = memo.knn(query, K)
            assert_hit(down)
            assert down.coverage.complete
            assert_same(down, first)


def test_hit_over_tcp_costs_no_shard_request(summaries):
    """A repeat through the TCP front door is answered by the fleet memo:
    equal scores, all-zero stats, no shard queried, no shard served."""
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = build_fleet_dir(tmp, summaries, num_shards=3)
        with NetworkFleet(fleet_dir, mode="thread", replicas_per_shard=1) as fleet:
            server = FrontDoorServer(fleet.frontdoor)
            client = RemoteShardClient(*server.run_in_thread())

            def served() -> dict:
                return {
                    shard_id: body["queries_served"]
                    for shard_id, body in fleet.status()["shards"].items()
                }

            try:
                first = client.request("knn", {"k": K}, summary=summaries[0])
                assert first["scatter"]["shards_queried"]
                cached = client.request("knn", {"k": K}, summary=summaries[0])
                assert cached["scatter"]["shards_queried"]
                before = served()
                again = client.request("knn", {"k": K}, summary=summaries[0])
                assert again["videos"] == first["videos"]
                assert again["scores"] == first["scores"]
                assert again["coverage"] == first["coverage"]
                assert all(
                    value == 0
                    for name, value in again["stats"].items()
                    if name != "wall_time"
                )
                assert again["scatter"]["shards_queried"] == []
                assert served() == before
            finally:
                client.close()
                server.stop()
                assert server.wait_closed(10.0)


def routed(monkeypatch, router) -> list:
    """Record each query the front door's workers hand ``router.knn``."""
    calls = []
    knn = router.knn

    def spy(query, k, **kwargs):
        calls.append(query)
        return knn(query, k, **kwargs)

    monkeypatch.setattr(router, "knn", spy)
    return calls


def test_front_door_answers_a_memo_hit_at_admission(monkeypatch, summaries):
    """The third ask of a query is a memo hit: its future is resolved
    inside ``submit``, no worker runs it, and it counts as admitted and
    completed."""
    with routers(built_shards(summaries)) as (memo, fresh):
        calls = routed(monkeypatch, memo)
        with FrontDoor(memo, workers=1) as door:
            first = door.submit(summaries[0], K).result(30.0)
            second = door.submit(summaries[0], K).result(30.0)
            future = door.submit(summaries[0], K)
            assert future.done()
            third = future.result(0)
            stats = door.stats()
        assert calls == [summaries[0], summaries[0]]
        assert (stats["admitted"], stats["completed"]) == (3, 3)
        assert_miss(first)
        assert_hit(third)
        assert_same(second, first)
        assert_same(third, scatter(fresh, summaries[0]))


def test_front_door_over_a_writable_router_queues_every_query(
    monkeypatch, summaries
):
    """A writable router keeps no memo: the admission probe answers
    ``None`` and every query runs on a worker, as before."""
    fleet = ShardedVideoDatabase(EPSILON, num_shards=2)
    for summary in summaries:
        fleet.add_summary(summary)
    try:
        want = fleet.knn(summaries[0], K)
        calls = routed(monkeypatch, fleet)
        with FrontDoor(fleet, workers=1) as door:
            answers = [door.submit(summaries[0], K).result(30.0) for _ in range(3)]
            stats = door.stats()
        assert fleet.cached_answer(summaries[0], K) is None
        assert calls == [summaries[0]] * 3
        assert (stats["admitted"], stats["completed"]) == (3, 3)
        for answer in answers:
            assert_same(answer, want)
    finally:
        fleet.close()


def test_memo_lock_is_a_leaf_of_the_static_lock_graph():
    edges = build_model_from_paths(["src/repro"]).edge_set()
    memo = "ShardedVideoDatabase._memo_lock"
    touching = {edge for edge in edges if memo in edge}
    assert touching == {("ShardedVideoDatabase._lock", memo)}


def test_a_reply_that_lands_after_a_reconnect_keeps_the_new_token(
    monkeypatch, summaries
):
    """A ``knn`` reply from the old server that arrives after
    ``reconnect`` must not overwrite the token the new server reported."""
    (shard,) = built_shards(summaries, count=1)
    server = ShardServer(shard)
    remote = RemoteShard(0, *server.run_in_thread())
    new_token = remote.content_token()
    request = RemoteShardClient.request

    def late_reply(client, op, params=None, summary=None):
        body = request(client, op, params, summary)
        if op == "knn":
            remote.reconnect()  # the restart lands while this reply is in flight
            body = dict(body, content_token="old-server")
        return body

    try:
        monkeypatch.setattr(RemoteShardClient, "request", late_reply)
        remote.knn(summaries[0], K)
        monkeypatch.undo()
        assert new_token is not None
        assert remote.content_token() == new_token
    finally:
        remote.close()
        server.stop()
        assert server.wait_closed(10.0)
