"""Tests for the fault-tolerant scatter path (repro.shard.resilience).

Three load-bearing properties:

* **Determinism** — same seed means identical backoff schedules,
  rankings and health counters across independent runs; all
  time comes from a :class:`VirtualClock`, all jitter from a seeded hash.
* **Degraded exactness** — with a shard hard-down, ``fail_fast=False``
  returns exactly the surviving-shards oracle ranking and the coverage
  report proves what is missing; strict mode still raises.
* **Cost discipline** — transient faults recover the fault-free rankings
  *and* cost counters bit-for-bit, which only holds if no retry's
  :class:`CostCounters` bundle is ever double-counted.
"""

import numpy as np
import pytest

from repro.core.index import VitriIndex
from repro.shard import (
    BreakerPolicy,
    CircuitBreaker,
    Coverage,
    FaultInjectingShard,
    FaultPolicy,
    FleetHealth,
    KeyRangePartitioner,
    RetryPolicy,
    ScatterError,
    ShardDown,
    ShardFault,
    ShardFaultInjector,
    ShardedVideoDatabase,
)
from repro.utils.clock import VirtualClock
from tests.threshold_recipe import at_least

EPSILON = 0.3
NUM_SHARDS = 4


def make_fleet(summaries, num_shards=NUM_SHARDS, **kwargs):
    """A key-range fleet on a virtual clock with the result cache off.

    The cache must stay off: a cached repeat costs nothing, which would
    let a double-counting bug hide behind a hit.
    """
    kwargs.setdefault("clock", VirtualClock())
    kwargs.setdefault("cache_size", 0)
    fleet = ShardedVideoDatabase(
        EPSILON,
        partitioner=KeyRangePartitioner.fit(list(summaries), num_shards),
        **kwargs,
    )
    for summary in summaries:
        fleet.add_summary(summary)
    return fleet


def cost_signature(stats):
    """The deterministic cost fields of a query (wall time excluded)."""
    return (
        stats.page_requests,
        stats.physical_reads,
        stats.node_visits,
        stats.similarity_computations,
        stats.candidates,
        stats.ranges,
    )


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_same_seed_identical_schedules(self):
        first = RetryPolicy(max_attempts=5, seed=42)
        second = RetryPolicy(max_attempts=5, seed=42)
        for shard_id in range(6):
            assert first.schedule(shard_id) == second.schedule(shard_id)

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=5, seed=1).schedule(0)
        b = RetryPolicy(max_attempts=5, seed=2).schedule(0)
        assert a != b

    def test_shards_get_decorrelated_jitter(self):
        policy = RetryPolicy(max_attempts=5, seed=0)
        assert policy.schedule(0) != policy.schedule(1)

    def test_backoff_bounded_by_jitter_band(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_backoff=0.01,
            multiplier=2.0,
            max_backoff=0.05,
            jitter=0.5,
            seed=3,
        )
        for shard_id in range(4):
            for retry_index in range(1, policy.max_attempts):
                nominal = min(
                    policy.base_backoff
                    * policy.multiplier ** (retry_index - 1),
                    policy.max_backoff,
                )
                got = policy.backoff(shard_id, retry_index)
                assert nominal * 0.5 <= got <= nominal * 1.5

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            max_attempts=4, base_backoff=0.01, multiplier=2.0, jitter=0.0
        )
        assert policy.schedule(7) == pytest.approx((0.01, 0.02, 0.04))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_backoff": 0.0},
            {"multiplier": -1.0},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Hedging (removed: the backup attempt ran after the answer had arrived)
# ---------------------------------------------------------------------------
class TestHedgePolicy:
    def test_validation(self):
        """The option is gone, and health files written while it existed
        (extra ``hedges_fired`` / ``hedge_wins`` keys) still load."""
        with pytest.raises(TypeError):
            FaultPolicy(hedge=object())
        health = FleetHealth(VirtualClock())
        health.restore(
            {3: {"successes": 7, "hedges_fired": 2, "hedge_wins": 1}},
            BreakerPolicy(),
        )
        assert health.snapshot()[3]["successes"] == 7
        assert "hedges_fired" not in health.snapshot()[3]


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    POLICY = BreakerPolicy(
        failure_rate=0.5, window=4, min_volume=2, cooldown=1.0, probe_budget=1
    )

    def fail_until_open(self, breaker, now=0.0):
        for _ in range(self.POLICY.window):
            breaker.record(False, now)
        assert breaker.state == CircuitBreaker.OPEN

    def test_opens_on_failure_rate(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record(True, 0.0)
        breaker.record(False, 0.0)  # 1/2 failures >= 0.5, volume met
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(0.5)

    def test_stays_closed_below_min_volume(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.record(False, 0.0)  # volume 1 < min_volume 2
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(0.0)

    def test_cooldown_then_half_open_probe_budget(self):
        breaker = CircuitBreaker(self.POLICY)
        self.fail_until_open(breaker)
        assert not breaker.allow(0.99)
        assert breaker.allow(1.0)  # cooldown elapsed -> probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(1.0)  # probe budget exhausted

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(self.POLICY)
        self.fail_until_open(breaker)
        assert breaker.allow(1.0)
        breaker.record(True, 1.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(1.0)

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(self.POLICY)
        self.fail_until_open(breaker)
        assert breaker.allow(1.0)
        breaker.record(False, 1.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow(1.5)  # cooldown restarted at 1.0

    def test_force_open(self):
        breaker = CircuitBreaker(self.POLICY)
        breaker.force_open(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(min_volume=9, window=8)
        with pytest.raises(ValueError):
            BreakerPolicy(failure_rate=0.0)
        with pytest.raises(TypeError):
            CircuitBreaker("not a policy")


# ---------------------------------------------------------------------------
# ScatterError aggregation (satellite: no worker error is discarded)
# ---------------------------------------------------------------------------
class TestScatterError:
    def test_aggregates_every_failure_with_attribution(self):
        failures = {
            3: ValueError("bad shard 3"),
            1: RuntimeError("shard 1 exploded"),
        }
        error = ScatterError(failures)
        text = str(error)
        lines = text.splitlines()
        # Headline is the first (lowest shard id) error's message.
        assert lines[0] == "shard 1 exploded"
        assert "shard 1: RuntimeError: shard 1 exploded" in text
        assert "shard 3: ValueError: bad shard 3" in text
        assert error.failures == failures
        assert error.__cause__ is failures[1]

    def test_requires_at_least_one_failure(self):
        with pytest.raises(ValueError):
            ScatterError({})

    def test_strict_scatter_reports_all_failing_shards(
        self, small_summaries
    ):
        """Legacy strict path (no policy): every worker error surfaces."""
        fleet = make_fleet(small_summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {
                    0: [ShardFault.hard_down()],
                    2: [ShardFault.hard_down()],
                }
            )
        )
        with pytest.raises(ScatterError) as excinfo:
            fleet.knn(small_summaries[0], 5)
        assert sorted(excinfo.value.failures) == [0, 2]
        for exc in excinfo.value.failures.values():
            assert isinstance(exc, ShardDown)


# ---------------------------------------------------------------------------
# Fault injection plumbing
# ---------------------------------------------------------------------------
class TestShardFaultInjector:
    def test_counts_serving_ops_only(self, small_summaries):
        fleet = make_fleet(small_summaries)
        injector = ShardFaultInjector({})
        fleet.inject_shard_faults(injector)
        fleet.knn(small_summaries[0], 3)
        for shard_id in range(fleet.num_shards):
            assert injector.operations(shard_id) == 1
        # Routing metadata (len, membership) is never an operation.
        assert len(fleet) == len(small_summaries)
        assert injector.operations(0) == 1

    def test_every_attempt_is_an_operation(self, small_summaries):
        fleet = make_fleet(small_summaries)
        injector = ShardFaultInjector(
            {1: [ShardFault.transient(errors=2)]}
        )
        fleet.inject_shard_faults(injector)
        fleet.knn(
            small_summaries[0],
            3,
            fault_policy=FaultPolicy(retry=RetryPolicy(max_attempts=4)),
        )
        assert injector.operations(1) == 3  # two failures + the success
        assert injector.operations(0) == 1

    def test_rejects_nesting(self, small_summaries):
        fleet = make_fleet(small_summaries[:4])
        wrapped = FaultInjectingShard(
            fleet.shards[0], ShardFaultInjector({})
        )
        with pytest.raises(TypeError):
            FaultInjectingShard(wrapped, ShardFaultInjector({}))

    def test_fault_window_validation(self):
        with pytest.raises(ValueError):
            ShardFault("slow")  # slow needs a positive delay
        with pytest.raises(ValueError):
            ShardFault("error", first_op=3, last_op=2)
        with pytest.raises(ValueError):
            ShardFault("nonsense")


# ---------------------------------------------------------------------------
# Degraded-results protocol
# ---------------------------------------------------------------------------
DOWN_SHARD = 1


def survivors_oracle(fleet, summaries, down_shard):
    surviving = [
        s for s in summaries if fleet.shard_of(s.video_id) != down_shard
    ]
    assert surviving and len(surviving) < len(summaries)
    return VitriIndex.build(surviving, EPSILON, reference="optimal")


class TestDegradedResults:
    def test_hard_down_matches_survivor_oracle(self, small_summaries):
        fleet = make_fleet(small_summaries)
        oracle = survivors_oracle(fleet, small_summaries, DOWN_SHARD)
        fleet.inject_shard_faults(
            ShardFaultInjector({DOWN_SHARD: [ShardFault.hard_down()]})
        )
        for query in small_summaries[:6]:
            got = fleet.knn(
                query,
                5,
                fault_policy=FaultPolicy(),
                fail_fast=False,
            )
            expected = oracle.knn(query, 5)
            assert got.videos == expected.videos
            assert np.allclose(got.scores, expected.scores)
            assert not got.coverage.complete
            # Early queries report the shard failed; once the breaker
            # opens mid-stream it reports tripped — missing either way.
            assert got.coverage.shards_missing == (DOWN_SHARD,)
            assert DOWN_SHARD not in got.coverage.shards_answered

    def test_strict_mode_still_raises(self, small_summaries):
        fleet = make_fleet(small_summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector({DOWN_SHARD: [ShardFault.hard_down()]})
        )
        with pytest.raises(ScatterError) as excinfo:
            fleet.knn(
                small_summaries[0],
                5,
                fault_policy=FaultPolicy(),
                fail_fast=True,
            )
        assert list(excinfo.value.failures) == [DOWN_SHARD]

    def test_non_retryable_error_raises_even_degraded(
        self, small_summaries, monkeypatch
    ):
        """Retrying a bug is not resilience: a programming error inside
        a shard aborts the query even with ``fail_fast=False``."""
        fleet = make_fleet(small_summaries)

        def boom(*args, **kwargs):
            raise ValueError("programming error, not a fault")

        monkeypatch.setattr(fleet.shards[DOWN_SHARD], "knn", boom)
        with pytest.raises(ScatterError) as excinfo:
            fleet.knn(
                small_summaries[0],
                5,
                fault_policy=FaultPolicy(),
                fail_fast=False,
            )
        assert list(excinfo.value.failures) == [DOWN_SHARD]
        assert isinstance(
            excinfo.value.failures[DOWN_SHARD], ValueError
        )

    def test_similarity_range_degrades_too(self, small_summaries):
        fleet = make_fleet(small_summaries)
        oracle = survivors_oracle(fleet, small_summaries, DOWN_SHARD)
        fleet.inject_shard_faults(
            ShardFaultInjector({DOWN_SHARD: [ShardFault.hard_down()]})
        )
        query = small_summaries[0]
        # The threshold recipe: every video, cut at the threshold.
        got = fleet.knn(
            query,
            len(fleet),
            fault_policy=FaultPolicy(),
            fail_fast=False,
        )
        expected = oracle.knn(query, oracle.num_videos)
        assert at_least(got, 0.2)[0] == at_least(expected, 0.2)[0]
        assert not got.coverage.complete

    def test_fault_free_coverage_is_complete(self, small_summaries):
        fleet = make_fleet(small_summaries)
        got = fleet.knn(
            small_summaries[0], 5, fault_policy=FaultPolicy()
        )
        assert got.coverage.complete
        assert got.coverage.fraction_answered == 1.0
        assert len(got.coverage.shards_answered) == NUM_SHARDS

    def test_pruned_shards_never_threaten_completeness(
        self, small_summaries
    ):
        fleet = make_fleet(small_summaries)
        for query in small_summaries[:6]:
            got = fleet.knn(query, 5, fault_policy=FaultPolicy())
            assert got.coverage.complete
            assert set(got.coverage.shards_pruned).isdisjoint(
                got.coverage.shards_answered
            )

    def test_failed_bounds_check_degrades_instead_of_aborting(
        self, small_summaries, monkeypatch
    ):
        """Regression: the key-bounds check ran in a pre-pass outside the
        attempt loop, so a shard whose check raised aborted a degraded
        query.  It now runs inside the shard's sub-query, which retries
        it per policy and then reports the shard failed."""
        fleet = ShardedVideoDatabase(
            EPSILON,
            partitioner="hash",
            num_shards=3,
            clock=VirtualClock(),
            cache_size=0,
        )
        for summary in small_summaries:
            fleet.add_summary(summary)
        oracle = survivors_oracle(fleet, small_summaries, DOWN_SHARD)

        def unreachable(*args, **kwargs):
            raise ConnectionError("bounds check lost its connection")

        monkeypatch.setattr(fleet.shards[DOWN_SHARD], "may_contain", unreachable)
        query = small_summaries[0]
        got = fleet.knn(query, 5, fault_policy=FaultPolicy(), fail_fast=False)
        assert got.videos == oracle.knn(query, 5).videos
        assert got.coverage.shards_failed == (DOWN_SHARD,)
        assert not got.coverage.complete
        health = fleet.fleet_health()[DOWN_SHARD]
        assert health["failures"] == FaultPolicy().retry.max_attempts


class TestCoverage:
    def test_complete_iff_nothing_missing(self):
        good = Coverage(4, (0, 1, 2), (3,))
        assert good.complete
        assert good.shards_missing == ()
        bad = Coverage(4, (0, 2), (), shards_failed=(1,),
                       shards_timed_out=(3,))
        assert not bad.complete
        assert bad.shards_missing == (1, 3)
        assert bad.fraction_answered == pytest.approx(0.5)

    def test_to_dict_round_trips_flags(self):
        coverage = Coverage(4, (0,), (2,), shards_tripped=(1, 3))
        payload = coverage.to_dict()
        assert payload["complete"] is False
        assert payload["shards_tripped"] == [1, 3]


# ---------------------------------------------------------------------------
# Transient recovery: exact rankings, zero double-counted cost
# ---------------------------------------------------------------------------
class TestTransientRecovery:
    def test_retries_recover_reference_exactly(self, small_summaries):
        reference = make_fleet(small_summaries)
        expected = [
            reference.knn(query, 5)
            for query in small_summaries[:6]
        ]

        fleet = make_fleet(small_summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {DOWN_SHARD: [ShardFault.transient(errors=2)]}
            )
        )
        policy = FaultPolicy(retry=RetryPolicy(max_attempts=4))
        for query, want in zip(small_summaries[:6], expected):
            got = fleet.knn(
                query, 5, fault_policy=policy, fail_fast=False
            )
            assert got.videos == want.videos
            assert np.allclose(got.scores, want.scores)
            # Bit-identical cost: a double-counted retry bundle would
            # inflate the faulted query's counters above the reference.
            assert cost_signature(got.stats) == cost_signature(want.stats)
            assert got.coverage.complete

        health = fleet.fleet_health()
        assert health[DOWN_SHARD]["retries"] == 2
        assert health[DOWN_SHARD]["failures"] == 2
        assert health[DOWN_SHARD]["breaker_state"] == "closed"

    def test_exhausted_retries_fail_the_shard(self, small_summaries):
        fleet = make_fleet(small_summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {DOWN_SHARD: [ShardFault.transient(errors=5)]}
            )
        )
        got = fleet.knn(
            small_summaries[0],
            5,
            fault_policy=FaultPolicy(retry=RetryPolicy(max_attempts=2)),
            fail_fast=False,
        )
        assert got.coverage.shards_failed == (DOWN_SHARD,)


# ---------------------------------------------------------------------------
# Breaker integration: a crashing shard trips, then probes heal it
# ---------------------------------------------------------------------------
class TestBreakerIntegration:
    POLICY = FaultPolicy(
        retry=RetryPolicy(max_attempts=2),
        breaker=BreakerPolicy(
            failure_rate=0.5,
            window=4,
            min_volume=2,
            cooldown=50.0,
            probe_budget=1,
        ),
    )

    def test_mid_stream_crash_opens_the_breaker(self, small_summaries):
        """Crash-point sweep: the shard dies mid-query-stream; the first
        failing query burns its retries, after which the breaker is open
        and later queries trip instead of re-attempting."""
        for crash_op in (1, 2, 3):
            fleet = make_fleet(small_summaries)
            fleet.inject_shard_faults(
                ShardFaultInjector(
                    {DOWN_SHARD: [ShardFault.hard_down(first_op=crash_op)]}
                )
            )
            tripped_seen = False
            for position, query in enumerate(small_summaries[:6]):
                got = fleet.knn(
                    query,
                    5,
                    fault_policy=self.POLICY,
                    fail_fast=False,
                )
                if tripped_seen:
                    assert got.coverage.shards_tripped == (DOWN_SHARD,)
                elif got.coverage.shards_tripped:
                    tripped_seen = True
            assert tripped_seen, f"breaker never opened (crash_op={crash_op})"
            health = fleet.fleet_health()
            assert health[DOWN_SHARD]["breaker_state"] == "open"
            assert health[DOWN_SHARD]["breaker_opens"] >= 1
            assert health[DOWN_SHARD]["trips"] > 0

    def test_probe_heals_after_cooldown(self, small_summaries):
        clock = VirtualClock()
        fleet = make_fleet(small_summaries, clock=clock)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {DOWN_SHARD: [ShardFault.transient(errors=2)]}
            )
        )
        reference = make_fleet(small_summaries)
        query = small_summaries[0]
        expected = reference.knn(query, 5)

        # One query x two failed attempts -> the window hits min_volume
        # at failure rate 1.0 and the breaker opens.
        fleet.knn(
            query, 5, fault_policy=self.POLICY, fail_fast=False
        )
        assert fleet.fleet_health()[DOWN_SHARD]["breaker_state"] == "open"

        # Before the cooldown the shard keeps tripping.
        got = fleet.knn(
            query, 5, fault_policy=self.POLICY, fail_fast=False
        )
        assert got.coverage.shards_tripped == (DOWN_SHARD,)

        # After the cooldown a probe goes through; the fault window has
        # passed, so the probe succeeds and the breaker closes again.
        # (Advance past cooldown + the worker thread's small backoff
        # offsets, which shift the breaker's recorded open time.)
        clock.advance(self.POLICY.breaker.cooldown * 2)
        got = fleet.knn(
            query, 5, fault_policy=self.POLICY, fail_fast=False
        )
        assert got.coverage.complete
        assert got.videos == expected.videos
        assert (
            fleet.fleet_health()[DOWN_SHARD]["breaker_state"] == "closed"
        )


# ---------------------------------------------------------------------------
# Hedging and deadlines
# ---------------------------------------------------------------------------
class TestHedgingAndDeadlines:
    DELAY = 0.05

    def test_deadline_times_the_straggler_out(self, small_summaries):
        fleet = make_fleet(small_summaries)
        oracle = survivors_oracle(fleet, small_summaries, DOWN_SHARD)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {DOWN_SHARD: [ShardFault.slow(self.DELAY)]}
            )
        )
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=2), deadline=self.DELAY / 2
        )
        query = small_summaries[0]
        got = fleet.knn(
            query, 5, fault_policy=policy, fail_fast=False
        )
        expected = oracle.knn(query, 5)
        assert got.videos == expected.videos
        assert got.coverage.shards_timed_out == (DOWN_SHARD,)
        assert fleet.fleet_health()[DOWN_SHARD]["timeouts"] == 2

    def test_exhausted_budget_never_runs_a_doomed_attempt(
        self, small_summaries
    ):
        """Regression: deadline enforcement is budget-aware, not post-hoc.

        Schedule a hard-down first op, then a slow fault whose delay
        exceeds the whole budget.  The old post-hoc check would run the
        retry to completion against the real shard and discard the
        result; budget-aware enforcement aborts it at the injected delay
        (before any real work) and skips the final attempt outright, so
        the real shard serves *zero* queries and wastes zero pages.
        """
        fleet = make_fleet(small_summaries)
        oracle = survivors_oracle(fleet, small_summaries, DOWN_SHARD)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {
                    DOWN_SHARD: [
                        ShardFault("down", first_op=1, last_op=1),
                        ShardFault.slow(self.DELAY, first_op=2),
                    ]
                }
            )
        )
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=3), deadline=self.DELAY / 2
        )
        query = small_summaries[0]
        got = fleet.knn(
            query, 5, fault_policy=policy, fail_fast=False
        )
        expected = oracle.knn(query, 5)
        assert got.videos == expected.videos
        assert got.coverage.shards_timed_out == (DOWN_SHARD,)
        # The slow retry aborted at the injected delay and the final
        # attempt was skipped: the real shard never served anything.
        assert fleet.shards[DOWN_SHARD].inner.queries_served == 0
        health = fleet.fleet_health()[DOWN_SHARD]
        assert health["failures"] == 3  # down, budget-aborted, skipped
        assert health["timeouts"] == 2  # budget-aborted + skipped
        assert health["retries"] == 1  # the skipped attempt never slept
        assert health["wasted_page_reads"] == 0


# ---------------------------------------------------------------------------
# End-to-end determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def run_once(self, summaries):
        fleet = make_fleet(summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector(
                {
                    DOWN_SHARD: [ShardFault.transient(errors=2)],
                    2: [ShardFault.slow(0.05, first_op=2)],
                }
            )
        )
        policy = FaultPolicy(retry=RetryPolicy(max_attempts=4, seed=9))
        rankings = []
        for query in summaries[:6]:
            got = fleet.knn(
                query, 5, fault_policy=policy, fail_fast=False
            )
            rankings.append((got.videos, tuple(got.scores)))
        return rankings, fleet.fleet_health()

    def test_two_runs_are_bit_identical(self, small_summaries):
        """Same seed -> identical rankings, retries and latency
        percentiles across two independent fleets."""
        first_rankings, first_health = self.run_once(small_summaries)
        second_rankings, second_health = self.run_once(small_summaries)
        assert first_rankings == second_rankings
        assert first_health == second_health
        # The machinery actually engaged in this scenario.
        assert first_health[DOWN_SHARD]["retries"] > 0


# ---------------------------------------------------------------------------
# Health persistence (health.json)
# ---------------------------------------------------------------------------
class TestHealthPersistence:
    def test_open_breaker_survives_reopen(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries, path=path)
        fleet.inject_shard_faults(
            ShardFaultInjector({DOWN_SHARD: [ShardFault.hard_down()]})
        )
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=2),
            breaker=BreakerPolicy(
                failure_rate=0.5, window=4, min_volume=2, cooldown=100.0
            ),
        )
        for query in small_summaries[:3]:
            fleet.knn(
                query, 5, fault_policy=policy, fail_fast=False
            )
        before = fleet.fleet_health()
        assert before[DOWN_SHARD]["breaker_state"] == "open"
        fleet.close()

        reopened = ShardedVideoDatabase(path=path, clock=VirtualClock())
        after = reopened.fleet_health()
        assert after[DOWN_SHARD]["breaker_state"] == "open"
        assert after[DOWN_SHARD]["failures"] == before[DOWN_SHARD]["failures"]
        assert after[DOWN_SHARD]["retries"] == before[DOWN_SHARD]["retries"]
        # The restored breaker keeps failing fast until its cooldown.
        got = reopened.knn(
            small_summaries[0],
            5,
            fault_policy=policy,
            fail_fast=False,
        )
        assert got.coverage.shards_tripped == (DOWN_SHARD,)
        reopened.close()

    def test_healthy_fleet_reopens_closed(self, small_summaries, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = make_fleet(small_summaries, path=path)
        fleet.knn(small_summaries[0], 5, fault_policy=FaultPolicy())
        fleet.close()
        reopened = ShardedVideoDatabase(path=path, clock=VirtualClock())
        health = reopened.fleet_health()
        assert all(
            entry["breaker_state"] == "closed" for entry in health.values()
        )
        reopened.close()


# ---------------------------------------------------------------------------
# Serving metrics
# ---------------------------------------------------------------------------
class TestServingMetrics:
    def test_batch_metrics_count_degradation(self, small_summaries):
        fleet = make_fleet(small_summaries)
        fleet.inject_shard_faults(
            ShardFaultInjector({DOWN_SHARD: [ShardFault.hard_down()]})
        )
        results = [
            fleet.knn(
                query,
                5,
                fault_policy=FaultPolicy(retry=RetryPolicy(max_attempts=2)),
                fail_fast=False,
            )
            for query in small_summaries[:5]
        ]
        degraded = [r for r in results if not r.coverage.complete]
        assert len(degraded) == 5
        assert all(r.coverage.shards_missing == (DOWN_SHARD,) for r in degraded)
        # Survivors answered every query, so nothing was unavailable.
        available = [r for r in results if r.coverage.shards_answered]
        assert len(available) / len(results) == 1.0
        assert fleet.fleet_health()[DOWN_SHARD]["retries"] > 0
