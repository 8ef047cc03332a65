"""The four workloads.  Names are fixed; later issues refer to them.

Each workload stresses different layers on purpose, so that for every
optimisation one workload exercises its mechanism and one bypasses it
(see README.md for the layer -> end-to-end table):

* ``index_cold_scan``   B+-tree I/O, decode, geometry, merge; no wire, no cache.
* ``fleet_tcp_zipf``    codec, wire, front door, scatter/merge, replicas, L1/L2.
* ``fleet_open_unique`` open loop of distinct queries: GIL, router lock, queueing.
* ``ingest_mixed``      inserts, WAL commits and side-builds beside paced reads.

Every workload runs in this one process with at most two load-generator
threads (``nproc`` is 2) and ``read_latency=0``, so a sleep is never part
of a measurement.  Operation counts are fixed by ``--seconds`` and the
frozen rates in ``calibration.json``, not by the clock, so counters
compare exactly between two runs of one seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import shutil
import threading
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core.engine import QueryEngine
from repro.ingest.drift import DriftMonitor
from repro.ingest.pipeline import IngestOverloaded, IngestPipeline
from repro.serve.frontdoor import FrontDoor, FrontDoorServer, NetworkFleet
from repro.serve.protocol import ServiceOverloaded
from repro.serve.transport import RemoteShardClient
from repro.shard.partitioner import KeyRangePartitioner
from repro.shard.router import ShardedVideoDatabase
from repro.utils.clock import SystemClock
from repro.utils.counters import CostCounters
from repro.utils.rng import ensure_rng

from e2e import loadgen
from e2e.corpus import DIM, EPSILON, K, clone_stream, oracle_mismatches, summarize_corpus

__all__ = ["WORKLOADS", "Answer", "Outcome", "Workload", "execute"]

# A closed loop stops issuing after this multiple of its time budget, and
# waits for outstanding replies are cut off here: a system several times
# slower than the seed bounds the run instead of stretching it.
OVERRUN = 2.0
WAIT_SECONDS = 60.0
# An open-loop generator later than this at p95 did not offer the stated
# rate.  It runs 0.2 ms late on a quiet machine; on the one pinned core a
# single GIL switch interval is already 5 ms, and a noisy hour reached 7.
LATE_LIMIT_MS = 20.0


@dataclass(frozen=True)
class Answer:
    """One query's reply, whichever surface returned it."""

    videos: tuple
    scores: tuple
    stats: dict
    shards_queried: int = 0
    shards_pruned: int = 0


def _answer(result) -> Answer:
    scatter = getattr(result, "scatter", None)
    return Answer(
        tuple(result.videos),
        tuple(result.scores),
        dataclasses.asdict(result.stats),
        len(scatter.shards_queried) if scatter is not None else 0,
        len(scatter.shards_pruned) if scatter is not None else 0,
    )


def _answer_from_wire(body: dict) -> Answer:
    return Answer(
        tuple(body["videos"]),
        tuple(body["scores"]),
        body["stats"],
        len(body["scatter"]["shards_queried"]),
        len(body["scatter"]["shards_pruned"]),
    )


@dataclass
class Outcome:
    """What one measured run of a workload produced.

    ``reported`` holds the reads whose latency is the end-to-end
    p50/p95 (one phase of the open-loop workloads); ``queries`` holds
    every read issued, for the per-query counters.  ``facts`` carries
    exact counts and harness-timed numbers for the per-layer table.
    """

    queries: list = field(default_factory=list)
    reported: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    invalid: list = field(default_factory=list)


def directory_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def tree_shape(index) -> tuple[int, int]:
    """``(height, leaf pages)`` of an index's B+-tree, by one full range
    search: the descent visits ``height`` nodes and every further leaf
    one more."""
    counters = CostCounters()
    index.btree.range_search_many([(-math.inf, math.inf)], counters=counters)
    height = index.btree.height
    return height, counters.btree_node_visits - (height - 1)


class Workload:
    """Set-up, measured run and tear-down of one workload."""

    name = ""
    generator_threads = 1

    def __init__(self, params, common, *, seed, seconds, fraction, tracer) -> None:
        self.p = params
        self.c = common
        self.seed = seed
        self.fraction = fraction
        self.budget = seconds * fraction
        self.full = fraction >= 1.0
        self.tracer = tracer
        self.clock = SystemClock()
        self.now = self.clock.now
        self.rng = ensure_rng(seed)
        self.summaries: list = []
        self.directory = ""
        self.vitris = 0
        self.facts: dict = {}

    # -- lifecycle -----------------------------------------------------
    def setup(self, dataset, directory: str) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------
    def _summarize(self, dataset) -> None:
        started = self.now()
        self.summaries = summarize_corpus(dataset, self.p["videos"])
        elapsed = self.now() - started
        self.facts["summarize.s_per_1k_videos"] = elapsed * 1000.0 / len(self.summaries)
        self.facts["summarize.vitris_per_video"] = sum(
            len(summary.vitris) for summary in self.summaries
        ) / len(self.summaries)

    def _populate(self, fleet) -> None:
        """Bulk-load the corpus into a durable fleet and make it durable."""
        for summary in self.summaries:
            fleet.add_summary(summary)
        fleet.build()
        fleet.checkpoint()
        self._index_facts(
            [shard.database.index for shard in fleet.shards if len(shard) > 0]
        )

    def _index_facts(self, indexes) -> None:
        self.vitris = sum(index.num_vitris for index in indexes)
        if self.tracer is not None:
            shapes = [tree_shape(index) for index in indexes]
            self.facts["btree.height"] = max(height for height, _ in shapes)
            self.facts["btree.leaf_pages"] = sum(leaves for _, leaves in shapes)

    def _picks(self, count: int, *, exclude=()) -> np.ndarray:
        """``count`` distinct seeded video indices (the queries are the
        corpus videos' own summaries)."""
        pool = np.setdiff1d(np.arange(len(self.summaries)), np.asarray(exclude, dtype=int))
        return self.rng.choice(pool, size=count, replace=False)

    def _traced(self, query, call):
        """Run ``call()`` as one request of the span tree."""
        if self.tracer is None:
            return call()
        root = self.tracer.open_request(query)
        try:
            return call()
        finally:
            self.tracer.leave_thread(root)
            self.tracer.close_request(root)

    def _closed_loop(self, clients, issue) -> Outcome:
        """Drive the clients' operation lists; throughput is answered
        operations over first start -> last reply."""
        started = self.now()
        samples = loadgen.run_closed_loop(
            clients, issue, now=self.now, stop_at=started + OVERRUN * self.budget
        )
        self.facts["window"] = (started, self.now())
        outcome = Outcome(queries=samples, reported=samples)
        outcome.attempted = len(samples)
        outcome.failed = sum(1 for s in samples if not s.answered)
        outcome.metrics["query_qps"] = (len(samples) - outcome.failed) / (
            max(s.done for s in samples) - min(s.started for s in samples)
        )
        return outcome

    def _wait(self, finished) -> None:
        """Poll until ``finished()``; give up after ``WAIT_SECONDS``."""
        give_up = self.now() + WAIT_SECONDS
        while not finished():
            if self.now() > give_up:
                raise TimeoutError(f"{self.name}: replies still outstanding")
            self.clock.sleep(0.001)

    def _close_out(self, outcome: Outcome, committed, checks) -> Outcome:
        """Fill the metrics every workload reports the same way."""
        answered = [s for s in outcome.queries if s.answered]
        reported = [s.latency for s in outcome.reported if s.answered]
        metrics = outcome.metrics
        metrics["query_p50_ms"] = loadgen.median(reported) * 1e3
        metrics["query_p95_ms"] = self._p95_ms(outcome, "query_p95_ms", reported)
        metrics["page_reads_per_query"] = sum(
            s.answer.stats["physical_reads"] for s in answered
        ) / len(answered)
        metrics["disk_bytes_per_vitri"] = directory_bytes(self.directory) / self.vitris
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        wrong, last_bit = oracle_mismatches(committed, checks)
        outcome.facts["oracle_last_bit_diffs"] = last_bit
        outcome.attempted += len(checks)
        outcome.failed += wrong
        if wrong:
            outcome.invalid.append(f"oracle: {wrong} of {len(checks)} answers differ")
        metrics["failed_frac"] = outcome.failed / outcome.attempted
        outcome.facts.update(self.facts)
        outcome.facts["vitris_stored"] = self.vitris
        outcome.facts["loadgen.samples"] = len(reported)
        return outcome

    def _p95_ms(self, outcome: Outcome, name: str, seconds: list) -> float:
        """p95 in ms.  Too few samples for it mark a full run invalid; the
        highest supported tail (or the median) then stands in so that the
        tables stay complete, never passed off as valid."""
        fraction, value = loadgen.best_tail(seconds)
        if fraction != 0.95 and self.full:
            outcome.invalid.append(
                f"{name}: {len(seconds)} samples cannot support a p95"
            )
        return (loadgen.median(seconds) if fraction is None else value) * 1e3

    def _sample_checks(self, samples):
        """A seeded sample of answered queries as oracle checks."""
        answered = [s for s in samples if s.answered]
        count = min(self.c["oracle_samples"], len(answered))
        chosen = ensure_rng(self.seed + 1).choice(len(answered), size=count, replace=False)
        return [
            (_query_of(answered[i].op), _k_of(answered[i].op),
             answered[i].answer.videos, answered[i].answer.scores)
            for i in chosen
        ]


def _query_of(op):
    return op[0] if isinstance(op, tuple) else op


def _k_of(op):
    return op[1] if isinstance(op, tuple) else K


# ----------------------------------------------------------------------
# 1. index_cold_scan
# ----------------------------------------------------------------------
class IndexColdScan(Workload):
    """One closed-loop client, distinct queries, file-backed index, caches
    off: B+-tree I/O, decode, geometry and merge do all the work."""

    name = "index_cold_scan"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.index = None
        self.engine = None

    def setup(self, dataset, directory: str) -> None:
        self.directory = directory
        self._summarize(dataset)
        capacity = self.c["buffer_capacity"]
        self.index = repro.VitriIndex.build(
            self.summaries,
            EPSILON,
            btree_path=os.path.join(directory, "index.btree"),
            heap_path=os.path.join(directory, "index.heap"),
            buffer_capacity=capacity,
        )
        # Durable before serving: until the pagers sync, page reads are
        # answered from the write-ahead log's in-memory images.
        self.index.flush()
        self._index_facts([self.index])
        self.engine = QueryEngine(
            self.index, buffer_capacity=capacity, cache_size=0, range_cache_size=0
        )
        for position in range(self.c["warmup_queries"]):
            self.engine.knn(self.summaries[-1 - position], K)

    def run(self) -> Outcome:
        count = max(1, round(self.p["queries_per_s"] * self.budget))
        queries = [self.summaries[int(i)] for i in self._picks(count)]
        # The engine's per-stage seconds (CostCounters.extra) come out
        # through this bundle; the traced run reads it around each call.
        bundle = CostCounters()

        def issue(_, sample) -> None:
            sample.answer = _answer(
                self._traced(
                    sample.op,
                    lambda: self.engine.knn(sample.op, K, out_counters=bundle),
                )
            )

        outcome = self._closed_loop([queries], issue)
        samples = outcome.queries
        outcome.facts["engine.cache_hits"] = (
            self.engine.cache_hits + self.engine.range_cache_hits
        )
        self._close_out(outcome, self.summaries, self._sample_checks(samples))
        if self.full:
            if outcome.facts["engine.cache_hits"] != 0:
                outcome.invalid.append("a cache tier answered on the cache-free workload")
            requests = sum(s.answer.stats["page_requests"] for s in samples if s.answered)
            reads = sum(s.answer.stats["physical_reads"] for s in samples if s.answered)
            if 1.0 - reads / requests >= 0.2:
                outcome.invalid.append(
                    f"buffer pool hit rate {1.0 - reads / requests:.2f} >= 0.2: "
                    "the tree fits the pool"
                )
        return outcome

    def teardown(self) -> None:
        if self.index is not None:
            self.index.btree.buffer_pool.pager.close()
            self.index.heap.buffer_pool.pager.close()
            self.index = None


# ----------------------------------------------------------------------
# 2. fleet_tcp_zipf
# ----------------------------------------------------------------------
class FleetTcpZipf(Workload):
    """Two closed-loop TCP clients, Zipf(1.2) repeats over a hot set: codec,
    wire, front door, scatter/merge, replica affinity and L1/L2 do most of
    the work."""

    name = "fleet_tcp_zipf"
    generator_threads = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fleet = None
        self.server = None
        self.clients: list = []

    def setup(self, dataset, directory: str) -> None:
        self.directory = directory
        self._summarize(dataset)
        capacity = self.c["buffer_capacity"]
        path = os.path.join(directory, "fleet")
        writable = ShardedVideoDatabase(
            EPSILON,
            partitioner="hash",
            num_shards=self.p["shards"],
            path=path,
            buffer_capacity=capacity,
        )
        try:
            self._populate(writable)
        finally:
            writable.close()
        self.fleet = NetworkFleet(
            path,
            mode="thread",
            replicas_per_shard=1,
            cache_size=128,
            range_cache_size=256,
            buffer_capacity=capacity,
        )
        self.server = FrontDoorServer(self.fleet.frontdoor)
        host, port = self.server.run_in_thread()
        self.clients = [
            RemoteShardClient(host, port) for _ in range(self.p["clients"])
        ]
        # Warm the code paths, not the caches: the warm-up videos (the
        # corpus tail) are kept out of the hot set.
        for position in range(self.c["warmup_queries"]):
            for client in self.clients:
                client.request("knn", {"k": K}, summary=self.summaries[-1 - position])

    def run(self) -> Outcome:
        clients = self.p["clients"]
        total = max(clients, round(self.p["requests_per_s"] * self.budget))
        tail_ids = range(len(self.summaries) - self.c["warmup_queries"], len(self.summaries))
        hot = self._picks(self.p["hot_set"], exclude=tail_ids)
        ranks = loadgen.zipf_draws(self.rng, len(hot), self.p["zipf_exponent"], total)
        # k alternates 10/5 within each client, so an L1 miss on a new k
        # can still hit the L2 blocks an earlier k pulled.
        ops = [
            (self.summaries[int(hot[rank])], 10 if (i // clients) % 2 == 0 else 5)
            for i, rank in enumerate(ranks)
        ]

        def issue(index, sample) -> None:
            query, k = sample.op
            sample.answer = _answer_from_wire(
                self._traced(
                    query,
                    lambda: self.clients[index].request("knn", {"k": k}, summary=query),
                )
            )

        outcome = self._closed_loop([ops[c::clients] for c in range(clients)], issue)
        self._close_out(outcome, self.summaries, self._sample_checks(outcome.queries))
        # Seen from the client, a reply that cost no similarity
        # computation was an L1 hit on every shard (all shards see the
        # same query sequence, so they hit and miss together).
        answered = [s for s in outcome.queries if s.answered]
        hit_rate = sum(
            1 for s in answered if s.answer.stats["similarity_computations"] == 0
        ) / len(answered)
        if self.full and hit_rate < 0.5:
            outcome.invalid.append(
                f"L1 hit rate {hit_rate:.2f} < 0.5: the median is no longer a cache hit"
            )
        return outcome

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server.wait_closed(5.0)
            self.server = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


# ----------------------------------------------------------------------
# 3. fleet_open_unique
# ----------------------------------------------------------------------
@dataclass
class RatePhase:
    """One fixed-rate phase of the open-loop ladder."""

    rate: float
    samples: list
    sheds: int
    errors: int
    backlog_end: int
    late_s: list
    p50_ms: float = math.nan
    tail_fraction: float | None = None
    tail_ms: float = math.nan
    completed_per_s: float = 0.0
    ok: bool = False


class FleetOpenUnique(Workload):
    """Open loop of all-distinct queries at three fixed rates through the
    front door: every request is a full scatter, so GIL, router-lock
    contention and front-door queueing dominate."""

    name = "fleet_open_unique"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fleet = None
        self.door = None

    def setup(self, dataset, directory: str) -> None:
        self.directory = directory
        self._summarize(dataset)
        self.fleet = ShardedVideoDatabase(
            EPSILON,
            partitioner=KeyRangePartitioner.fit(self.summaries, self.p["shards"]),
            path=os.path.join(directory, "fleet"),
            buffer_capacity=self.c["buffer_capacity"],
        )
        self._populate(self.fleet)
        self.door = FrontDoor(self.fleet)
        for position in range(self.c["warmup_queries"]):
            self.door.query_sync(self.summaries[-1 - position], K)

    def run(self) -> Outcome:
        counts = [
            max(1, round(rate * share * self.budget))
            for rate, share in zip(self.p["rates_qps"], self.p["phase_shares"])
        ]
        tail_ids = range(len(self.summaries) - self.c["warmup_queries"], len(self.summaries))
        picks = self._picks(sum(counts), exclude=tail_ids)
        phases = []
        cursor = 0
        started = self.now()
        for rate, count in zip(self.p["rates_qps"], counts):
            queries = [self.summaries[int(i)] for i in picks[cursor : cursor + count]]
            cursor += count
            phases.append(self._phase(rate, queries))
        self.facts["window"] = (started, self.now())

        r2, r3 = phases[1], phases[2]
        outcome = Outcome(
            queries=[s for phase in phases for s in phase.samples],
            reported=r2.samples,
        )
        outcome.attempted = len(outcome.queries)
        # r3 is over capacity on purpose: its sheds are the layer metric
        # frontdoor.shed_frac_r3, not failures.
        outcome.failed = sum(p.errors for p in phases) + sum(p.sheds for p in phases[:2])
        ok_rates = [phase.rate for phase in phases if phase.ok]
        outcome.metrics["max_rate_ok_qps"] = max(ok_rates, default=0.0)
        outcome.metrics["query_qps"] = r3.completed_per_s
        # Lateness is judged below saturation: while r3 overloads the one
        # core, the generator has to wait for it like everyone else.
        late = [s for phase in phases[:2] for s in phase.late_s]
        outcome.facts["loadgen.late_p95_ms"] = loadgen.best_tail(late)[1] * 1e3
        outcome.facts["frontdoor.shed_overload"] = self.door.stats()["shed_overload"]
        outcome.facts["frontdoor.shed_frac_r3"] = r3.sheds / len(r3.samples)
        outcome.facts["rates"] = [
            {
                "rate_qps": phase.rate,
                "samples": len(phase.samples),
                "p50_ms": phase.p50_ms,
                "tail_fraction": phase.tail_fraction,
                "tail_ms": phase.tail_ms,
                "sheds": phase.sheds,
                "backlog_end": phase.backlog_end,
                "completed_per_s": phase.completed_per_s,
                "ok": phase.ok,
            }
            for phase in phases
        ]
        outcome.facts["engine.cache_hits"] = sum(
            shard.engine().cache_hits + shard.engine().range_cache_hits
            for shard in self.fleet.shards
        )
        self._close_out(outcome, self.summaries, self._sample_checks(outcome.queries))
        if self.full:
            if outcome.facts["engine.cache_hits"] != 0:
                outcome.invalid.append("a cache tier answered on the all-distinct workload")
            if outcome.facts["loadgen.late_p95_ms"] > LATE_LIMIT_MS:
                outcome.invalid.append(
                    f"generator ran {outcome.facts['loadgen.late_p95_ms']:.1f} ms late "
                    "at p95: the offered rate was not the stated one"
                )
        return outcome

    def _phase(self, rate: float, queries: list) -> RatePhase:
        lock = threading.Lock()
        outstanding = [0]
        tracer = self.tracer

        def issue(sample) -> None:
            root = tracer.open_request(sample.op) if tracer is not None else None
            try:
                future = self.door.submit(sample.op, K)
            except ServiceOverloaded:
                if root is not None:
                    tracer.leave_thread(root)
                    tracer.close_request(root)
                raise
            if root is not None:
                tracer.leave_thread(root)
            with lock:
                outstanding[0] += 1

            def finished(done_future) -> None:
                done = self.now()
                error = done_future.exception()
                if error is not None:
                    sample.error = error
                else:
                    sample.answer = _answer(done_future.result())
                sample.done = done
                if root is not None:
                    tracer.close_request(root, done)
                with lock:
                    outstanding[0] -= 1

            future.add_done_callback(finished)

        samples = loadgen.run_open_loop(
            queries, rate, issue, now=self.now, sleep=self.clock.sleep
        )
        with lock:
            backlog_end = outstanding[0]
        self._wait(lambda: outstanding[0] == 0)

        sheds = sum(1 for s in samples if isinstance(s.error, ServiceOverloaded))
        phase = RatePhase(
            rate=rate,
            samples=samples,
            sheds=sheds,
            errors=sum(1 for s in samples if s.error is not None) - sheds,
            backlog_end=backlog_end,
            late_s=[s.started - s.due for s in samples],
        )
        latencies = [s.latency for s in samples if s.answered]
        if latencies:
            phase.p50_ms = loadgen.median(latencies) * 1e3
            phase.tail_fraction, tail_s = loadgen.best_tail(latencies)
            phase.tail_ms = tail_s * 1e3
            phase.completed_per_s = len(latencies) / (
                max(s.done for s in samples if s.answered) - samples[0].due
            )
        if phase.tail_fraction is not None:
            # The limit is on the highest percentile the phase supports
            # (p95 on the long r2 phase); a shed or failed request misses
            # any limit, and a backlog still growing when the phase ends
            # means the rate is not sustained.
            phase.ok = (
                phase.tail_ms <= self.p["limit_ms"]
                and phase.sheds == 0
                and phase.errors == 0
                and phase.backlog_end <= self.p["max_backlog"]
            )
        return phase

    def teardown(self) -> None:
        if self.door is not None:
            self.door.drain()
            self.door = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


# ----------------------------------------------------------------------
# 4. ingest_mixed
# ----------------------------------------------------------------------
class IngestMixed(Workload):
    """Paced ingest beside paced reads, then a drifted closed-loop burst:
    the B+-tree and storage layers do inserts, WAL commits and side-builds
    where the other three workloads only read."""

    name = "ingest_mixed"
    generator_threads = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fleet = None
        self.pipeline = None

    def setup(self, dataset, directory: str) -> None:
        self.directory = directory
        self._summarize(dataset)
        self.fleet = ShardedVideoDatabase(
            EPSILON,
            partitioner="hash",
            num_shards=self.p["shards"],
            path=os.path.join(directory, "fleet"),
            buffer_capacity=self.c["buffer_capacity"],
            cache_size=0,
        )
        self._populate(self.fleet)
        self.pipeline = IngestPipeline(
            self.fleet,
            batch_size=32,
            max_queue=128,
            # Scaled with the operation list, so that the traced third
            # meets its drift checks at the same point of the burst.
            drift=DriftMonitor(
                max_angle_degrees=10.0,
                check_every=max(1, round(self.p["drift_check_every"] * self.fraction)),
            ),
        )
        self.pipeline.start()
        for position in range(self.c["warmup_queries"]):
            self.fleet.knn(self.summaries[-1 - position], K)

    def run(self) -> Outcome:
        corpus_size = len(self.summaries)
        paced_s = self.p["paced_share"] * self.budget
        paced = clone_stream(
            self.summaries,
            corpus_size,
            max(1, round(self.p["ingest_per_s"] * paced_s)),
            self.rng,
        )
        burst = clone_stream(
            self.summaries,
            corpus_size + len(paced),
            max(1, round(self.p["burst_per_s"] * (self.budget - paced_s))),
            self.rng,
            rotation=np.roll(np.eye(DIM), 3, axis=0),
        )
        reads = [
            self.summaries[int(i)]
            for i in self._picks(max(1, round(self.p["read_qps"] * paced_s)))
        ]

        started = self.now()
        read_samples, submits = self._paced_phase(paced, reads)
        admitted = [s for s in submits if s.error is None]
        paced_sheds = len(submits) - len(admitted)
        burst_s, retries, sent = self._burst_phase(burst)
        self.facts["window"] = (started, self.now())
        self.fleet.checkpoint()
        self.vitris = sum(
            shard.database.index.num_vitris for shard in self.fleet.shards
        )

        outcome = Outcome(queries=read_samples, reported=read_samples)
        outcome.attempted = len(read_samples) + len(submits) + sent
        outcome.failed = sum(1 for s in read_samples if not s.answered) + paced_sheds
        commits = [s.latency for s in admitted]
        metrics = outcome.metrics
        metrics["query_qps"] = sum(1 for s in read_samples if s.answered) / (
            max(s.done for s in read_samples) - read_samples[0].due
        )
        metrics["ingest_commit_p50_ms"] = loadgen.median(commits) * 1e3
        metrics["ingest_commit_p95_ms"] = self._p95_ms(
            outcome, "ingest_commit_p95_ms", commits
        )
        metrics["ingest_burst_videos_per_s"] = sent / burst_s
        stats = self.pipeline.stats()
        outcome.facts.update(
            {
                "ingest.batches": stats["batches"],
                "ingest.mean_batch_size": stats["ingested"] / stats["batches"],
                "ingest.shed_retries": retries,
                "ingest.drift_checks": stats["drift_checks"],
                "ingest.rebuilds": stats["rebuilds"],
                "ingest.videos": stats["ingested"],
                "ingest.paced_sheds": paced_sheds,
                "loadgen.late_p95_ms": loadgen.best_tail(
                    [s.started - s.due for s in read_samples + submits]
                )[1]
                * 1e3,
            }
        )
        # The phase-A reads were answered over intermediate states, so the
        # oracle probes the fleet again after drain(), against everything
        # committed: initial + paced + burst.
        probes = [
            self.summaries[int(i)] for i in self._picks(self.c["oracle_samples"])
        ]
        checks = []
        for probe in probes:
            result = self.fleet.knn(probe, K)
            checks.append((probe, K, result.videos, result.scores))
        committed = self.summaries + [s.op for s in admitted] + burst[:sent]
        self._close_out(outcome, committed, checks)
        if self.full:
            if stats["rebuilds"] < 1:
                outcome.invalid.append("no online cutover: the drifted burst never triggered one")
            if paced_sheds > 0:
                outcome.invalid.append(
                    f"{paced_sheds} paced submits were shed: the paced rate is over capacity"
                )
        return outcome

    def _paced_phase(self, stream: list, reads: list):
        """Open-loop ingest on this thread, open-loop reads on a second."""
        read_samples: list = []

        def read(sample) -> None:
            sample.answer = _answer(
                self._traced(sample.op, lambda: self.fleet.knn(sample.op, K))
            )
            sample.done = self.now()

        def reader() -> None:
            read_samples.extend(
                loadgen.run_open_loop(
                    reads, self.p["read_qps"], read, now=self.now, sleep=self.clock.sleep
                )
            )

        admitted: list = []
        observed = [0]

        def observe() -> None:
            # A submit is committed once the pipeline counts it ingested;
            # the queue is FIFO, so the n-th ingested is the n-th admitted.
            visible = min(self.pipeline.ingested, len(admitted))
            stamp = self.now()
            while observed[0] < visible:
                admitted[observed[0]].done = stamp
                observed[0] += 1

        def submit(sample) -> None:
            self.pipeline.submit(sample.op)
            admitted.append(sample)

        thread = threading.Thread(target=reader, name="e2e-reader")
        thread.start()
        try:
            submits = loadgen.run_open_loop(
                stream,
                self.p["ingest_per_s"],
                submit,
                now=self.now,
                sleep=self.clock.sleep,
                idle=observe,
            )

            def all_committed() -> bool:
                observe()
                return observed[0] == len(admitted)

            self._wait(all_committed)
        finally:
            thread.join()
        return read_samples, submits

    def _burst_phase(self, stream: list):
        """Closed-loop submits with retry-on-overload, then ``drain()``."""
        stop_at = self.now() + OVERRUN * self.budget
        retries = 0
        sent = 0
        started = self.now()
        for summary in stream:
            if self.now() > stop_at:
                break
            while True:
                try:
                    self.pipeline.submit(summary)
                    break
                except IngestOverloaded:
                    retries += 1
                    self.clock.sleep(0.001)
            sent += 1
        self.pipeline.drain()
        return self.now() - started, retries, sent

    def teardown(self) -> None:
        if self.pipeline is not None:
            self.pipeline.drain()
            self.pipeline = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


WORKLOADS = {
    workload.name: workload
    for workload in (IndexColdScan, FleetTcpZipf, FleetOpenUnique, IngestMixed)
}


def execute(
    name, calibration, scale, dataset, workdir, *, seed, seconds, fraction=1.0,
    setups=1, tracer=None,
) -> Outcome:
    """Set one workload up ``setups`` times (the last one is measured),
    run it, check it against the oracle and tear it down.

    ``setup_s`` is the median of the set-up times: summarise, build or
    open, fleet start, replica bootstrap and warm-up, but not the frame
    generation, which is load generation.
    """
    workload = WORKLOADS[name](
        calibration["scales"][scale][name],
        calibration,
        seed=seed,
        seconds=seconds,
        fraction=fraction,
        tracer=tracer,
    )
    clock = SystemClock()
    setup_times = []
    try:
        for attempt in range(setups):
            directory = os.path.join(workdir, name, str(attempt))
            os.makedirs(directory)
            started = clock.now()
            workload.setup(dataset, directory)
            setup_times.append(clock.now() - started)
            if attempt < setups - 1:
                workload.teardown()
                shutil.rmtree(directory)
        outcome = workload.run()
    finally:
        workload.teardown()
        shutil.rmtree(os.path.join(workdir, name), ignore_errors=True)
    outcome.metrics["setup_s"] = loadgen.median(setup_times)
    return outcome
