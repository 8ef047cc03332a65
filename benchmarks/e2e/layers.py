"""The per-layer table: which public callables are traced, and how the
spans and exact counters become the metrics named in BENCHMARK.json.

Layers are this repo's modules.  A metric a workload does not exercise
reads 0 there (``protocol.*`` on ``index_cold_scan``, ``ingest.*`` on
the read-only workloads); that 0 is itself the bypass prediction.
"""

from __future__ import annotations

import os
from collections import defaultdict

from repro.btree.tree import BPlusTree
from repro.core.engine import QueryEngine
from repro.core.index import VitriIndex
from repro.core.scoring import ScoreAccumulator
from repro.ingest.pipeline import IngestPipeline
from repro.replication.group import ReplicaSet
from repro.replication.replica import ReplicaShard
from repro.serve import protocol
from repro.serve.frontdoor import FrontDoor
from repro.serve.transport import RemoteShard
from repro.shard.router import ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.serialization import ViTriRecordCodec
from repro.storage.wal import WriteAheadLog

from e2e import loadgen
from e2e.trace import (
    ATTRS,
    END,
    NAME,
    PARENT,
    START,
    Tracer,
    request_of,
    self_times,
    summarize_spans,
)

__all__ = ["derive", "install"]

_STAGES = ("io", "deserialize", "geometry", "merge")


def _stage_snapshot(bundle) -> tuple:
    if bundle is None:
        return (0.0,) * len(_STAGES)
    return tuple(bundle.extra.get(f"stage_{stage}_s", 0.0) for stage in _STAGES)


def _engine_before(args, kwargs):
    return args[0].cache_hits, _stage_snapshot(kwargs.get("out_counters"))


def _engine_after(token, args, kwargs, result):
    hits, before = token
    after = _stage_snapshot(kwargs.get("out_counters"))
    attrs = {
        f"stage_{stage}_s": new - old
        for stage, old, new in zip(_STAGES, before, after)
    }
    # The result cache's public hit counter moved during this call.
    attrs["hit"] = 1 if args[0].cache_hits > hits else 0
    return attrs


def _result_bytes(token, args, kwargs, result):
    return {"bytes": len(result)}


def _input_bytes(token, args, kwargs, result):
    return {"bytes": len(args[0])}


def install(tracer: Tracer) -> None:
    """Swap the traced public callables for span recorders."""
    wrap, function = tracer.wrap_method, tracer.wrap_function
    # core.index / btree / storage / serialization / scoring
    wrap(VitriIndex, "build", "index.build")
    wrap(BPlusTree, "range_search_many", "btree.range_search_many")
    wrap(BPlusTree, "insert", "btree.insert")
    wrap(BufferPool, "fetch", "storage.fetch")
    wrap(Pager, "read_page", "storage.read_page")
    wrap(WriteAheadLog, "commit", "storage.wal_commit")
    wrap(
        WriteAheadLog,
        "log_page",
        "storage.wal_log_page",
        after=lambda token, args, kwargs, result: {"bytes": len(args[3])},
    )
    # Every flush to the device, whichever file it is for.
    wrap(os, "fsync", "storage.fsync")
    wrap(
        ViTriRecordCodec,
        "columns_from_struct",
        "serialization.decode",
        after=lambda token, args, kwargs, result: {"records": int(args[1].shape[0])},
    )
    wrap(ScoreAccumulator, "evaluate_arrays", "scoring.evaluate")
    wrap(ScoreAccumulator, "scores", "scoring.rank")
    # core.engine / shard.shard / replication
    wrap(
        QueryEngine, "knn", "engine.knn",
        query_arg=1, before=_engine_before, after=_engine_after,
    )
    wrap(Shard, "knn", "shard.knn", query_arg=1)
    wrap(ReplicaSet, "knn", "replication.knn", query_arg=1)
    wrap(ReplicaShard, "knn", "replication.replica_knn", query_arg=1)
    wrap(ReplicaSet, "attach_replica", "replication.attach_replica")
    # serve.transport / serve.protocol
    wrap(RemoteShard, "knn", "transport.knn", query_arg=1)
    wrap(RemoteShard, "may_contain", "transport.may_contain", query_arg=1)
    function(protocol.encode_request, "protocol.encode", after=_result_bytes)
    function(protocol.encode_response, "protocol.encode", after=_result_bytes)
    function(protocol.decode_request, "protocol.decode", after=_input_bytes)
    function(protocol.decode_response, "protocol.decode", after=_input_bytes)
    # shard.router / serve.frontdoor / ingest.pipeline
    wrap(
        ShardedVideoDatabase, "knn", "router.knn", query_arg=1,
        after=lambda token, args, kwargs, result: {"in_lock_s": result.stats.wall_time},
    )
    wrap(ShardedVideoDatabase, "add_summary", "router.add_summary")
    wrap(ShardedVideoDatabase, "checkpoint", "router.checkpoint")
    wrap(ShardedVideoDatabase, "rebuild_shard", "router.rebuild_shard")
    wrap(FrontDoor, "submit", "frontdoor.submit", query_arg=1)
    wrap(IngestPipeline, "submit", "ingest.submit")


def _per(amount: float, count: float, scale: float = 1.0) -> float:
    return amount * scale / count if count else 0.0


def derive(outcome, tracer: Tracer, *, untraced_p50_ms: float, generate_s: float) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced run."""
    facts = outcome.facts
    window_start, window_end = facts["window"]
    every_span = tracer.spans()
    # Set-up, warm-up and the oracle's own probes are traced too; the
    # per-query numbers use only the spans of the measured phases.
    spans = [s for s in every_span if window_start <= s[START] <= window_end]
    own = self_times(spans)
    stats = summarize_spans(spans, own)
    setup_s: dict = defaultdict(float)
    for span in every_span:
        if span[START] < window_start:
            setup_s[span[NAME]] += span[END] - span[START]

    answered = [s for s in outcome.queries if s.answered]
    requests = len(answered)

    def total(name) -> float:
        return stats[name].total_s if name in stats else 0.0

    def count(name) -> int:
        return stats[name].count if name in stats else 0

    def self_s(name) -> float:
        return stats[name].self_s if name in stats else 0.0

    def attr(name, key) -> float:
        return stats[name].attrs.get(key, 0.0) if name in stats else 0.0

    def per_query(key) -> float:
        return sum(s.answer.stats[key] for s in answered) / requests

    m: dict[str, float] = {}
    m["datasets.generate_s"] = generate_s
    m["summarize.s_per_1k_videos"] = facts["summarize.s_per_1k_videos"]
    m["summarize.vitris_per_video"] = facts["summarize.vitris_per_video"]

    # core.index
    m["index.build_s"] = setup_s["index.build"]
    for stage in _STAGES:
        m[f"index.stage_{stage}_ms"] = _per(
            attr("engine.knn", f"stage_{stage}_s"), requests, 1e3
        )
    m["index.scan_frac"] = per_query("candidates") / facts["vitris_stored"]
    m["index.ranges_per_query"] = per_query("ranges")
    m["index.candidates_per_query"] = per_query("candidates")
    m["index.similarity_computations_per_query"] = per_query("similarity_computations")

    # btree / storage / serialization / scoring
    m["btree.height"] = facts["btree.height"]
    m["btree.leaf_pages"] = facts["btree.leaf_pages"]
    m["btree.node_visits_per_query"] = per_query("node_visits")
    m["btree.range_search_ms_per_query"] = _per(
        total("btree.range_search_many"), requests, 1e3
    )
    m["btree.insert_ms_per_vitri"] = _per(
        total("btree.insert"), count("btree.insert"), 1e3
    )
    page_requests = per_query("page_requests")
    m["storage.page_requests_per_query"] = page_requests
    m["storage.pool_hit_rate"] = (
        1.0 - per_query("physical_reads") / page_requests if page_requests else 0.0
    )
    m["storage.read_page_us"] = _per(
        total("storage.read_page"), count("storage.read_page"), 1e6
    )
    m["storage.wal_commits"] = count("storage.wal_commit")
    m["storage.wal_commit_ms"] = _per(
        total("storage.wal_commit"), count("storage.wal_commit"), 1e3
    )
    m["storage.wal_bytes_per_video"] = _per(
        attr("storage.wal_log_page", "bytes"), facts.get("ingest.videos", 0)
    )
    batches = facts.get("ingest.batches", 0)
    m["storage.fsyncs_per_batch"] = _per(count("storage.fsync"), batches)
    m["serialization.decode_ms_per_query"] = _per(
        total("serialization.decode"), requests, 1e3
    )
    m["serialization.records_decoded_per_query"] = (
        attr("serialization.decode", "records") / requests
    )
    m["scoring.evaluate_ms_per_query"] = _per(total("scoring.evaluate"), requests, 1e3)
    m["scoring.rank_ms_per_query"] = _per(total("scoring.rank"), requests, 1e3)

    # core.engine: the public hit/miss counters of every engine that served
    engines = list(tracer.instances["engine.knn"].values())
    hits = sum(engine.cache_hits for engine in engines)
    lookups = hits + sum(engine.cache_misses for engine in engines)
    range_hits = sum(engine.range_cache_hits for engine in engines)
    range_lookups = range_hits + sum(engine.range_cache_misses for engine in engines)
    m["engine.result_cache_hit_rate"] = _per(hits, lookups)
    m["engine.range_cache_hit_rate"] = _per(range_hits, range_lookups)
    served = {0: [0.0, 0], 1: [0.0, 0]}
    for span in spans:
        if span[NAME] == "engine.knn" and span[ATTRS] is not None:
            bucket = served[span[ATTRS]["hit"]]
            bucket[0] += span[END] - span[START]
            bucket[1] += 1
    m["engine.hit_ms"] = _per(served[1][0], served[1][1], 1e3)
    m["engine.miss_ms"] = _per(served[0][0], served[0][1], 1e3)
    m["engine.self_ms"] = _per(self_s("engine.knn"), count("engine.knn"), 1e3)

    # shard.shard / replication
    m["shard.knn_ms"] = _per(total("shard.knn"), count("shard.knn"), 1e3)
    group_reads = count("replication.knn")
    m["replication.self_ms"] = _per(self_s("replication.knn"), group_reads, 1e3)
    m["replication.replica_read_frac"] = _per(
        count("replication.replica_knn"), group_reads
    )
    m["replication.fallbacks_to_primary"] = sum(
        group.fallbacks_to_primary
        for group in tracer.instances["replication.knn"].values()
    )
    m["replication.bootstrap_s"] = setup_s["replication.attach_replica"]

    # serve.transport / serve.protocol
    legs = count("transport.knn")
    m["transport.rtt_overhead_ms"] = _per(
        total("transport.knn") - total("replication.knn"), legs, 1e3
    )
    m["transport.requests_per_query"] = (
        legs + count("transport.may_contain")
    ) / requests
    m["protocol.encode_ms_per_query"] = _per(total("protocol.encode"), requests, 1e3)
    m["protocol.decode_ms_per_query"] = _per(total("protocol.decode"), requests, 1e3)
    m["protocol.bytes_per_query"] = attr("protocol.encode", "bytes") / requests

    # shard.router
    routed = count("router.knn")
    m["router.self_ms"] = _per(self_s("router.knn"), routed, 1e3)
    m["router.lock_wait_ms"] = _per(
        total("router.knn") - attr("router.knn", "in_lock_s"), routed, 1e3
    )
    scattered = sum(s.answer.shards_queried for s in answered)
    pruned = sum(s.answer.shards_pruned for s in answered)
    m["router.shards_queried_per_query"] = scattered / requests
    m["router.pruned_frac"] = _per(pruned, pruned + scattered)
    m["router.scatter_max_over_mean"] = _scatter_skew(spans) if routed else 0.0

    # serve.frontdoor
    waits, wire = _front_door_times(spans, over_tcp=legs > 0)
    m["frontdoor.queue_wait_ms"] = _per(sum(waits), len(waits), 1e3)
    m["frontdoor.shed_overload"] = facts.get("frontdoor.shed_overload", 0)
    m["frontdoor.shed_frac_r3"] = facts.get("frontdoor.shed_frac_r3", 0.0)
    m["frontdoor.tcp_overhead_ms"] = _per(sum(wire), len(wire), 1e3)

    # ingest.pipeline
    for name in ("batches", "mean_batch_size", "shed_retries", "drift_checks", "rebuilds"):
        m[f"ingest.{name}"] = facts.get(f"ingest.{name}", 0)
    m["ingest.commit_ms_per_batch"] = _per(total("router.checkpoint"), batches, 1e3)
    m["ingest.rebuild_s"] = total("router.rebuild_shard")

    # loadgen / trace
    m["loadgen.late_p95_ms"] = facts.get("loadgen.late_p95_ms", 0.0)
    m["loadgen.samples"] = facts["loadgen.samples"]
    traced_p50_ms = loadgen.median(
        s.latency for s in outcome.reported if s.answered
    ) * 1e3
    m["trace.overhead_frac"] = traced_p50_ms / untraced_p50_ms - 1.0
    # 1 - (self time of the layer spans under request roots) / end-to-end.
    # Spans outside any request (ingest commits, protocol calls on a
    # server's event loop) are nobody's share of a request's latency.
    end_to_end = attributed = 0.0
    for span in spans:
        if span[NAME] == "request":
            end_to_end += span[END] - span[START]
        elif request_of(span) is not None:
            attributed += own[id(span)]
    m["trace.unattributed_frac"] = 1.0 - attributed / end_to_end
    return m


def _scatter_skew(spans) -> float:
    """Mean over scattered requests of (slowest leg / mean leg)."""
    legs: dict = defaultdict(list)
    for span in spans:
        if span[NAME] in ("shard.knn", "transport.knn"):
            parent = span[PARENT]
            if parent is not None and parent[NAME] == "router.knn":
                legs[id(parent)].append(span[END] - span[START])
    ratios = [
        max(times) * len(times) / sum(times) for times in legs.values() if len(times) > 1
    ]
    return sum(ratios) / len(ratios) if ratios else 0.0


def _front_door_times(spans, *, over_tcp: bool):
    """Per request: queue wait (submit -> router span start) and, over
    TCP, the client span minus the front door's own submit-to-answer."""
    by_request: dict = defaultdict(dict)
    for span in spans:
        if span[NAME] in ("request", "frontdoor.submit", "router.knn"):
            by_request[request_of(span)].setdefault(span[NAME], span)
    waits, wire = [], []
    for group in by_request.values():
        submit = group.get("frontdoor.submit")
        router = group.get("router.knn")
        root = group.get("request")
        if submit is None or router is None:
            continue
        waits.append(router[START] - submit[START])
        if over_tcp and root is not None:
            wire.append((root[END] - root[START]) - (router[END] - submit[START]))
    return waits, wire
