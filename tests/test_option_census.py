"""Option census: every optional parameter names who needs it.

ROADMAP aim 2: "every knob, tier and code path must show a number that
justifies it, or go."  For the classes on the read, write and serving
paths this table lists every *option* — a parameter with a default, so a
value a caller may or may not set — next to the non-test caller that
sets it.  Adding an option fails this test until the table says who
needs it; deleting one fails it until the row goes too.

Two kinds of entry:

* a path — the ``src/``, ``benchmarks/`` or ``examples/`` call site that
  passes the option;
* ``SEAM`` — a testing seam (injected clock, fault injector, the scalar
  oracle, the fault-policy schedule): no production caller sets it,
  tests must be able to; the entry says which tests and why.

There is no third kind.  An option nothing outside ``tests/`` sets either
earns a caller, becomes a named seam, or goes (ROADMAP item 7).
"""

import inspect

import pytest

from repro.core.database import VideoDatabase
from repro.core.engine import QueryEngine
from repro.core.index import VitriIndex
from repro.ingest import DriftMonitor, IngestPipeline
from repro.replication import ReplicaSet, ReplicaShard
from repro.serve.frontdoor import FrontDoor, NetworkFleet
from repro.shard.resilience import FaultPolicy
from repro.shard.router import ShardedVideoDatabase
from repro.shard.shard import Shard
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

SEAM = "testing seam"
RESILIENCE_SEAM = (
    f"{SEAM}: resilience tests drive retries, deadlines and breaker trips "
    "on a VirtualClock; production runs FaultPolicy()"
)

WORKLOADS = "benchmarks/e2e/workloads.py"
DATABASE = "src/repro/core/database.py"
SHARD = "src/repro/shard/shard.py"
ROUTER = "src/repro/shard/router.py"
FRONTDOOR = "src/repro/serve/frontdoor.py"
CLI = "src/repro/cli.py"

CENSUS = {
    "Pager": (
        Pager,
        {
            "path": f"{DATABASE} (index.btree, index.heap)",
            "wal": f"{DATABASE} (the directory's shared log)",
            "wal_file_id": DATABASE,
            "fault_injector": SEAM,
        },
    ),
    "BufferPool": (
        BufferPool,
        {"capacity": f"{DATABASE}, src/repro/core/engine.py (via with_spill)"},
    ),
    # The spill segment's size is required, not an option: the engine's
    # range_cache_size is what a caller leaves out.
    "BufferPool.with_spill": (BufferPool.with_spill, {}),
    "VitriIndex.build": (
        VitriIndex.build,
        {
            "reference": f"{DATABASE}, benchmarks/_common.py",
            "btree_path": f"{WORKLOADS} (W1's file-backed index)",
            "heap_path": f"{WORKLOADS} (W1's file-backed index)",
            "buffer_capacity": WORKLOADS,
            "btree_pool": DATABASE,
            "heap_pool": DATABASE,
        },
    ),
    "VitriIndex.knn": (
        VitriIndex.knn,
        {
            "method": f"{DATABASE} query, benchmarks/bench_fig16_query_composition.py",
            "impl": f"{SEAM} (the scalar oracle)",
            "cold": "benchmarks/bench_ablation_buffer.py",
            "out_counters": (
                f"{SEAM}: the scalar-oracle and golden cost-signature "
                "comparisons (test_vectorized_equivalence.py, "
                "test_golden_rankings.py)"
            ),
        },
    ),
    "QueryEngine": (
        QueryEngine,
        {
            "buffer_capacity": f"{SHARD}, {WORKLOADS}",
            "cache_size": f"{SHARD}, {WORKLOADS}",
            "range_cache_size": (
                f"{SHARD}, {WORKLOADS}: pages in the pool's spill segment "
                "(BufferPool.with_spill), the L2 page tier"
            ),
        },
    ),
    "VideoDatabase": (
        VideoDatabase,
        {
            "epsilon": SHARD,
            "reference": SHARD,
            "summarize_seed": SHARD,
            "path": f"{SHARD}, src/repro/ingest/cutover.py",
            "buffer_capacity": f"{SHARD}, src/repro/ingest/cutover.py",
            "fault_injector": SEAM,
        },
    ),
    "Shard": (
        Shard,
        {
            "reference": ROUTER,
            "summarize_seed": ROUTER,
            "path": ROUTER,
            "buffer_capacity": ROUTER,
            "cache_size": ROUTER,
            "range_cache_size": (
                f"{FRONTDOOR}, src/repro/serve/shard_server.py: the engine's "
                "page-tier size, forwarded"
            ),
            "fault_injector": SEAM,
        },
    ),
    "ShardedVideoDatabase": (
        ShardedVideoDatabase,
        {
            "epsilon": WORKLOADS,
            "partitioner": WORKLOADS,
            "num_shards": WORKLOADS,
            "path": f"{WORKLOADS}, {CLI} check",
            "buffer_capacity": WORKLOADS,
            "cache_size": WORKLOADS,
            "fault_injector": SEAM,
            "clock": SEAM,
        },
    ),
    "ShardedVideoDatabase.from_shards": (
        ShardedVideoDatabase.from_shards,
        {
            "clock": f"{FRONTDOOR} NetworkFleet (the fleet's shared clock)",
        },
    ),
    # No options; the row stays so that adding one fails here.
    "ShardedVideoDatabase.rebuild_shard": (
        ShardedVideoDatabase.rebuild_shard,
        {},
    ),
    "ShardedVideoDatabase.knn": (
        ShardedVideoDatabase.knn,
        {
            "method": (
                f"{SEAM}: test_shard_router.py::TestExactness::"
                "test_naive_method_matches_oracle runs the naive method "
                "across a fleet"
            ),
            "fault_policy": RESILIENCE_SEAM,
            "fail_fast": FRONTDOOR,
        },
    ),
    "ReplicaShard": (
        ReplicaShard,
        {
            "buffer_capacity": FRONTDOOR,
            "cache_size": FRONTDOOR,
            "range_cache_size": f"{FRONTDOOR}: the engine's page-tier size, forwarded",
        },
    ),
    # No options left; the row stays so that adding one fails here.
    "ReplicaSet": (ReplicaSet, {}),
    "FaultPolicy": (
        FaultPolicy,
        {
            "retry": RESILIENCE_SEAM,
            "breaker": RESILIENCE_SEAM,
            "deadline": RESILIENCE_SEAM,
        },
    ),
    "FrontDoor": (
        FrontDoor,
        {
            "max_queue": f"{FRONTDOOR} NetworkFleet <- {CLI} serve",
            "workers": f"{FRONTDOOR} NetworkFleet <- {CLI} serve",
            "rate": f"{FRONTDOOR} NetworkFleet <- {CLI} serve",
            "burst": f"{FRONTDOOR} NetworkFleet <- {CLI} serve",
            "clock": SEAM,
            "drain_timeout": f"{FRONTDOOR} NetworkFleet <- {CLI} serve",
        },
    ),
    "NetworkFleet": (
        NetworkFleet,
        {
            "mode": f"{WORKLOADS}, {CLI} serve",
            "clock": SEAM,
            "cache_size": WORKLOADS,
            "buffer_capacity": WORKLOADS,
            "replicas_per_shard": WORKLOADS,
            "range_cache_size": f"{WORKLOADS} (256 pages per served copy on W2)",
            "max_queue": f"{CLI} serve",
            "workers": f"{CLI} serve",
            "rate": f"{CLI} serve",
            "burst": f"{CLI} serve",
            "drain_timeout": f"{CLI} serve",
        },
    ),
    "IngestPipeline": (
        IngestPipeline,
        {
            "batch_size": WORKLOADS,
            "max_queue": WORKLOADS,
            "clock": SEAM,
            "drift": WORKLOADS,
        },
    ),
    "DriftMonitor": (
        DriftMonitor,
        {
            "max_angle_degrees": WORKLOADS,
            "check_every": WORKLOADS,
        },
    ),
}

#: Rows above.  The same sixteen signatures held 100 before the read-path
#: audit and 91 after it; ``prune`` went once every sub-query proved its
#: own pruning (90), and the write/serve/replication audit took the 18
#: options nothing set (72).  ``range_cache_size`` turning from blocks
#: into pool pages added none.  The router's ``cold``, which only the
#: front door forwarded and nothing set there, went (71).  The read-only
#: constructor ``from_shards`` got its own row (72): its ``clock`` was an
#: option no row listed.  Its answer memo has a fixed size, not an option.
EXPECTED_TOTAL = 72


def options(callable_) -> list[str]:
    """Names of the parameters a caller may leave out."""
    return [
        name
        for name, parameter in inspect.signature(callable_).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_every_option_names_who_sets_it(name):
    target, table = CENSUS[name]
    assert options(target) == list(table), (
        f"{name}: the signature's options and the census disagree — a new "
        "option needs a row naming the non-test caller that sets it, a "
        "deleted one loses its row"
    )
    assert all(isinstance(who, str) and who for who in table.values())


def test_options_only_go_down():
    total = sum(len(table) for _, table in CENSUS.values())
    assert total == EXPECTED_TOTAL
