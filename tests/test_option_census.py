"""Option census: every optional parameter names who needs it.

ROADMAP aim 2: "every knob, tier and code path must show a number that
justifies it, or go."  For the classes on the read, write and serving
paths this table lists every *option* — a parameter with a default, so a
value a caller may or may not set — next to the non-test caller that
sets it.  Adding an option fails this test until the table says who
needs it; deleting one fails it until the row goes too.

The same holds one level down and across the process boundary: every
option of a shard-contract method on each of the five implementers
(``CONTRACT``), and every op and request field the two servers read
off the wire (``WIRE``, checked for completeness against the servers'
source).

Two kinds of entry:

* a path — the ``src/``, ``benchmarks/`` or ``examples/`` call site that
  passes the option;
* ``SEAM`` — a testing seam (injected clock, fault injector, the scalar
  oracle, the fault-policy schedule): no production caller sets it,
  tests must be able to; the entry says which tests and why.

There is no third kind.  An option nothing outside ``tests/`` sets either
earns a caller, becomes a named seam, or goes (ROADMAP item 7).
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.serve.frontdoor
import repro.serve.shard_server
from repro.core.database import VideoDatabase
from repro.core.engine import QueryEngine
from repro.core.index import VitriIndex
from repro.ingest import DriftMonitor, IngestPipeline
from repro.replication import ReplicaSet, ReplicaShard
from repro.serve.frontdoor import FrontDoor, NetworkFleet
from repro.serve.transport import RemoteShard
from repro.shard.contract import ShardLike, WritableShard
from repro.shard.faults import FaultInjectingShard
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
PRUNING_SEAM = (
    f"{SEAM}: the shard-level pruning proof ROADMAP item 11 deletes; "
    "nothing routes through it since every knn runs the proof itself, "
    "and benchmarks/e2e/layers.py wraps RemoteShard.may_contain"
)
WAIT_SEAM = (
    f"{SEAM}: tests bound each wait so a wedged fleet fails instead of "
    "hanging; callers outside tests wait on the future"
)

WORKLOADS = "benchmarks/e2e/workloads.py"
DATABASE = "src/repro/core/database.py"
SHARD = "src/repro/shard/shard.py"
ROUTER = "src/repro/shard/router.py"
FRONTDOOR = "src/repro/serve/frontdoor.py"
SHARD_SERVER = "src/repro/serve/shard_server.py"
TRANSPORT = "src/repro/serve/transport.py"
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
            "method": (
                f"benchmarks/bench_fig16_query_composition.py, {CLI} query"
            ),
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
    "QueryEngine.knn": (
        QueryEngine.knn,
        {"out_counters": f"{SHARD} (Shard.knn), {WORKLOADS} (W1)"},
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
    # Raw-frame conveniences: k is required and the naive method is the
    # index's alone.
    "VideoDatabase.query": (VideoDatabase.query, {}),
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
            "fault_policy": RESILIENCE_SEAM,
            "fail_fast": FRONTDOOR,
        },
    ),
    "ShardedVideoDatabase.query": (ShardedVideoDatabase.query, {}),
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
    # Every query shares the one bucket: no client name.
    "FrontDoor.submit": (FrontDoor.submit, {}),
    "FrontDoor.query_sync": (FrontDoor.query_sync, {"timeout": WAIT_SEAM}),
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
    "NetworkFleet.submit": (NetworkFleet.submit, {}),
    "NetworkFleet.query_sync": (NetworkFleet.query_sync, {"timeout": WAIT_SEAM}),
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

#: Options of the shard contract's methods, per implementer: each
#: method the class itself defines (a :class:`FaultInjectingShard`
#: delegates the rest), keyed by method name; a method with no options
#: has no entry.  The naive method and cold-buffer runs left every
#: implementer: they are ``VitriIndex.knn``'s alone.
SUB_QUERY = f"{ROUTER} (every scatter leg; resilience.run_attempts supplies both)"
CONTRACT = {
    Shard: {
        "may_contain": {
            "counters": f"{SHARD} (Shard._ruled_out: the proof's I/O, "
            "charged when it prunes)",
        },
        "knn": {
            "out_counters": f"{ROUTER}, {SHARD_SERVER} knn op",
            "deadline": f"{SUB_QUERY}, {SHARD_SERVER} knn op (budget)",
            "attempt": f"{SUB_QUERY}, {SHARD_SERVER} knn op",
        },
        "key_bounds": {"counters": f"{SHARD} (Shard.may_contain)"},
    },
    # knn forwards **kwargs to the wrapped shard.
    FaultInjectingShard: {},
    # A read-only group: no WritableShard method, so no key_bounds.
    ReplicaSet: {
        "may_contain": {"counters": PRUNING_SEAM},
        # out_counters and deadline ride **kwargs to the chosen copy.
        "knn": {"attempt": f"{SUB_QUERY}, {SHARD_SERVER} knn op"},
    },
    ReplicaShard: {
        "may_contain": {"counters": PRUNING_SEAM},
        "key_bounds": {"counters": PRUNING_SEAM},
    },
    RemoteShard: {
        "may_contain": {"counters": PRUNING_SEAM},
        "knn": {
            "out_counters": ROUTER,
            "deadline": SUB_QUERY,
            "attempt": SUB_QUERY,
        },
    },
}

#: What the two servers read off the wire: per op, the request fields
#: its branch reads through ``params[...]`` or ``params.get(...)``.  An
#: op names its sender; a field names the sender that sets it.
#: ``test_wire_table_matches_the_servers`` parses both modules, so a
#: field or an ``op ==`` branch without a row fails, and so does a row
#: whose field or branch is gone.
WIRE = {
    repro.serve.shard_server: {
        "drain": (
            f"{SHARD_SERVER} ShardServerHandle.drain <- {FRONTDOOR} "
            "NetworkFleet (subprocess mode)",
            {},
        ),
        "status": (f"{TRANSPORT} RemoteShard.status, RemoteShard._refresh", {}),
        "video_ids": (f"{TRANSPORT} RemoteShard.video_ids <- {ROUTER}", {}),
        "may_contain": (PRUNING_SEAM, {}),
        "knn": (
            f"{TRANSPORT} RemoteShard.knn",
            {
                "k": f"{TRANSPORT} RemoteShard.knn",
                "budget": f"{TRANSPORT} RemoteShard.knn (the leg's deadline)",
                "attempt": f"{TRANSPORT} RemoteShard.knn (the dispatch ordinal)",
            },
        ),
    },
    repro.serve.frontdoor: {
        "status": (
            f"{SEAM}: the front door's liveness and admission-stats probe; "
            "test_serve_network.py sends it",
            {},
        ),
        "knn": (
            f"{WORKLOADS} (W2's TCP clients)",
            {"k": f"{WORKLOADS} (W2's TCP clients)"},
        ),
    },
}

#: Rows of ``CENSUS`` and ``CONTRACT``.  The same sixteen signatures held
#: 100 before the read-path audit and 91 after it; ``prune`` went once
#: every sub-query proved its own pruning (90), and the write/serve/
#: replication audit took the 18 options nothing set (72).
#: ``range_cache_size`` turning from blocks into pool pages added none.
#: The router's ``cold``, which only the front door forwarded and nothing
#: set there, went (71).  The read-only constructor ``from_shards`` got
#: its own row (72): its ``clock`` was an option no row listed.  Its
#: answer memo has a fixed size, not an option.  The contract and wire
#: audit counted 29 more (101: the contract's 18 on five implementers,
#: ``QueryEngine.knn``'s three, the raw-frame queries' six,
#: ``FrontDoor.submit``'s ``client`` and ``FrontDoor.query_sync``'s
#: ``timeout``) and deleted the 14 nothing sent: ``cold`` and ``method``
#: on ``Shard.knn``, ``RemoteShard.knn`` and ``QueryEngine.knn``, the
#: router's ``method``, ``client``, and the raw-frame queries' ``k``
#: defaults, ``method`` and the fleet query's fault options.
#: ``NetworkFleet.query_sync``'s ``timeout``, forwarded through
#: ``**kwargs`` before, is spelled out (88).  ``ReplicaSet`` stopped
#: being a ``WritableShard`` (nothing outside the tests wrote to a
#: group), taking its ``key_bounds(counters=)`` with it (87).
EXPECTED_TOTAL = 87


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


def contract_methods(implementer) -> list[str]:
    """The shard-contract methods ``implementer`` defines itself."""
    names = [
        name
        for protocol in (ShardLike, WritableShard)
        for name, member in vars(protocol).items()
        if inspect.isfunction(member)
        and (not name.startswith("_") or name == "__len__")
    ]
    return [
        name
        for name in dict.fromkeys(names)
        if any(name in vars(klass) for klass in implementer.__mro__[:-1])
    ]


@pytest.mark.parametrize(
    "implementer, method",
    [
        (implementer, method)
        for implementer in CONTRACT
        for method in contract_methods(implementer)
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_every_contract_option_names_who_sets_it(implementer, method):
    table = CONTRACT[implementer]
    assert set(table) <= set(contract_methods(implementer))
    rows = table.get(method, {})
    assert options(getattr(implementer, method)) == list(rows), (
        f"{implementer.__name__}.{method}: the options and the contract "
        "census disagree"
    )
    assert all(isinstance(who, str) and who for who in rows.values())


def _op_branch(test: ast.expr) -> str | None:
    """``X`` for an ``op == "X"`` test, else ``None``."""
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "op"
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and isinstance(test.comparators[0], ast.Constant)
    ):
        return test.comparators[0].value
    return None


def _field_read(node: ast.AST) -> str | None:
    """``x`` for ``params["x"]`` or ``params.get("x", ...)``."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "params"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "params"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    return None


def wire_reads(module) -> tuple[set[str], set[tuple[str | None, str]]]:
    """The ops a server module branches on, and the ``(op, field)``
    pairs it reads (``op`` is ``None`` outside every op branch)."""
    ops: set[str] = set()
    fields: set[tuple[str | None, str]] = set()

    def visit(node: ast.AST, op: str | None) -> None:
        if isinstance(node, ast.If) and _op_branch(node.test) is not None:
            branch = _op_branch(node.test)
            ops.add(branch)
            for child in node.body:
                visit(child, branch)
            for child in node.orelse:
                visit(child, op)
            return
        field = _field_read(node)
        if field is not None:
            fields.add((op, field))
        for child in ast.iter_child_nodes(node):
            visit(child, op)

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), None)
    return ops, fields


@pytest.mark.parametrize(
    "module", list(WIRE), ids=lambda module: module.__name__.rsplit(".", 1)[1]
)
def test_wire_table_matches_the_servers(module):
    ops, fields = wire_reads(module)
    table = WIRE[module]
    rows = {(op, field) for op, (_, reads) in table.items() for field in reads}
    unlisted = sorted(ops - set(table)) + sorted(
        f"{op}.{field}" for op, field in fields - rows
    )
    stale = sorted(set(table) - ops) + sorted(
        f"{op}.{field}" for op, field in rows - fields
    )
    assert not unlisted and not stale, (
        f"read off the wire with no census row: {unlisted}; "
        f"census rows the server no longer reads: {stale}"
    )
    for sender, reads in table.values():
        assert isinstance(sender, str) and sender
        assert all(isinstance(who, str) and who for who in reads.values())


def test_options_only_go_down():
    total = sum(len(table) for _, table in CENSUS.values()) + sum(
        len(rows) for table in CONTRACT.values() for rows in table.values()
    )
    assert total == EXPECTED_TOTAL
