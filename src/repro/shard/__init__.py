"""Sharded ViTri database: partitioners, shards, scatter-gather router,
and the fault-tolerance layer (policies, breakers, fault injection)."""

from __future__ import annotations

from repro.shard.contract import ShardLike, WritableShard
from repro.shard.faults import (
    FaultInjectingShard,
    ShardFault,
    ShardFaultInjector,
)
from repro.shard.partitioner import (
    HashPartitioner,
    KeyRangePartitioner,
    Partitioner,
    make_partitioner,
    partitioner_from_dict,
)
from repro.shard.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    Coverage,
    FaultPolicy,
    FleetHealth,
    HealthStats,
    InjectedShardError,
    RetryPolicy,
    ScatterError,
    ShardDown,
    ShardTimeout,
)
from repro.shard.router import (
    ScatterStats,
    ShardedKNNResult,
    ShardedVideoDatabase,
)
from repro.shard.shard import Shard

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Coverage",
    "FaultInjectingShard",
    "FaultPolicy",
    "FleetHealth",
    "HashPartitioner",
    "HealthStats",
    "InjectedShardError",
    "KeyRangePartitioner",
    "Partitioner",
    "RetryPolicy",
    "ScatterError",
    "ScatterStats",
    "Shard",
    "ShardDown",
    "ShardFault",
    "ShardFaultInjector",
    "ShardLike",
    "ShardTimeout",
    "ShardedKNNResult",
    "ShardedVideoDatabase",
    "WritableShard",
    "make_partitioner",
    "partitioner_from_dict",
]
