"""Sharded graph-service cluster.

The scale-out layer over :mod:`repro.service`: a consistent-hash ring
places dataset keys on shards (:mod:`~repro.cluster.ring`), each shard
is a full single-node service owning its slice
(:mod:`~repro.cluster.node`), one health machine per shard decides
ejection, readmission and failover order
(:mod:`~repro.cluster.replica`), and an asyncio router speaks the
unchanged JSON-lines protocol in front — routing keyed ops,
scatter-gathering fan-out ops, failing over on transport faults
(:mod:`~repro.cluster.router`).  :mod:`~repro.cluster.topology` holds
the static spec plus in-process and multi-process boot harnesses.

The request-reliability layer lives across :mod:`~repro.cluster.replica`
(the per-shard :class:`ShardHealth` circuit, the retry budget) and
:mod:`~repro.cluster.router` (deadline propagation, hedging, degraded
serving); its knobs are one :class:`ReliabilityConfig`.
"""

from ..core.errors import (
    CircuitOpen,
    DeadlineExceeded,
    RetryBudgetExhausted,
    ShardUnavailable,
    WrongShard,
)
from .node import ShardService
from .replica import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ReplicaTracker,
    RetryBudget,
    ShardHealth,
)
from .ring import (
    DEFAULT_VNODES,
    HashRing,
    RebalancePlan,
    cell_routing_key,
    plan_rebalance,
    stable_hash,
    synthetic_keys,
)
from .router import (
    MAX_BATCH_ENTRIES,
    ROUTER_PORT,
    ReliabilityConfig,
    Router,
    ShardAddress,
)
from .topology import (
    ClusterProcesses,
    ClusterSpec,
    ClusterThread,
    ShardProcess,
    default_shard_factory,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "DEFAULT_VNODES",
    "MAX_BATCH_ENTRIES",
    "ROUTER_PORT",
    "CircuitOpen",
    "ClusterProcesses",
    "ClusterSpec",
    "ClusterThread",
    "DeadlineExceeded",
    "HashRing",
    "RebalancePlan",
    "ReliabilityConfig",
    "ReplicaTracker",
    "RetryBudget",
    "RetryBudgetExhausted",
    "Router",
    "ShardAddress",
    "ShardHealth",
    "ShardProcess",
    "ShardService",
    "ShardUnavailable",
    "WrongShard",
    "cell_routing_key",
    "default_shard_factory",
    "plan_rebalance",
    "stable_hash",
    "synthetic_keys",
]
