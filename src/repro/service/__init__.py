"""Graph-query service: serve the characterization machinery as traffic.

GraphBIG frames its workloads as the compute tier of industrial graph
services; this package is the serving path — a long-lived asyncio TCP
server that accepts JSON-lines requests over any registered workload x
dataset cell and answers with the same flat records the batch checkpoint
journal uses:

* :mod:`~repro.service.protocol` — versioned request/response framing
  with typed error payloads (the :mod:`repro.core.errors` taxonomy on
  the wire)
* :mod:`~repro.service.cache` — bounded LRU tiers for generated
  datasets and characterization rows (also the batch harness's memo)
* :mod:`~repro.service.pool` — bounded worker pool over the resilient
  subprocess executor: a hung or crashed worker fails its own request
  only
* :mod:`~repro.service.scheduler` — admission control (backpressure) and
  micro-batching (identical in-flight requests coalesce into one
  execution)
* :mod:`~repro.service.server` — the TCP front end and the threaded
  serving harness
* :mod:`~repro.service.client` — blocking client with typed remote
  errors
* :mod:`~repro.service.loadgen` — closed-loop load generator reporting
  throughput and p50/p95/p99 latency
"""

from ..core.errors import (
    AdmissionRejected,
    BadRequest,
    ProtocolError,
    RemoteError,
    ServiceError,
)
from .cache import CacheStats, CacheTiers, LRUCache, dataset_key
from .client import DEFAULT_PORT, ServiceClient
from .loadgen import (
    CONNECTION_FAILURE_KIND,
    LoadGenerator,
    LoadReport,
    Query,
    percentile,
    schedule,
    workload_mix,
)
from .pool import PoolConfig, WorkerPool
from .protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    Request,
    decode_frame,
    encode_error,
    encode_request,
    encode_response,
    error_to_payload,
    parse_request,
    payload_to_error,
)
from .scheduler import Scheduler
from .server import (
    GraphService,
    ServiceThread,
    cell_from_params,
    datasets_payload,
    workloads_payload,
)

__all__ = [
    "AdmissionRejected", "BadRequest", "CONNECTION_FAILURE_KIND",
    "CacheStats", "CacheTiers",
    "DEFAULT_PORT", "GraphService", "LRUCache", "LoadGenerator",
    "LoadReport", "MAX_FRAME_BYTES", "OPS", "PROTOCOL_VERSION",
    "PoolConfig", "ProtocolError", "Query", "RemoteError",
    "Request", "Scheduler",
    "ServiceClient", "ServiceError", "ServiceThread", "WorkerPool",
    "cell_from_params", "dataset_key", "datasets_payload", "decode_frame",
    "encode_error", "encode_request", "encode_response",
    "error_to_payload", "parse_request", "payload_to_error", "percentile",
    "schedule", "workload_mix", "workloads_payload",
]
