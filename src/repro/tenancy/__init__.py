"""Multi-tenant quality-of-service: identity and isolation.

GraphBIG's framing is industrial — real graph deployments multiplex many
workloads with wildly different cost profiles onto shared infrastructure
(SC'15 §2: the use-case survey spans interactive queries next to batch
analytics).  This package is the layer that keeps those co-tenants from
hurting each other:

* :mod:`~repro.tenancy.qos` — per-tenant admission quotas (token
  buckets), weighted-fair scheduling over the service's execution slots,
  and bounded-share row-cache partitions, all behind one
  :class:`~repro.tenancy.qos.TenantGovernor`.
"""

from .qos import (
    DEFAULT_TENANT,
    FairGate,
    QosConfig,
    TenantGovernor,
    TenantPolicy,
    TokenBucket,
)

__all__ = [
    "DEFAULT_TENANT",
    "FairGate",
    "QosConfig",
    "TenantGovernor",
    "TenantPolicy",
    "TokenBucket",
]
