"""Observability: metrics, span tracing, structured logs, exposition.

GraphBIG's contribution is systematic *measurement* of graph workloads;
this package applies the same discipline to the repro system's own
runtime.  Dependency-free, four modules:

* :mod:`~repro.obs.metrics` — thread-safe registry of labeled
  Counter/Gauge/Histogram instruments with the fixed log-scale latency
  ladder, nearest-rank quantiles, and snapshot/delta reads
* :mod:`~repro.obs.tracing` — context-manager spans (injectable clock,
  per-thread nesting) exported as Chrome Trace Event JSON for
  ``about:tracing`` / Perfetto
* :mod:`~repro.obs.logs` — structured per-subsystem logging with an
  optional JSON-lines formatter, wired to the CLI's
  ``--log-level`` / ``--log-json``
* :mod:`~repro.obs.expo` — Prometheus text exposition and JSON
  rendering over registry snapshots (the ``stats`` wire payload)

The service binds every layer (server, scheduler, pool, cache tiers)
onto one registry per :class:`~repro.service.server.GraphService`; the
batch paths (matrix sweep, harness runner) record spans onto a tracer
passed down from ``--trace-out``.
"""

from ..core.errors import MetricError
from .expo import escape_label_value, render_prometheus
from .logs import JsonFormatter, get_logger, setup_logging
from .metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_total,
    format_number,
    percentile,
    quantile_from_snapshot,
)
from .tracing import (
    SpanRecord,
    SpanTracer,
    maybe_span,
    set_global_tracer,
)

__all__ = [
    "Counter", "Family", "Gauge", "Histogram", "JsonFormatter",
    "LATENCY_BUCKETS_MS", "MetricError", "MetricsRegistry", "SpanRecord",
    "SpanTracer", "counter_total", "escape_label_value", "format_number",
    "get_logger", "maybe_span", "percentile",
    "quantile_from_snapshot", "render_prometheus",
    "set_global_tracer", "setup_logging",
]
