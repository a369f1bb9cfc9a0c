"""Metrics registry: thread-safe labeled counters, gauges, histograms.

The measurement discipline GraphBIG applies to hardware (uniform counters
over every workload, SC'15 §4) applied to this codebase's own runtime:
every subsystem records onto one :class:`MetricsRegistry`, and one
snapshot surface serves the ``stats`` wire op, the Prometheus exposition
(:mod:`~repro.obs.expo`), and delta-based tests.

Three instrument kinds, all label-aware and thread-safe:

* :class:`Counter` — monotonic float; ``inc()`` only.
* :class:`Gauge` — settable point-in-time value, or a *callback* gauge
  read lazily at snapshot time (zero hot-path cost).
* :class:`Histogram` — fixed-boundary buckets (default: the log-scale
  latency ladder :data:`LATENCY_BUCKETS_MS`) with nearest-rank quantile
  estimates read from the cumulative bucket counts.

Registries are cheap; the service builds one per
:class:`~repro.service.server.GraphService` so two servers in one
process never share counters.  A disabled registry
(``MetricsRegistry(enabled=False)``) hands out no-op instruments — the
instrumentation-off baseline is a constructor flag, not a code fork.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Mapping, Sequence

from ..core.errors import MetricError

#: Fixed log-scale latency ladder (milliseconds): a 1-2-5 progression
#: from 100µs to 60s.  Shared by every latency histogram so two
#: subsystems' distributions are comparable bucket-for-bucket.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
    500.0, 1000.0, 2000.0, 5000.0, 10000.0, 30000.0, 60000.0)


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sample list.

    ``p(q)`` is the smallest observed sample such that at least ``q``
    percent of samples are at or below it — an actual observation, never
    an interpolated value.  Empty input yields NaN.
    """
    if not sorted_samples:
        return float("nan")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, -(-len(sorted_samples) * q // 100))   # ceil
    return sorted_samples[int(rank) - 1]


def _check_labels(labelnames: Sequence[str],
                  labels: Mapping[str, str]) -> tuple[str, ...]:
    """Validate a label assignment against the family's declared names;
    returns the label *values* in declared order (the child key)."""
    if set(labels) != set(labelnames):
        raise MetricError(
            f"labels {sorted(labels)} do not match declared "
            f"label names {sorted(labelnames)}")
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """Monotonic counter: goes up, never down."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, "
                              f"got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value; settable, or read from a callback lazily."""

    __slots__ = ("_callback", "_lock", "_value")

    def __init__(self, callback: Callable[[], float] | None = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise MetricError("callback gauge cannot be set directly")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._callback is not None:
            raise MetricError("callback gauge cannot be set directly")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary histogram with nearest-rank quantile estimates.

    Buckets are upper bounds (``observe(v)`` lands in the first bucket
    with ``bound >= v``); an implicit ``+Inf`` bucket catches overflow.
    ``quantile(q)`` returns the upper bound of the bucket holding the
    nearest-rank sample — an upper-bound estimate whose error is the
    bucket width, which is what the log-scale ladder keeps proportional.
    """

    __slots__ = ("_bounds", "_counts", "_count", "_lock", "_sum")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_MS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError("histogram buckets must be distinct")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)    # +1: the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile from the bucket counts.

        NaN when empty; ``+inf`` when the rank falls in the overflow
        bucket (the observation exceeded every boundary).
        """
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return float("nan")
        rank = max(1, -(-total * q // 100))       # ceil
        cumulative = 0
        for i, c in enumerate(counts):
            cumulative += c
            if cumulative >= rank:
                return (self._bounds[i] if i < len(self._bounds)
                        else float("inf"))
        return float("inf")                        # unreachable

    def bucket_counts(self) -> list[tuple[str, int]]:
        """Cumulative counts per upper bound, Prometheus-style (the last
        entry is ``("+Inf", count)``)."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[str, int]] = []
        cumulative = 0
        for bound, c in zip(self._bounds, counts):
            cumulative += c
            out.append((format_number(bound), cumulative))
        out.append(("+Inf", cumulative + counts[-1]))
        return out


class _NoopInstrument:
    """Stand-in handed out by a disabled registry: every write is free."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: Any) -> "_NoopInstrument":
        return self

    value = 0.0
    count = 0
    sum = 0.0

    def quantile(self, q: float) -> float:
        return float("nan")


_NOOP = _NoopInstrument()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric and its per-label-set children.

    With no declared labels the family proxies the single child's write
    surface directly (``family.inc()`` etc.), so unlabeled metrics need
    no ``labels()`` call on the hot path.
    """

    def __init__(self, name: str, kind: str, help_: str,
                 labelnames: Sequence[str], **kwargs: Any):
        self.name = name
        self.kind = kind
        self.help = help_
        self.labelnames = tuple(labelnames)
        self._kwargs = kwargs
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = _KINDS[kind](**kwargs)

    def labels(self, **labels: str):
        # fast path: build the child key directly; fall back to the full
        # validation (with its diagnostic) on any mismatch
        try:
            key = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError:
            key = _check_labels(self.labelnames, labels)
        else:
            if len(labels) != len(self.labelnames):
                key = _check_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, _KINDS[self.kind](**self._kwargs))
        return child

    # -- unlabeled proxy -----------------------------------------------------

    def _sole(self):
        if self.labelnames:
            raise MetricError(f"metric {self.name} has labels "
                              f"{self.labelnames}; call .labels() first")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole().dec(amount)

    def set(self, value: float) -> None:
        self._sole().set(value)

    def observe(self, value: float) -> None:
        self._sole().observe(value)

    @property
    def value(self) -> float:
        return self._sole().value

    @property
    def count(self) -> int:
        return self._sole().count

    @property
    def sum(self) -> float:
        return self._sole().sum

    def quantile(self, q: float) -> float:
        return self._sole().quantile(q)

    def bucket_counts(self) -> list[tuple[str, int]]:
        return self._sole().bucket_counts()

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            items = list(self._children.items())
        samples = []
        for key, child in sorted(items):
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                samples.append({"labels": labels,
                                "count": child.count,
                                "sum": round(child.sum, 6),
                                "buckets": child.bucket_counts()})
            else:
                samples.append({"labels": labels, "value": child.value})
        return {"type": self.kind, "help": self.help, "samples": samples}


class MetricsRegistry:
    """Thread-safe registry of metric families plus lazy collectors.

    ``enabled=False`` turns every instrument into a shared no-op — the
    overhead-measurement baseline.  Collectors are for counts that
    already live elsewhere (the cache tiers' own counters, a request
    count read off a latency histogram): a callable invoked only at
    snapshot time, returning ready-made family snapshots.  A count with
    no other home is a family child, resolved once by its owner.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self._collectors: list[Callable[[], Mapping[str, Any]]] = []

    # -- registration --------------------------------------------------------

    def _family(self, name: str, kind: str, help_: str,
                labels: Sequence[str], **kwargs: Any):
        if not self.enabled:
            return _NOOP
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != tuple(labels):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind}{fam.labelnames}, cannot re-register "
                        f"as {kind}{tuple(labels)}")
                return fam
            fam = Family(name, kind, help_, labels, **kwargs)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help_: str = "",
                labels: Sequence[str] = ()):
        return self._family(name, "counter", help_, labels)

    def gauge(self, name: str, help_: str = "",
              labels: Sequence[str] = (),
              callback: Callable[[], float] | None = None):
        if callback is not None and labels:
            raise MetricError("callback gauges cannot be labeled")
        fam = self._family(name, "gauge", help_, labels,
                           **({"callback": callback} if callback else {}))
        return fam

    def histogram(self, name: str, help_: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS_MS):
        return self._family(name, "histogram", help_, labels,
                            buckets=tuple(buckets))

    def register_collector(
            self, collect: Callable[[], Mapping[str, Any]]) -> None:
        """Register a snapshot-time callable returning
        ``{name: {"type", "help", "samples"}}`` family snapshots."""
        if not self.enabled:
            return
        with self._lock:
            self._collectors.append(collect)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe point-in-time view of every family and collector."""
        with self._lock:
            families = dict(self._families)
            collectors = list(self._collectors)
        out: dict[str, Any] = {name: fam.snapshot()
                               for name, fam in families.items()}
        for collect in collectors:
            for name, fam_snap in collect().items():
                if name in out:
                    out[name]["samples"] = (list(out[name]["samples"])
                                            + list(fam_snap["samples"]))
                else:
                    out[name] = fam_snap
        return out

    @staticmethod
    def delta(before: Mapping[str, Any],
              after: Mapping[str, Any]) -> dict[str, Any]:
        """Counter/histogram growth between two snapshots (gauges take
        the ``after`` value).  Families absent from ``before`` count from
        zero."""
        out: dict[str, Any] = {}
        for name, fam in after.items():
            prev = {_label_key(s): s
                    for s in before.get(name, {}).get("samples", [])}
            samples = []
            for sample in fam["samples"]:
                old = prev.get(_label_key(sample))
                if fam["type"] == "histogram":
                    samples.append({
                        "labels": sample["labels"],
                        "count": sample["count"]
                        - (old["count"] if old else 0),
                        "sum": round(sample["sum"]
                                     - (old["sum"] if old else 0.0), 6)})
                elif fam["type"] == "counter":
                    samples.append({
                        "labels": sample["labels"],
                        "value": sample["value"]
                        - (old["value"] if old else 0.0)})
                else:
                    samples.append(dict(sample))
            out[name] = {"type": fam["type"], "help": fam["help"],
                         "samples": samples}
        return out


def _label_key(sample: Mapping[str, Any]) -> tuple:
    return tuple(sorted(sample.get("labels", {}).items()))


def format_number(value: float) -> str:
    """Canonical number rendering: integral floats without the ``.0``."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def quantile_from_snapshot(sample: Mapping[str, Any], q: float) -> float:
    """Nearest-rank quantile recomputed from a histogram *snapshot*
    sample (the ``stats`` wire payload) — what a remote scraper uses.

    Accepts cumulative ``buckets`` as produced by
    :meth:`Histogram.bucket_counts` (tuples or JSON-decoded lists).
    """
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    total = int(sample.get("count", 0))
    if total == 0:
        return float("nan")
    rank = max(1, -(-total * q // 100))
    for bound, cumulative in sample.get("buckets", ()):
        if cumulative >= rank:
            return float("inf") if bound == "+Inf" else float(bound)
    return float("inf")


def counter_total(snapshot: Mapping[str, Any], name: str,
                  **labels: str) -> float:
    """Sum a family's sample values across label sets matching
    ``labels`` (a convenience for tests and the CLI scraper)."""
    fam = snapshot.get(name)
    if fam is None:
        return 0.0
    total = 0.0
    for sample in fam.get("samples", []):
        slabels = sample.get("labels", {})
        if all(slabels.get(k) == v for k, v in labels.items()):
            total += float(sample.get("value", 0.0))
    return total
