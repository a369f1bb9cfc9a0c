"""Measuring tools shared by the spine workloads: percentiles, host
fingerprint, memory, the host-speed reference that turns measured seconds
into reference-host seconds, and attribution of time to layers *from
outside* — spans recorded around calls into each module's public functions.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import SpanRecord, SpanTracer, percentile

now = time.perf_counter

#: percentiles a tail may be reported at, highest first
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def pct(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of unsorted samples (the repo's own
    definition, :func:`repro.obs.percentile`)."""
    return float(percentile(sorted(samples), q))


def tail_percentile(samples: Sequence[float],
                    min_beyond: int = 10) -> tuple[float, float]:
    """``(q, value)`` for the highest percentile on the ladder that
    still has at least ``min_beyond`` samples beyond it — a p99 over 200
    samples rests on two of them and is not reported."""
    n = len(samples)
    for q in _TAIL_LADDER:
        rank = math.ceil(round(n * q / 100.0, 6))    # nearest rank
        if n - rank >= min_beyond:
            return q, pct(samples, q)
    return 50.0, pct(samples, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict[str, Any]:
    import numpy
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpus_allowed": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "loadavg_1m": round(os.getloadavg()[0], 2)}


def warn_if_loaded(host: dict[str, Any]) -> None:
    if host["loadavg_1m"] > host["nproc"]:
        print(f"warning: 1-min loadavg {host['loadavg_1m']} exceeds nproc "
              f"{host['nproc']}; timings will be noisy", file=sys.stderr)


# -- host speed ---------------------------------------------------------------

#: what one pass of ``_reference_work`` takes on the reference host (2
#: vCPUs of a Xeon at 2.1 GHz, python 3.11) when nothing else runs there
NOMINAL_REF_S = 0.0170
_REF_LOOP, _REF_N = 60_000, 1 << 16
_REF_KEYS = np.random.default_rng(0).integers(0, 1 << 30, size=_REF_N)
_REF_ORDER = np.random.default_rng(1).permutation(_REF_N)


def _reference_work() -> None:
    """Fixed work that uses nothing of the repo: half of it interpreter
    (ints, a dict, a list: what a traced kernel's loop is made of), half
    numpy (gather, sort, prefix sum, unique: what vectorised kernels and
    trace replay are made of)."""
    seen: dict[int, int] = {}
    visited = []
    for i in range(_REF_LOOP):
        k = (i * 7919) & 1023
        seen[k] = seen.get(k, 0) + i
        visited.append(k)
    for _ in range(2):
        gathered = _REF_KEYS[_REF_ORDER]
        gathered.sort()
        np.cumsum(gathered)
        np.unique(gathered[: _REF_N // 2])


class HostSpeed:
    """Turns measured seconds into *reference-host seconds*.

    The reference host is a shared one: for minutes at a time everything
    on it runs 1.3-1.5x slower, for reasons outside the guest, and no
    statistic over one run's samples removes a stretch longer than the
    run.  So every timed piece of work is bracketed by the fixed
    reference work above, and its time is multiplied by ``factor`` =
    ``NOMINAL_REF_S`` / (what the reference work took right beside it).
    On the quiet reference host the factor is 1 and the result is plain
    seconds; on a slowed or a different host it is what the work would
    have taken there.  The reference work is the benchmark's own and
    fixed, so a change to the repo moves only the numerator."""

    _FRESH_S = 0.002        # a sample this recent brackets the next work

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stamp = -1.0

    def sample(self) -> float:
        """Seconds of one pass, the median of five (a stall in the sample
        itself is dropped); reused if taken a moment ago."""
        if now() - self._stamp > self._FRESH_S:
            times = []
            for _ in range(5):
                t0 = now()
                _reference_work()
                times.append(now() - t0)
            self.samples.append(median(times))
            self._stamp = now()
        return self.samples[-1]

    def factor(self, before: float, after: float) -> float:
        return NOMINAL_REF_S / ((before + after) / 2.0)

    def timed(self, work: Callable[[], Any]) -> tuple[Any, float, float]:
        """-> (what ``work`` returned, measured seconds, factor)."""
        before = self.sample()
        t0 = now()
        out = work()
        seconds = now() - t0
        return out, seconds, self.factor(before, self.sample())

    def speed(self) -> float:
        """Median host speed over the run: 1 is the quiet reference host."""
        return NOMINAL_REF_S / median(self.samples)


# -- layer attribution -------------------------------------------------------

@contextmanager
def instrument(tracer: SpanTracer,
               targets: Sequence[tuple[Any, str, str]]) -> Iterator[None]:
    """Record a span named ``name`` around every call of ``owner.attr``,
    for each ``(owner, attr, name)``; the originals are restored on exit.
    This is how a traced run sees layer boundaries without any span
    inside the program."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, _spanned(getattr(owner, attr), tracer,
                                          name))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _spanned(fn, tracer: SpanTracer, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _self_us(spans: Sequence[SpanRecord]) -> list[float]:
    """Self time of each span, in its order: its duration minus the part
    of it its child spans cover (spans nest per thread)."""
    children_us: dict[int, float] = defaultdict(float)
    by_thread: dict[int, list[SpanRecord]] = defaultdict(list)
    for s in spans:
        by_thread[s.tid].append(s)
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start_us, -s.dur_us))
        stack: list[SpanRecord] = []
        for s in group:
            while stack and stack[-1].start_us + stack[-1].dur_us \
                    <= s.start_us:
                stack.pop()
            if stack:
                children_us[id(stack[-1])] += s.dur_us
            stack.append(s)
    return [s.dur_us - children_us[id(s)] for s in spans]


def self_times(spans: Sequence[SpanRecord]) -> dict[str, float]:
    """Seconds of self time per span name."""
    out: dict[str, float] = defaultdict(float)
    for s, self_us in zip(spans, _self_us(spans)):
        out[s.name] += self_us / 1e6
    return dict(out)


def worst_self_share(spans: Sequence[SpanRecord], name: str) -> float:
    """The largest share of its own duration that any span called
    ``name`` spent outside its children: what attribution left over."""
    return max(self_us / s.dur_us
               for s, self_us in zip(spans, _self_us(spans))
               if s.name == name)


def span_totals(spans: Sequence[SpanRecord]) -> dict[str, float]:
    """Seconds of total (inclusive) time per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur_us / 1e6
    return dict(out)
