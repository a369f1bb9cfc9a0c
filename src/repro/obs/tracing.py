"""Span tracing: nested timed regions exported as Chrome Trace Event JSON.

A :class:`SpanTracer` records context-manager spans — name, wall time,
thread, nesting depth, parent, free-form args — with an injectable
monotonic clock so tests assert exact durations without sleeping.  The
export is the Chrome Trace Event format (complete ``"X"`` events plus
thread-name metadata), loadable directly in ``about:tracing`` /
``chrome://tracing`` or Perfetto: drop the file produced by
``repro matrix --trace-out trace.json`` onto the UI and read where a
sweep's wall-time went, cell by cell, retry by retry.

Nesting follows the execution context, not the thread: the open-span
stack is a :class:`contextvars.ContextVar`, so a span opened on a
load-generator worker nests under that worker's spans only, and two
requests interleaved on one event loop (each its own task, hence its own
context) never nest under each other.  Failed spans are tagged — a span
whose body raises records the exception type in its args (``error``)
before re-raising, which is how a matrix cell's failed attempts show up
red-flagged in the trace.

A process-wide tracer can be installed with :func:`set_global_tracer`;
instrumented call sites use :func:`maybe_span`, which is a no-op when no
tracer is active — tracing off costs one ``None`` check.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Chrome Trace Event phase tags used by the exporter.
_PHASE_COMPLETE = "X"
_PHASE_METADATA = "M"


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    start_us: float              # microseconds since the tracer's epoch
    dur_us: float
    tid: int                     # dense per-tracer thread id
    depth: int                   # 0 = top-level on its thread
    parent: str | None
    args: dict[str, Any] = field(default_factory=dict)


class SpanTracer:
    """Collects spans; thread-safe; clock-injectable.

    ``clock`` must be monotonic and return seconds.  Spans are kept in
    completion order; Chrome's viewer orders by timestamp, so no sort is
    needed at export.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 process_name: str = "repro"):
        self._clock = clock
        self._epoch = clock()
        self.process_name = process_name
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        # the names of the spans open in the current context, innermost
        # last: a new thread starts empty, a task from its creator's
        self._stack: contextvars.ContextVar[tuple[str, ...]] = \
            contextvars.ContextVar(f"span_stack_{id(self)}", default=())
        self._tids: dict[int, int] = {}          # ident -> dense id
        self._thread_names: dict[int, str] = {}  # dense id -> name

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = len(self._tids)
                self._tids[ident] = tid
                self._thread_names[tid] = threading.current_thread().name
            return tid

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Time a region.  Yields the args dict — the body may annotate
        it (e.g. record how a request was served) before the span closes.
        A raising body tags the span with ``error=<exception type>``."""
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        depth = len(stack)
        token = self._stack.set(stack + (name,))
        span_args = dict(args)
        start = self._clock()
        try:
            yield span_args
        except BaseException as e:
            span_args["error"] = type(e).__name__
            raise
        finally:
            end = self._clock()
            self._stack.reset(token)
            record = SpanRecord(
                name=name,
                start_us=(start - self._epoch) * 1e6,
                dur_us=(end - start) * 1e6,
                tid=self._tid(),
                depth=depth,
                parent=parent,
                args=span_args)
            with self._lock:
                self.spans.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome Trace Event JSON object (``traceEvents`` array of
        complete events plus process/thread name metadata)."""
        with self._lock:
            spans = list(self.spans)
            thread_names = dict(self._thread_names)
        events: list[dict[str, Any]] = [{
            "ph": _PHASE_METADATA, "name": "process_name", "pid": 0,
            "tid": 0, "args": {"name": self.process_name}}]
        for tid, tname in sorted(thread_names.items()):
            events.append({"ph": _PHASE_METADATA, "name": "thread_name",
                           "pid": 0, "tid": tid, "args": {"name": tname}})
        for s in spans:
            args = dict(s.args)
            if s.parent is not None:
                args.setdefault("parent", s.parent)
            events.append({
                "ph": _PHASE_COMPLETE,
                "name": s.name,
                "cat": "repro",
                "pid": 0,
                "tid": s.tid,
                "ts": round(s.start_us, 3),
                "dur": round(s.dur_us, 3),
                "args": args})
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1, default=str)

    # -- queries (tests, reports) --------------------------------------------

    def find(self, prefix: str) -> list[SpanRecord]:
        """Spans whose name starts with ``prefix``, completion order."""
        with self._lock:
            return [s for s in self.spans if s.name.startswith(prefix)]

    def children_of(self, parent_name: str) -> list[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.parent == parent_name]


# -- process-wide tracer -----------------------------------------------------

_global_tracer: SpanTracer | None = None
_global_lock = threading.Lock()


def set_global_tracer(tracer: SpanTracer | None) -> None:
    """Install (or clear, with ``None``) the process-wide tracer that
    :func:`maybe_span` call sites fall back to."""
    global _global_tracer
    with _global_lock:
        _global_tracer = tracer


def get_global_tracer() -> SpanTracer | None:
    return _global_tracer


@contextmanager
def maybe_span(tracer: SpanTracer | None, name: str,
               **args: Any) -> Iterator[dict[str, Any]]:
    """Span on ``tracer`` (or the global tracer if ``tracer`` is None);
    a cheap no-op when neither is active."""
    active = tracer if tracer is not None else _global_tracer
    if active is None:
        yield args
        return
    with active.span(name, **args) as span_args:
        yield span_args
