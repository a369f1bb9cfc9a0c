"""Process worker pool: bounded concurrent cell execution with isolation.

The pool turns the PR-1 resilient executor into a serving-side resource:
``size`` concurrent slots, each running one characterization cell through
:func:`~repro.resilience.executor.run_cell_resilient` — so a hung worker
is SIGKILLed at its deadline and a crashed one surfaces as a typed
:class:`~repro.core.errors.CellExecutionError`, without disturbing the
other in-flight slots.

Isolation modes mirror the executor's:

``process``  every cell gets a fresh worker subprocess (real containment;
             the production mode)
``inline``   cells run on the pool thread itself — no subprocess, so the
             dataset spec tier can be shared across requests; chaos faults
             map onto the same typed errors (tests, benchmarks, demos)
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core.errors import CellExecutionError
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry
from ..resilience.cell import Cell
from ..resilience.chaos import ChaosSpec
from ..resilience.executor import ExecutorConfig, run_cell_resilient
from ..resilience.retry import RetryPolicy
from .cache import CacheTiers, dataset_key

log = get_logger("service.pool")

#: Failure kinds that mean the worker process itself died (or was
#: killed) and the next request pays a fresh-worker spawn — the
#: "worker restart" signal a capacity planner watches.
_RESTART_KINDS = frozenset({"crash", "timeout", "oom",
                            "retries-exhausted"})


@dataclass(frozen=True)
class PoolConfig:
    """Knobs for the serving-side worker pool."""

    size: int = 4                    # concurrent execution slots
    isolation: str = "process"       # "process" | "inline"
    timeout_s: float = 300.0
    retries: int = 0                 # service default: fail fast, the
    #                                  client decides whether to retry

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("pool size must be >= 1")
        if self.isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {self.isolation!r}")


class WorkerPool:
    """Bounded pool of isolated cell executors.

    ``run_record`` is the async entry: it parks the awaiting coroutine
    while one of ``size`` pool threads drives the (blocking, possibly
    subprocess-spawning) resilient executor, and returns the flat row
    record — the exact JSON shape the wire and the checkpoint journal
    share.  Completions, failures by kind, worker restarts and slot wall
    time are counted on ``registry``.
    """

    def __init__(self, config: PoolConfig | None = None, *,
                 chaos: ChaosSpec | None = None,
                 caches: CacheTiers,
                 memoize: bool = True,
                 registry: MetricsRegistry | None = None):
        self.config = config or PoolConfig()
        self._executor = ExecutorConfig(
            timeout_s=self.config.timeout_s,
            policy=RetryPolicy(max_retries=self.config.retries),
            isolation=self.config.isolation)
        self.chaos = chaos
        self.caches = caches
        self.memoize = memoize
        self._tpe = ThreadPoolExecutor(
            max_workers=self.config.size,
            thread_name_prefix="repro-pool")
        self.registry = reg = registry if registry is not None \
            else MetricsRegistry()
        self._m_wall = reg.histogram(
            "pool_exec_wall_time_ms",
            "wall-clock time one cell spent on a pool slot (ms), "
            "by outcome", labels=("outcome",))
        self._m_executed = reg.counter(
            "pool_executions_total",
            "cells executed to completion on the pool").labels()
        self._m_restarts = reg.counter(
            "pool_worker_restarts_total",
            "failures that killed the worker "
            "(crash/timeout/oom): next request pays a spawn").labels()
        self._m_failures = reg.counter(
            "pool_failures_total", "failed executions by taxonomy kind",
            labels=("kind",))

    async def run_record(self, cell: Cell) -> dict:
        """Execute one cell on a pool slot; raise typed errors on failure."""
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        try:
            record = await loop.run_in_executor(
                self._tpe, self._run_sync, cell)
        except CellExecutionError as e:
            last = getattr(e, "last", e)
            if last.kind in _RESTART_KINDS or e.kind in _RESTART_KINDS:
                self._m_restarts.inc()
            self._m_failures.labels(kind=last.kind).inc()
            self._m_wall.labels(outcome="failed").observe(
                (time.perf_counter() - t0) * 1e3)
            log.warning("cell %s failed on pool slot: %s: %s",
                        cell.cell_id, last.kind, last,
                        extra={"cell": cell.cell_id, "kind": last.kind})
            raise
        self._m_executed.inc()
        self._m_wall.labels(outcome="ok").observe(
            (time.perf_counter() - t0) * 1e3)
        return record

    def shutdown(self) -> None:
        self._tpe.shutdown(wait=True, cancel_futures=True)

    # -- blocking path (pool thread) ----------------------------------------

    def _run_sync(self, cell: Cell) -> dict:
        """One resilient run.  Inline, the dataset comes through the spec
        tier (a subprocess cannot share specs; a pool thread can), and
        ``memoize=False`` makes the cell recompute."""
        spec = None
        if self.config.isolation == "inline":
            from ..datagen.registry import make as make_dataset

            dkey = dataset_key(cell.dataset, cell.scale, cell.seed)
            spec = self.caches.datasets.get(dkey)
            if spec is None:
                spec = make_dataset(cell.dataset, scale=cell.scale,
                                    seed=cell.seed)
                self.caches.datasets.put(dkey, spec)
        record, _ = run_cell_resilient(cell, config=self._executor,
                                       chaos=self.chaos, spec=spec,
                                       memo=self.memoize)
        return record
