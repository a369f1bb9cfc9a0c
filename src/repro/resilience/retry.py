"""Bounded retries with exponential backoff and deterministic jitter.

Backoff delays are derived from ``(policy.seed, cell_id, attempt)`` via a
string-seeded :class:`random.Random`, so a schedule is reproducible across
processes and runs (string seeding hashes the bytes, independent of
``PYTHONHASHSEED``) while still de-correlating cells — two cells that fail
together do not retry in lockstep.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from ..core.errors import CellExecutionError, RetriesExhausted


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a failing cell, and how long to wait."""

    max_retries: int = 2         # re-runs after the first attempt
    base_delay: float = 0.1      # seconds before the first retry
    factor: float = 2.0          # exponential growth per retry
    max_delay: float = 30.0      # cap on any single delay
    jitter: float = 0.5          # +/- fraction of the delay randomized
    seed: int = 0                # jitter RNG seed (determinism)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int, cell_id: str = "") -> float:
        """Delay after failed ``attempt`` (1-based), jittered, in seconds."""
        base = min(self.base_delay * self.factor ** (attempt - 1),
                   self.max_delay)
        if not self.jitter:
            return base
        rng = random.Random(f"{self.seed}:{cell_id}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


def run_with_retries(attempt_fn: Callable[[int], object],
                     policy: RetryPolicy, cell_id: str, *,
                     sleep: Callable[[float], None] = time.sleep):
    """Call ``attempt_fn(attempt)`` until it succeeds or attempts run out.

    Only :class:`CellExecutionError` subclasses are retried — anything else
    is a harness bug and propagates immediately.  Returns
    ``(result, attempts)``; raises :class:`RetriesExhausted` (carrying the
    last failure) when the budget is spent.  ``sleep`` is injectable so
    tests can record the backoff schedule instead of waiting it out.
    """
    last: CellExecutionError | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return attempt_fn(attempt), attempt
        except RetriesExhausted:
            raise
        except CellExecutionError as e:
            last = e
            if attempt < policy.max_attempts:
                sleep(policy.delay(attempt, cell_id))
    assert last is not None
    raise RetriesExhausted(cell_id, policy.max_attempts, last)
