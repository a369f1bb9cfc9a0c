"""What every spine workload takes and returns."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .measure import median


@dataclass(frozen=True)
class Config:
    """One run: the seed feeds datagen, plans and arrival times."""

    seed: int
    seconds: float          # timed region: run_seconds, or 1 when quick
    trace: bool             # per-layer run (spans on) instead of end-to-end
    quick: bool             # sizes / 10: self-tests only, never compared
    out_dir: Path           # scratch and trace files, inside the checkout


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)   # empty = correct
    digests: dict[str, str] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)  # sizes, counts


def end_to_end(*, setup_s: Sequence[float], wall_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics, defined alike for every workload.  A *rep*
    is one pass over the workload's fixed plan and ``wall_s`` its time;
    ``setup_s`` is the median of the set-ups the run made.  Both are in
    reference-host seconds (:class:`~.measure.HostSpeed`)."""
    return {"setup_s": median(setup_s), "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb}


def per_op_medians(reps: Sequence[Sequence[float]]) -> list[float]:
    """``reps[r][i]`` is op ``i``'s time in rep ``r`` -> the median of
    each op's samples.  Taken per op, a stall costs the op it hit one
    sample, where a median of rep totals would keep every rep that any
    stall touched."""
    return [median(samples) for samples in zip(*reps)]


def write_trace(tracer, cfg: Config, workload: str) -> None:
    """The traced run's spans as a Chrome trace under ``out/``."""
    tracer.write_chrome_trace(
        str(cfg.out_dir / f"trace-{workload}-seed{cfg.seed}.json"))


def canonical(value: Any) -> Any:
    """JSON-ready form of a result for digesting.  Floats keep nine
    significant digits, so a digest survives a last-bit difference in
    summation order between numpy builds but not a changed statistic."""
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.9g}")
    return value if value is None else str(value)


def digest(value: Any) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_number(hexdigest: str) -> float:
    """A digest as a metric value: its first 48 bits, exact in a double."""
    return float(int(hexdigest[:12], 16))
