"""Multicore execution model: partitioners and the p-core time projection
used as Fig. 12's 16-core CPU baseline."""

from .multicore import (
    BARRIER_CYCLES,
    SERIAL_FRACTION,
    MulticoreResult,
    project_multicore,
)
from .trace_sim import (
    MulticoreCacheResult,
    simulate_multicore,
)
from .partition import (
    Partition,
    block_partition,
    greedy_weighted_partition,
)

__all__ = [
    "BARRIER_CYCLES", "MulticoreCacheResult", "Partition",
    "MulticoreResult", "simulate_multicore",
    "SERIAL_FRACTION", "block_partition",
    "greedy_weighted_partition", "project_multicore",
]
