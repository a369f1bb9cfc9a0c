"""Trace-driven CPU microarchitecture model: caches, TLB, branch
prediction, ICache, and top-down cycle accounting (the perf-counter
substitute for the paper's CPU characterization)."""

from .branch import BranchStats, simulate_branches
from .cache import (
    CacheConfig,
    CacheStats,
    level_miss_idx,
    line_ids,
    lru_miss_idx,
)
from .cpu import SERIAL_REGIONS, CPUMetrics, CPUModel, CycleBreakdown
from .icache import ICache, code_footprint, deep_stack_regions
from .machine import PAPER_XEON, SCALED_XEON, TEST_MACHINE, MachineConfig, describe
from .replay import HierarchyResult, ReplayResult, replay

__all__ = [
    "BranchStats",
    "CacheConfig", "CacheStats", "CPUMetrics", "CPUModel",
    "CycleBreakdown", "HierarchyResult", "ICache",
    "MachineConfig", "ReplayResult", "level_miss_idx", "line_ids",
    "lru_miss_idx", "replay", "PAPER_XEON", "SCALED_XEON", "SERIAL_REGIONS", "TEST_MACHINE",
    "code_footprint", "deep_stack_regions", "describe", "simulate_branches",
]
