"""Characterization harness: runs the workload x dataset matrix through
the CPU/GPU models and renders every figure's table."""

from .comptype import FIG8_METRICS, breakdown_table, fig8_table
from .export import export_all
from .framework_time import average_fraction, framework_fractions
from .metrics import CPU_COLUMNS, by_ctype, cpu_table, gpu_table
from .report import (
    FAILURE_COLUMNS,
    failure_table,
    format_table,
    matrix_table,
    write_csv,
)
from .runner import (
    CPU_WORKLOADS,
    GPU_WORKLOAD_SET,
    Row,
    cache_stats,
    characterize,
    clear_cache,
    gpu_speedup,
    run_cpu_workload,
)

__all__ = [
    "CPU_COLUMNS", "CPU_WORKLOADS",
    "FAILURE_COLUMNS", "FIG8_METRICS", "GPU_WORKLOAD_SET",
    "Row", "average_fraction", "breakdown_table", "by_ctype",
    "cache_stats", "characterize", "clear_cache", "cpu_table",
    "export_all", "failure_table",
    "fig8_table", "format_table", "framework_fractions", "gpu_speedup",
    "gpu_table", "matrix_table", "run_cpu_workload", "write_csv",
]
