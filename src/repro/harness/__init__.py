"""Characterization harness: runs the workload x dataset matrix through
the CPU/GPU models and renders every figure's table."""

from .comptype import FIG8_METRICS, breakdown_table, fig8_table
from .export import export_all
from .framework_time import (
    PAPER_AVG_FRAMEWORK_FRACTION,
    average_fraction,
    framework_fractions,
)
from .metrics import CPU_COLUMNS, by_ctype, cpu_table, gpu_table
from .report import (
    FAILURE_COLUMNS,
    bar,
    failure_table,
    format_table,
    matrix_table,
    paper_note,
    to_csv_string,
    write_csv,
)
from .runner import (
    CPU_WORKLOADS,
    DATA_SENSITIVE_WORKLOADS,
    GPU_WORKLOAD_SET,
    Row,
    cache_stats,
    characterize,
    clear_cache,
    default_dataset,
    gpu_speedup,
    run_cpu_workload,
)
from .sensitivity import pivot, sensitivity_rows, spread

__all__ = [
    "CPU_COLUMNS", "CPU_WORKLOADS", "DATA_SENSITIVE_WORKLOADS",
    "FAILURE_COLUMNS", "FIG8_METRICS", "GPU_WORKLOAD_SET",
    "PAPER_AVG_FRAMEWORK_FRACTION",
    "Row", "average_fraction", "bar", "breakdown_table", "by_ctype",
    "cache_stats", "characterize", "clear_cache", "cpu_table",
    "default_dataset",
    "export_all", "failure_table",
    "fig8_table", "format_table", "framework_fractions", "gpu_speedup",
    "gpu_table", "matrix_table", "paper_note", "pivot",
    "run_cpu_workload",
    "sensitivity_rows", "spread", "to_csv_string", "write_csv",
]
