"""Simulated machine configurations (paper Table 6, scaled).

The paper's testbed is a 2-socket Intel Xeon E5-2670 (16 cores, 32 KB L1D,
256 KB L2, 20 MB shared L3, 64-entry DTLB) with an Nvidia Tesla K40.
Running million-vertex graphs through a Python trace simulator is
infeasible, and unnecessary: the paper's findings are miss-regime
properties.  ``SCALED_XEON`` shrinks cache capacities and TLB reach by the
same ~50× factor as the default datasets (LDBC 1M → 20k vertices), keeping
line size, page size, associativities and latency ratios hardware-realistic,
so workloads land in the same miss regimes (see DESIGN.md, "Scaled-machine
methodology").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.memmodel import PAGE_SIZE
from .cache import CacheConfig


@dataclass(frozen=True)
class MachineConfig:
    """Full CPU model configuration: memory hierarchy + core parameters."""

    name: str
    l1d: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    icache: CacheConfig
    tlb: CacheConfig                # DTLB: a line is a page, latency a walk
    mem_latency: int = 200          # cycles, LLC miss to DRAM
    issue_width: int = 4            # retire slots per cycle
    mshr: int = 10                  # max outstanding misses (MLP cap)
    flush_penalty: int = 15         # cycles per branch mispredict
    icache_penalty: int = 20        # cycles per ICache miss
    window_instrs: int = 64         # instruction window for MLP grouping
    freq_ghz: float = 2.6
    n_cores: int = 16               # for the multicore model (Fig. 12)
    predictor: str = "gshare"
    predictor_bits: int = 12


#: Default machine for characterization: the paper's Xeon with capacities
#: scaled ~50x down to match the scaled datasets.
SCALED_XEON = MachineConfig(
    name="scaled-xeon-e5",
    l1d=CacheConfig("L1D", size=4 * 1024, assoc=8, line=64, latency=4),
    l2=CacheConfig("L2", size=32 * 1024, assoc=8, line=64, latency=12),
    l3=CacheConfig("L3", size=512 * 1024, assoc=16, line=64, latency=42),
    icache=CacheConfig("L1I", size=32 * 1024, assoc=8, line=64, latency=4),
    tlb=CacheConfig("DTLB", size=32 * PAGE_SIZE, assoc=4, line=PAGE_SIZE,
                    latency=36),
)

#: Tiny machine for fast unit tests (drives high miss rates on toy graphs).
TEST_MACHINE = MachineConfig(
    name="test-machine",
    l1d=CacheConfig("L1D", size=512, assoc=2, line=64, latency=4),
    l2=CacheConfig("L2", size=2 * 1024, assoc=4, line=64, latency=12),
    l3=CacheConfig("L3", size=8 * 1024, assoc=4, line=64, latency=42),
    icache=CacheConfig("L1I", size=8 * 1024, assoc=4, line=64, latency=4),
    tlb=CacheConfig("DTLB", size=8 * PAGE_SIZE, assoc=4, line=PAGE_SIZE,
                    latency=36),
    n_cores=4,
)

#: The paper's actual testbed geometry (Table 6) — documented for
#: reference and usable on small traces; not the characterization default.
PAPER_XEON = MachineConfig(
    name="xeon-e5-2670",
    l1d=CacheConfig("L1D", size=32 * 1024, assoc=8, line=64, latency=4),
    l2=CacheConfig("L2", size=256 * 1024, assoc=8, line=64, latency=12),
    l3=CacheConfig("L3", size=20 * 1024 * 1024, assoc=20, line=64,
                   latency=42),
    icache=CacheConfig("L1I", size=32 * 1024, assoc=8, line=64, latency=4),
    tlb=CacheConfig("DTLB", size=64 * PAGE_SIZE, assoc=4, line=PAGE_SIZE,
                    latency=36),
)


def describe(machine: MachineConfig) -> str:
    """Human-readable machine summary (harness report header)."""
    return (f"{machine.name}: L1D {machine.l1d.size // 1024}K/"
            f"{machine.l1d.assoc}w, L2 {machine.l2.size // 1024}K/"
            f"{machine.l2.assoc}w, L3 {machine.l3.size // 1024}K/"
            f"{machine.l3.assoc}w, "
            f"DTLB {machine.tlb.size // machine.tlb.line}e, "
            f"{machine.n_cores} cores @ {machine.freq_ghz} GHz")
