"""Top-down CPU cycle-accounting model.

Combines the memory hierarchy, DTLB, branch predictor and ICache results
into the four top-down categories the paper's Fig. 5 reports — Frontend,
Bad Speculation, Retiring, Backend — plus IPC and the per-component metrics
of Figs. 6–9.

Memory-level parallelism: misses are grouped into windows of
``machine.window_instrs`` retired instructions.  Within a window,
independent misses overlap up to the MSHR count, but misses issued inside a
*serial* framework region (the pointer-chasing linked-list walks:
traverse-neighbours, find-edge, delete-edge/vertex) form dependence chains —
a chain of k misses contributes only one unit of overlap.  This is what
makes CompStruct traversals latency-bound (backend > 80–90 % in Fig. 5)
while the vertex-scan workloads (DCentr) keep high MLP despite their huge
MPKI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import trace as T
from ..core.trace import FrozenTrace
from .branch import BranchStats, simulate_branches
from .hierarchy import HierarchyResult
from .icache import ICache, ICacheStats
from .machine import SCALED_XEON, MachineConfig
from .replay import replay
from .tlb import TLBStats

#: Framework regions whose loads form dependence chains (pointer chasing).
SERIAL_REGIONS = frozenset({T.R_NEIGHBORS, T.R_FIND_EDGE,
                            T.R_DELETE_EDGE, T.R_DELETE_VERTEX})


@dataclass
class CycleBreakdown:
    """Cycles per top-down category (Fig. 5)."""

    frontend: float
    bad_speculation: float
    retiring: float
    backend: float

    @property
    def total(self) -> float:
        return (self.frontend + self.bad_speculation
                + self.retiring + self.backend)

    def fractions(self) -> dict[str, float]:
        t = self.total or 1.0
        return {"Frontend": self.frontend / t,
                "BadSpeculation": self.bad_speculation / t,
                "Retiring": self.retiring / t,
                "Backend": self.backend / t}


@dataclass
class CPUMetrics:
    """Complete per-run CPU characterization (the ~30-counter equivalent)."""

    n_instrs: int
    cycles: float
    breakdown: CycleBreakdown
    hierarchy: HierarchyResult
    dtlb: TLBStats
    branch: BranchStats
    icache: ICacheStats
    framework_fraction: float
    mlp: float                     # average achieved memory-level parallelism
    dtlb_walk_cycles_effective: float = 0.0
    footprint_bytes: int = 0

    @property
    def ipc(self) -> float:
        return self.n_instrs / self.cycles if self.cycles else 0.0

    @property
    def dtlb_penalty(self) -> float:
        """DTLB walk cycles (overlap-adjusted) as a fraction of total
        cycles (Fig. 6)."""
        if not self.cycles:
            return 0.0
        return self.dtlb_walk_cycles_effective / self.cycles

    def mpki(self) -> dict[str, float]:
        return self.hierarchy.mpki(self.n_instrs)

    def summary(self) -> dict[str, float]:
        """Flat metric dict (harness CSV rows)."""
        m = self.mpki()
        hr = self.hierarchy.hit_rates()
        out = {
            "instrs": float(self.n_instrs),
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l1d_mpki": m["L1D"], "l2_mpki": m["L2"], "l3_mpki": m["L3"],
            "l1d_hit": hr["L1D"], "l2_hit": hr["L2"], "l3_hit": hr["L3"],
            "dtlb_penalty": self.dtlb_penalty,
            "dtlb_mpki": self.dtlb.mpki(self.n_instrs),
            "branch_miss_rate": self.branch.miss_rate,
            "icache_mpki": self.icache.mpki(self.n_instrs),
            "framework_fraction": self.framework_fraction,
            "mlp": self.mlp,
        }
        out.update({f"cycles_{k.lower()}": v
                    for k, v in self.breakdown.fractions().items()})
        return out


def _memory_stall_cycles(trace: FrozenTrace, hier: HierarchyResult,
                         machine: MachineConfig) -> tuple[float, float]:
    """Return (stall_cycles, average MLP) for the L1-miss stream."""
    miss = np.flatnonzero(hier.l1_miss)
    if not len(miss):
        return 0.0, 1.0
    lat = hier.latency[miss].astype(np.float64)
    win = (trace.iat[miss] // np.uint64(machine.window_instrs)).astype(np.int64)
    serial = np.isin(trace.acc_region[miss],
                     np.fromiter(SERIAL_REGIONS, dtype=np.uint32))
    # A "chain" = one unit of exploitable parallelism.  Parallel misses are
    # each their own chain; a run of consecutive serial misses in the same
    # window is a single chain.
    prev_serial = np.concatenate(([False], serial[:-1]))
    prev_win = np.concatenate(([-1], win[:-1]))
    chain_start = ~serial | ~prev_serial | (win != prev_win)
    # compact window ids
    uwin, win_idx = np.unique(win, return_inverse=True)
    lat_per_win = np.bincount(win_idx, weights=lat)
    chains_per_win = np.bincount(win_idx, weights=chain_start.astype(np.float64))
    mlp_per_win = np.clip(chains_per_win, 1.0, float(machine.mshr))
    stall = float(np.sum(lat_per_win / mlp_per_win))
    mean_mlp = float(np.sum(lat_per_win) / stall) if stall else 1.0
    return stall, mean_mlp


class CPUModel:
    """Runs the full CPU characterization pipeline over a frozen trace."""

    def __init__(self, machine: MachineConfig = SCALED_XEON):
        self.machine = machine

    def run(self, trace: FrozenTrace, *, stack_depth: int = 0,
            footprint_bytes: int = 0,
            memo: dict | None = None) -> CPUMetrics:
        """Characterize one workload run.

        Parameters
        ----------
        trace:
            Frozen tracer output of the workload kernel.
        stack_depth:
            Deep-software-stack ablation depth for the ICache model
            (0 = GraphBIG's flat hierarchy).
        footprint_bytes:
            Heap footprint of the run (reported, not simulated).
        memo:
            Optional per-*trace* scratch dict, shared across the machine
            configs of a sensitivity sweep.  Sub-results that do not
            depend on the dimension being swept — branch prediction
            (keyed by predictor kind/bits), the ICache stats (keyed by
            its config and ``stack_depth``), and the replay engine's
            per-stage miss positions (every level above the one being
            swept) — are computed once per sweep.
        """
        m = self.machine
        rep = replay(trace.addrs, trace.rw, m, id_cache=memo)
        hier = rep.hierarchy
        tlb_stats = rep.tlb
        bkey = ("branch", m.predictor, m.predictor_bits)
        if memo is not None and bkey in memo:
            br = memo[bkey]
        else:
            br = simulate_branches(trace.branch_sites, trace.branch_taken,
                                   kind=m.predictor,
                                   table_bits=m.predictor_bits)
            if memo is not None:
                memo[bkey] = br
        ikey = ("icache", m.icache, stack_depth)
        if memo is not None and ikey in memo:
            ic = memo[ikey]
        else:
            ic = ICache(m.icache).simulate(trace, stack_depth=stack_depth)
            if memo is not None:
                memo[ikey] = ic

        retiring = trace.n_instrs / m.issue_width
        mem_stall, mlp = _memory_stall_cycles(trace, hier, m)
        # page walks overlap with the outstanding data misses they
        # accompany, so they see the same memory-level parallelism
        walk_eff = tlb_stats.walk_cycles / max(mlp, 1.0)
        backend = mem_stall + walk_eff
        bad_spec = br.mispredicts * m.flush_penalty
        frontend = ic.misses * m.icache_penalty
        breakdown = CycleBreakdown(frontend=frontend,
                                   bad_speculation=bad_spec,
                                   retiring=retiring, backend=backend)
        return CPUMetrics(
            n_instrs=trace.n_instrs,
            cycles=breakdown.total,
            breakdown=breakdown,
            hierarchy=hier,
            dtlb=tlb_stats,
            branch=br,
            icache=ic,
            framework_fraction=trace.framework_fraction(),
            mlp=mlp,
            dtlb_walk_cycles_effective=walk_eff,
            footprint_bytes=footprint_bytes,
        )
