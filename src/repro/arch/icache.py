"""Instruction-cache model over the traced code-region sequence.

Key paper observation (Section 5.2.1): unlike other big-data workloads —
whose deep software stacks (frameworks atop libraries atop libraries) blow
the ICache — GraphBIG's framework has a *flat* code hierarchy, so ICache
MPKI stays below 0.7 for every workload.

The tracer records the sequence of code-region visits (framework primitives
and user kernels).  The ICache model lays every region out in a simulated
code segment and touches its lines on entry; an LRU ICache then yields
misses.  A *deep-stack* transform wraps each visit in ``depth`` synthetic
wrapper regions (adapter/glue code of layered frameworks), reproducing the
contrast with CloudSuite-style stacks as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trace import FrozenTrace, Region
from .cache import CacheConfig, level_miss_idx

#: Base of the simulated code segment (distinct from the data heap).
CODE_BASE = 0x4000_0000

#: Alignment of each region's code in the segment.
CODE_ALIGN = 64


@dataclass
class ICacheStats:
    """Outcome of an ICache simulation."""

    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, n_instrs: int) -> float:
        return 1000.0 * self.misses / n_instrs if n_instrs else 0.0


def layout_code(regions: dict[int, Region]) -> dict[int, tuple[int, int]]:
    """Assign each region a (base_addr, n_lines) span in the code segment."""
    out: dict[int, tuple[int, int]] = {}
    cursor = CODE_BASE
    for rid in sorted(regions):
        r = regions[rid]
        n_lines = max(1, (r.code_bytes + CODE_ALIGN - 1) // CODE_ALIGN)
        out[rid] = (cursor, n_lines)
        cursor += n_lines * CODE_ALIGN
    return out


def code_footprint(regions: dict[int, Region]) -> int:
    """Total code bytes across all regions (flat-stack footprint)."""
    return sum(r.code_bytes for r in regions.values())


def deep_stack_regions(regions: dict[int, Region], depth: int,
                       wrapper_bytes: int = 384) -> dict[int, Region]:
    """Synthesize ``depth`` wrapper regions per original region, modelling
    the adapter layers of a deep software stack."""
    out = dict(regions)
    next_rid = max(regions) + 1
    for rid in sorted(regions):
        for lvl in range(depth):
            out[next_rid + lvl] = Region(
                next_rid + lvl, f"{regions[rid].name}_wrap{lvl}",
                wrapper_bytes, regions[rid].framework)
        next_rid += depth
    return out


def expand_visits(region_seq: np.ndarray, regions: dict[int, Region],
                  depth: int) -> tuple[np.ndarray, dict[int, Region]]:
    """Rewrite the visit sequence so each visit passes through its wrapper
    chain (call path down, region, call path up is elided — wrappers touch
    their lines once per visit, which is the dominant effect)."""
    if depth == 0:
        return region_seq, regions
    deep = deep_stack_regions(regions, depth)
    base = max(regions) + 1
    order = {rid: i for i, rid in enumerate(sorted(regions))}
    out = []
    for rid in region_seq.tolist():
        start = base + order[rid] * depth
        out.extend(range(start, start + depth))
        out.append(rid)
    return np.asarray(out, dtype=np.uint32), deep


class ICache:
    """LRU instruction cache replaying region-visit line touches."""

    def __init__(self, config: CacheConfig):
        self.config = config

    def simulate(self, trace: FrozenTrace, stack_depth: int = 0
                 ) -> ICacheStats:
        """Replay ``trace``'s region visits through a cold ICache;
        returns aggregate stats.

        ``stack_depth`` > 0 applies the deep-stack ablation transform.
        """
        addrs = self._visit_addrs(trace, stack_depth)
        return ICacheStats(len(addrs),
                           len(level_miss_idx(self.config, addrs)))

    def _visit_addrs(self, trace: FrozenTrace,
                     stack_depth: int) -> np.ndarray:
        """Line-touch address stream of the region-visit sequence:
        consecutive duplicate visits collapse (straight-line execution
        within a region), every surviving visit touches each of its
        region's code lines in order."""
        seq, regions = expand_visits(trace.region_seq, trace.regions,
                                     stack_depth)
        if not len(seq):
            return np.empty(0, dtype=np.uint64)
        layout = layout_code(regions)
        keep = np.ones(len(seq), dtype=bool)
        keep[1:] = seq[1:] != seq[:-1]
        visits = seq[keep].astype(np.int64)
        max_rid = max(layout)
        base_lut = np.zeros(max_rid + 1, dtype=np.uint64)
        nl_lut = np.zeros(max_rid + 1, dtype=np.int64)
        for rid, (base, n_lines) in layout.items():
            base_lut[rid] = base
            nl_lut[rid] = n_lines
        nv = nl_lut[visits]
        total = int(nv.sum())
        # ragged [0..n_lines) offsets per visit, fully vectorized
        starts = np.concatenate(([0], np.cumsum(nv)[:-1]))
        offs = np.arange(total, dtype=np.int64) - np.repeat(starts, nv)
        return (np.repeat(base_lut[visits], nv)
                + offs.astype(np.uint64) * np.uint64(CODE_ALIGN))
