"""Instruction-cache model over the traced code-region sequence.

Key paper observation (Section 5.2.1): unlike other big-data workloads —
whose deep software stacks (frameworks atop libraries atop libraries) blow
the ICache — GraphBIG's framework has a *flat* code hierarchy, so ICache
MPKI stays below 0.7 for every workload.

The tracer records the sequence of code-region visits (framework primitives
and user kernels).  The ICache model lays every region out in a simulated
code segment and touches its lines on entry.  Sets are independent, and a
set that the visited regions give at most ``assoc`` lines never evicts: it
misses once per line, which the layout answers.  Only the touches of a set
that overflows go through the LRU.  A *deep-stack* transform wraps each
visit in ``depth`` synthetic wrapper regions (adapter/glue code of layered
frameworks), reproducing the contrast with CloudSuite-style stacks as an
ablation; only there does a set overflow.
"""

from __future__ import annotations

import numpy as np

from ..core.trace import FrozenTrace, Region
from .cache import CacheConfig, CacheStats, level_miss_idx, line_ids

#: Base of the simulated code segment (distinct from the data heap).
CODE_BASE = 0x4000_0000

#: Alignment of each region's code in the segment.
CODE_ALIGN = 64


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


def deep_stack_regions(regions: dict[int, Region],
                       depth: int) -> dict[int, Region]:
    """Synthesize ``depth`` 384-byte wrapper regions per original
    region, modelling the adapter layers of a deep software stack."""
    out = dict(regions)
    next_rid = max(regions) + 1
    for rid in sorted(regions):
        for lvl in range(depth):
            out[next_rid + lvl] = Region(
                next_rid + lvl, f"{regions[rid].name}_wrap{lvl}",
                384, regions[rid].framework)
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
    rids = sorted(regions)
    first = np.zeros(rids[-1] + 1, dtype=np.int64)  # a region's 1st wrapper
    first[rids] = rids[-1] + 1 + np.arange(len(rids)) * depth
    wrappers = first[region_seq][:, None] + np.arange(depth)
    return (np.column_stack((wrappers, region_seq)).astype(np.uint32)
            .ravel(), deep)


class ICache:
    """LRU instruction cache over the region visits' code lines."""

    def __init__(self, config: CacheConfig):
        self.config = config

    def simulate(self, trace: FrozenTrace, stack_depth: int = 0
                 ) -> CacheStats:
        """``trace``'s region visits through a cold ICache (every fetch a
        read).  Consecutive duplicate visits collapse (straight-line code
        within a region); every other visit touches each line of its
        region in order.  ``stack_depth`` > 0 applies the deep-stack
        ablation transform."""
        cfg = self.config
        seq, regions = expand_visits(trace.region_seq, trace.regions,
                                     stack_depth)
        if not len(seq):
            return CacheStats(cfg.name)
        layout = layout_code(regions)
        n_lines = np.zeros(max(layout) + 1, dtype=np.int64)
        n_lines[list(layout)] = [n for _, n in layout.values()]
        end = np.cumsum(n_lines)                # laid out back to back
        visits = seq[np.r_[True, seq[1:] != seq[:-1]]]
        accesses = int(n_lines[visits].sum())
        # every line slot of the code segment; the visited regions' lines
        # each once (line ids ascend along the segment)
        addrs = CODE_BASE + CODE_ALIGN * np.arange(end[-1])
        ids = line_ids(addrs, cfg.line)
        sets = (ids & np.uint64(cfg.n_sets - 1)).astype(np.int64)
        used = np.repeat(np.bincount(visits, minlength=len(end)) > 0, n_lines)
        once = np.r_[True, ids[used][1:] != ids[used][:-1]]
        per_set = np.bincount(sets[used][once], minlength=cfg.n_sets)
        over = per_set > cfg.assoc
        misses = int(per_set[~over].sum())
        if over.any():
            hot = over[sets]
            before = np.r_[0, np.cumsum(hot)]   # hot slots before a slot
            first = before[end - n_lines][visits]
            n_hot = before[end][visits] - first
            pick = (np.repeat(first - (np.cumsum(n_hot) - n_hot), n_hot)
                    + np.arange(n_hot.sum()))
            misses += len(level_miss_idx(cfg, addrs[hot][pick]))
        return CacheStats(cfg.name, accesses=accesses, misses=misses,
                          read_misses=misses)
