"""Branch predictor models.

The paper reports branch miss-prediction rate per workload (Fig. 6): most
graph workloads stay below 5 % — their branches are loop back-edges, which
history predictors nail — while TC reaches 10.7 % because the outcome of
its neighbour-list *intersection* compares is data-dependent and effectively
random.  A gshare predictor over the traced (site, outcome) stream
reproduces exactly this contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BranchStats:
    """Outcome of a branch-prediction simulation."""

    branches: int
    mispredicts: int

    @property
    def miss_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def mpki(self, n_instrs: int) -> float:
        return 1000.0 * self.mispredicts / n_instrs if n_instrs else 0.0


class BimodalPredictor:
    """Per-site 2-bit saturating counters (no global history)."""

    def __init__(self, table_bits: int = 12):
        self.mask = (1 << table_bits) - 1
        self.table = [2] * (1 << table_bits)   # weakly taken

    def simulate(self, sites: np.ndarray, taken: np.ndarray) -> BranchStats:
        table = self.table
        mask = self.mask
        miss = 0
        for s, t in zip(np.asarray(sites).tolist(),
                        np.asarray(taken).tolist()):
            idx = s & mask
            c = table[idx]
            if (c >= 2) != bool(t):
                miss += 1
            table[idx] = min(c + 1, 3) if t else max(c - 1, 0)
        return BranchStats(len(sites), miss)


class GSharePredictor:
    """Global-history XOR site-indexed 2-bit counters (McFarling gshare)."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12):
        self.table_bits = table_bits
        self.mask = (1 << table_bits) - 1
        self.hmask = (1 << history_bits) - 1
        self.table = [2] * (1 << table_bits)
        self.history = 0

    def simulate(self, sites: np.ndarray, taken: np.ndarray) -> BranchStats:
        table = self.table
        mask = self.mask
        hmask = self.hmask
        hist = self.history
        miss = 0
        for s, t in zip(np.asarray(sites).tolist(),
                        np.asarray(taken).tolist()):
            idx = (s ^ hist) & mask
            c = table[idx]
            t = bool(t)
            if (c >= 2) != t:
                miss += 1
            table[idx] = min(c + 1, 3) if t else max(c - 1, 0)
            hist = ((hist << 1) | t) & hmask
        self.history = hist
        return BranchStats(len(sites), miss)


class AlwaysTakenPredictor:
    """Static always-taken baseline (sanity lower bound)."""

    def simulate(self, sites: np.ndarray, taken: np.ndarray) -> BranchStats:
        taken = np.asarray(taken, dtype=bool)
        return BranchStats(len(taken), int((~taken).sum()))


PREDICTORS = {
    "gshare": GSharePredictor,
    "bimodal": BimodalPredictor,
    "always_taken": AlwaysTakenPredictor,
}

def _counter_misses(idx: np.ndarray, taken: np.ndarray) -> int:
    """Mispredict count of per-index 2-bit saturating counters (init
    weakly-taken), fully vectorized.

    The events of one table index form an independent chain of mapping
    applications.  A stable sort groups the stream per index while keeping
    program order inside each group; a segmented Hillis-Steele scan then
    composes the transition mappings, giving every event the exact counter
    value the sequential predictor would have read.  Both single-step
    mappings are saturating adds ``x -> min(hi, max(lo, x + a))`` and that
    family is closed under composition::

        (g . f)  =  (a_f + a_g,
                     max(lo_g, lo_f + a_g),
                     min(hi_g, max(lo_g, hi_f + a_g)))

    so each mapping is three small ints and every scan step is a few
    elementwise ops — no per-row gathers.  Composition is associative, so
    the scan is exact, not an approximation.  Once the doubling distance
    exceeds most segment lengths the surviving rows are compacted and
    updated sparsely.
    """
    n = len(idx)
    if not n:
        return 0
    # stable radix argsort — table indices fit u32, which sorts ~2x
    # faster than the int64 the caller naturally produces
    order = np.argsort(idx.astype(np.uint32), kind="stable")
    gt = taken[order].astype(bool)
    gi = idx[order]
    start = np.empty(n, bool)
    start[0] = True
    start[1:] = gi[1:] != gi[:-1]
    seg_first = np.flatnonzero(start)
    seg_id = np.cumsum(start) - 1
    pos = np.arange(n, dtype=np.int64) - seg_first[seg_id]
    a = np.where(gt, np.int16(1), np.int16(-1))
    lo = np.zeros(n, np.int16)
    hi = np.full(n, 3, np.int16)
    longest = int(pos.max())
    d = 1
    while d <= longest:              # dense phase: whole-array steps
        live = pos[d:] >= d          # rows at least d into their segment
        ag, lg, hg = a[d:], lo[d:], hi[d:]
        na = a[:n - d] + ag
        nlo = np.maximum(lg, lo[:n - d] + ag)
        nhi = np.minimum(hg, np.maximum(lg, hi[:n - d] + ag))
        np.copyto(ag, na, where=live)
        np.copyto(lg, nlo, where=live)
        np.copyto(hg, nhi, where=live)
        d *= 2
        if int(live.sum()) * 20 < n:     # few survivors -> go sparse
            break
    if d <= longest:                 # sparse phase on compacted survivors
        rows = np.flatnonzero(pos >= d)
        while d <= longest and len(rows):
            src = rows - d
            ag, lg, hg = a[rows], lo[rows], hi[rows]
            na = a[src] + ag
            a[rows] = na
            lo[rows] = np.maximum(lg, lo[src] + ag)
            hi[rows] = np.minimum(hg, np.maximum(lg, hi[src] + ag))
            d *= 2
            rows = rows[pos[rows] >= d]
    before = np.full(n, 2, np.int16)
    nst = ~start
    before[nst] = np.minimum(
        hi[:-1][nst[1:]],
        np.maximum(lo[:-1][nst[1:]], 2 + a[:-1][nst[1:]]))
    return int(((before >= 2) != gt).sum())


def _gshare_history(taken: np.ndarray, history_bits: int,
                    hmask: int) -> np.ndarray:
    """Global-history register value seen by each branch.  The history is
    a pure shift-in of past *outcomes* — independent of predictions — so
    it unrolls into ``history_bits`` shifted-OR passes."""
    n = len(taken)
    hist = np.zeros(n, np.int64)
    tb = taken.astype(np.int64)
    for k in range(1, min(history_bits, n - 1 if n else 0) + 1):
        hist[k:] |= tb[:-k] << (k - 1)
    return hist & hmask


def simulate_branches(sites: np.ndarray, taken: np.ndarray,
                      kind: str = "gshare", **kwargs) -> BranchStats:
    """Run predictor ``kind`` over a (site, outcome) stream.

    The table-based predictors go through the vectorized closed-form
    counter evolution (:func:`_counter_misses`); it is exact —
    ``tests/test_tlb_branch_icache.py`` holds it equal to the sequential
    predictor classes above, which remain the oracle.
    """
    try:
        cls = PREDICTORS[kind]
    except KeyError:
        raise ValueError(f"unknown predictor {kind!r}; "
                         f"choose from {sorted(PREDICTORS)}") from None
    if kind in ("gshare", "bimodal"):
        p = cls(**kwargs)
        s = np.asarray(sites, np.int64)
        t = np.asarray(taken)
        if kind == "bimodal":
            idx = s & p.mask
        else:
            hist = _gshare_history(t, p.hmask.bit_length(), p.hmask)
            idx = (s ^ hist) & p.mask
        return BranchStats(len(s), _counter_misses(idx, t))
    return cls(**kwargs).simulate(sites, taken)
