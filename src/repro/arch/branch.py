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
    weakly-taken), fully vectorized; ``taken`` is a bool array.

    The events of one table index form an independent chain of mapping
    applications.  A stable sort groups the stream per index while keeping
    program order inside each group; a segmented Hillis-Steele scan then
    composes the transition mappings, giving every event the exact counter
    value the sequential predictor would have read.  Both single-step
    mappings are saturating adds ``x -> min(hi, max(lo, x + a))``, written
    *tight* over the counter's domain [0, 3] — taken ``(+1, 1, 3)``,
    not-taken ``(-1, 0, 2)``, so ``lo = f(0)`` and ``hi = f(3)`` — and the
    family is closed under a composition that keeps them tight::

        (g . f)  =  (a_f + a_g,  min(hi', max(lo_g, lo_f + a_g)),
                     hi' = min(hi_g, max(lo_g, hi_f + a_g)))

    A monotone map with ``lo == hi`` is constant: nothing earlier in its
    segment can change what that row reads (three equal outcomes in a row
    are enough).  A row is *decided* once its window has reached its
    segment's first event or its map is constant; a decided row is never
    written again, a row composed with a decided source is decided, and
    the scan doubles its distance until no row is undecided — whole-array
    steps while at least 5 % are, then on the compacted survivors.
    Composition is associative, so this is exact, not an approximation.
    The number of passes follows how far a row must look back for a
    constant map, not how long its segment is; strict alternation, where
    no map ever turns constant, is the worst case: log2(n) passes.

    ``int8`` holds every field: an undecided map has ``|a| <= 2`` and a
    decided row's frozen ``a`` grew by at most 2 per doubling step
    (``<= 2 log2(n) + 2``); a sum can wrap only in a decided row, where
    the masked write discards it.
    """
    n = len(idx)
    if not n:
        return 0
    # stable argsort: numpy radix-sorts the <= 16-bit indices
    # simulate_branches narrows to, ~4x faster than a merge of uint32
    order = np.argsort(idx, kind="stable")
    gt = taken[order]
    gi = idx[order]
    first = np.ones(n, bool)
    np.not_equal(gi[1:], gi[:-1], out=first[1:])
    und = ~first                     # undecided rows; und[:d] stays False
    lo = gt.astype(np.int8)
    a, hi = 2 * lo - 1, lo + 2

    def compose(f, ag, lg, hg):      # rows g after rows f
        nhi = np.minimum(hg, np.maximum(lg, hi[f] + ag))
        return a[f] + ag, np.minimum(nhi, np.maximum(lg, lo[f] + ag)), nhi

    d = 1
    while np.count_nonzero(und) * 20 >= n:   # dense phase: whole arrays
        f, live = slice(0, n - d), und[d:]
        new = compose(f, a[d:], lo[d:], hi[d:])
        still = live & und[f] & (new[1] < new[2])
        for col, val in zip((a, lo, hi), new):
            col[d:] += (val - col[d:]) * live    # masked write, no branch
        und[d:] = still
        d *= 2
    rows = np.flatnonzero(und)       # sparse phase: compacted survivors
    while len(rows):
        f = rows - d
        new = compose(f, a[rows], lo[rows], hi[rows])
        und[rows] = still = und[f] & (new[1] < new[2])
        a[rows], lo[rows], hi[rows] = new
        rows = rows[still]
        d *= 2
    pred = first                     # a segment's first event reads 2
    pred[1:] |= np.minimum(hi, np.maximum(lo, a + 2))[:-1] >= 2
    return int(np.count_nonzero(pred != gt))


def _gshare_history(taken: np.ndarray, history_bits: int,
                    dtype: type) -> np.ndarray:
    """Global-history register value seen by each branch, as ``dtype``
    (unsigned, at least ``history_bits`` wide).  The history is a pure
    shift-in of past *outcomes* — independent of predictions — so it
    unrolls into ``history_bits`` shifted-OR passes."""
    n = len(taken)
    hist = np.zeros(n, dtype)
    tb = taken.astype(dtype)
    for k in range(1, min(history_bits, n - 1 if n else 0) + 1):
        hist[k:] |= tb[:-k] << dtype(k - 1)
    return hist


def simulate_branches(sites: np.ndarray, taken: np.ndarray,
                      kind: str = "gshare", **kwargs) -> BranchStats:
    """Run predictor ``kind`` over a (site, outcome) stream; an outcome
    is taken when non-zero.

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
    s, t = np.asarray(sites), np.asarray(taken) != 0
    if len(s) != len(t):
        raise ValueError(f"sites has {len(s)} entries, taken has {len(t)}")
    if kind == "always_taken":       # static: no table, no geometry
        return cls().simulate(s, t)
    p = cls(**kwargs)
    hbits = p.hmask.bit_length() if kind == "gshare" else 0
    # the narrowest unsigned type that holds an index *and* the history;
    # the cast keeps a site's low bits, which are all an index reads
    dtype = next(u for u in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if max(p.mask.bit_length(), hbits) <= np.iinfo(u).bits)
    idx = s.astype(dtype)
    if kind == "gshare":
        idx ^= _gshare_history(t, hbits, dtype)
    return BranchStats(len(s), _counter_misses(idx & dtype(p.mask), t))
