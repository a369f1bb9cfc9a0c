"""Set-associative LRU cache simulation.

The workhorse of the CPU characterization: a byte-address trace goes
through a cache level and comes out as the per-access miss stream, from
which the harness derives MPKI (Fig. 7) and hit rates (Fig. 9).  ``src/``
has one LRU, :func:`lru_miss_idx`, decided in numpy with no Python
bytecode per access.  The CPU levels and DTLB in :mod:`repro.arch.replay`,
the ICache, the multicore levels in :mod:`repro.parallel.trace_sim` and the
GPU L2 in :mod:`repro.gpu.simt` compose it (:func:`level_miss_idx` for
addresses).

It runs no state machine.  LRU has the stack property (Mattson et al.,
1970): an access hits if and only if fewer than ``assoc`` distinct keys
of its set were used since the key's previous use.  That is exact, not a
model of LRU: the ``assoc`` most recently used distinct keys are exactly
what a set of ``assoc`` ways holds, whatever came before.  So each access
needs one number, the distinct count of its *window* (the accesses of
its set since its key's previous use), and only whether that reaches
``assoc``.  ``tests/test_cache.py`` gates it against the stateful
``Cache`` and against the per-set state machine in C it replaced, both
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def line_ids(addrs: np.ndarray, line: int) -> np.ndarray:
    """Byte addresses -> line (or page) ids, as a uint64 array."""
    addrs = np.asarray(addrs, dtype=np.uint64)
    if line & (line - 1) == 0:
        return addrs >> np.uint64(line.bit_length() - 1)
    return addrs // np.uint64(line)


def _stable_order(v: np.ndarray) -> np.ndarray:
    """A stable argsort of integers ``v``: LSD radix passes (numpy's radix
    sort of ``uint16``) over the 16-bit digits of ``v - min(v)``, one
    pass per digit the span needs."""
    if v.dtype == np.uint16:
        return np.argsort(v, kind="stable")
    v = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64, copy=False)
    u = (v - v.min()).view(np.uint64)       # int64 may wrap; uint64 is exact
    span = int(u.max())
    order = np.argsort(u.astype(np.uint16), kind="stable")
    shift = 16
    while span >> shift:
        digit = (u[order] >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _last_uses(nxt: np.ndarray, j: np.ndarray, start: np.ndarray,
               stop: np.ndarray) -> np.ndarray:
    """For each ``q``: how many ``i`` in ``[start[q], stop[q])`` are the
    last use of their key before ``j[q]`` (``nxt[i] >= j[q]``).  Summed
    in groups of at most ``len(nxt)`` positions."""
    out = np.zeros(len(j), dtype=np.int64)
    span = stop - start
    ends = np.cumsum(span)
    a = 0
    while a < len(j):
        base = ends[a] - span[a]
        b = max(a + 1, int(np.searchsorted(ends, base + len(nxt), "right")))
        sp = span[a:b]
        total = int(ends[b - 1] - base)
        if total:
            off = np.cumsum(sp) - sp
            idx = np.repeat(start[a:b] - off, sp)
            idx += np.arange(total)
            flag = nxt[idx] >= np.repeat(j[a:b], sp)
            del idx
            some = sp > 0
            out[a:b][some] = np.add.reduceat(flag, off[some], dtype=np.int64)
        a = b
    return out


def lru_miss_idx(slot: np.ndarray, key: np.ndarray, assoc: int) -> np.ndarray:
    """Ascending positions that miss in a cold LRU where access ``i``
    probes set ``slot[i]`` for ``key[i]``; each set holds ``assoc`` keys.

    ``slot`` is whatever partitions the structure: the set index of a
    set-associative cache, ``owner * n_sets + set`` for per-core private
    caches, a constant for one fully-associative pool.

    A stable argsort by slot (radix, 16 bits a pass) lays the stream out
    per set in program order.  A repeat of its set's previous key is an
    MRU hit, leaves the LRU order untouched and drops out; the *m* live
    accesses left are numbered in that layout.  A second stable radix sort,
    by key, gives each live access ``j`` the previous use ``p`` and next
    use of its (set, key), and its window is the live accesses between
    ``p`` and ``j``.  Then, with no counting:

    * no previous use: a miss (cold);
    * a window shorter than ``assoc``: a hit;
    * a set that has seen at most ``assoc`` distinct keys up to ``j``: a
      hit (nothing was ever evicted).

    The rest are counted at widths ``R = assoc * 2**t``.  The distinct
    keys among the ``R`` live accesses before ``j`` are those whose next
    use is ``j`` or later: ``d_R(j) = j - #{i : min(i + R, next(i)) < j}``,
    one ``bincount`` and one ``cumsum`` for every ``j`` at once.  While
    ``R`` fits in the window, ``d_R >= assoc`` is a miss.  Once ``R``
    first reaches back to the previous use, ``d_R <= assoc`` is a hit:
    ``d_R`` then counts the window's keys, ``j``'s own key, and perhaps
    more.  What the widths leave open is counted exactly: the last uses
    before ``j`` in the part of the window the last width did not cover,
    plus that width's count.  As soon as the windows still open sum to at
    most *m* positions, all of them are counted that way instead of
    taking another width.

    Cost: two radix sorts (a pass per 16 bits of the slots' and the keys'
    spans), O(m) per width for at most log2(longest open window / assoc)
    widths, and exact counts in groups of at most *m* positions.  Memory
    is O(n): a few arrays over the stream, no Python object per access.
    """
    n, assoc = len(key), int(assoc)
    if len(slot) != n:
        raise ValueError(f"slot has {len(slot)} entries, key has {n}")
    if assoc < 1:
        raise ValueError(f"assoc must be >= 1, got {assoc}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    narrow = 0 <= slot.min() and slot.max() < 65536
    s = slot.astype(np.uint16) if narrow else slot
    order = _stable_order(s)
    s = s[order]
    k = key[order]
    head = np.empty(n, dtype=bool)          # first access of a set
    head[0] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    live = np.empty(n, dtype=bool)          # not an MRU repeat
    live[0] = True
    np.not_equal(k[1:], k[:-1], out=live[1:])
    live |= head
    at = order[live]
    del order                               # peak RSS: free as we go
    k = k[live]
    s = s[live]
    head = head[live]
    del live
    m = len(k)

    # previous and next use of each live access's (set, key): live
    # accesses are in (set, program) order, so a stable sort by key alone
    # puts each (set, key)'s uses side by side and ascending
    by = _stable_order(k)
    k = k[by]
    differ = k[1:] != k[:-1]
    del k
    s = s[by]
    differ |= s[1:] != s[:-1]
    del s
    prev = np.empty(m, dtype=np.int64)
    prev[by[0]] = -1
    prev[by[1:]] = by[:-1]
    prev[by[1:][differ]] = -1
    nxt = np.empty(m, dtype=np.int64)
    nxt[by[-1]] = m
    nxt[by[:-1]] = by[1:]
    nxt[by[:-1][differ]] = m
    del by, differ

    miss = prev < 0
    heads = np.flatnonzero(head)
    del head
    seen = miss.astype(np.int64)            # distinct keys of the set so far
    seen[heads[1:]] -= np.add.reduceat(miss, heads, dtype=np.int64)[:-1]
    np.cumsum(seen, out=seen)
    j = np.flatnonzero((seen > assoc) & ~miss)
    del seen
    w = j - 1 - prev[j]                     # live accesses since prev
    del prev
    j, w = j[w >= assoc], w[w >= assoc]

    exact = []                              # (j, window, width, its count)
    width, d_width, R = 0, np.zeros(len(j), dtype=np.int64), assoc
    while len(j):
        if int(w.sum()) - width * len(j) <= m:
            exact.append((j, w, width, d_width))
            break
        end = np.arange(R, m + R)
        np.minimum(end, nxt, out=end)
        before = np.bincount(end, minlength=m + 1)
        del end
        np.cumsum(before, out=before)
        d = j - before[j - 1]
        del before
        inside = R <= w
        miss[j[inside & (d >= assoc)]] = True
        undecided = ~inside & (d > assoc)
        exact.append((j[undecided], w[undecided], width,
                      d_width[undecided]))
        go_on = inside & (d < assoc)
        j, w, d_width, width = j[go_on], w[go_on], d[go_on], R
        R *= 2
    for j, w, width, d_width in exact:
        count = d_width + _last_uses(nxt, j, j - w, j - width)
        miss[j[count >= assoc]] = True
    del nxt
    return np.sort(at[miss])


def level_miss_idx(cfg: CacheConfig, addrs: np.ndarray,
                   at: np.ndarray | None = None,
                   owner: np.ndarray | None = None) -> np.ndarray:
    """Ascending positions of ``addrs`` that miss a cold cache of ``cfg``'s
    geometry fed ``addrs[at]`` in order (``at=None``: every access).

    A level's access stream is the miss stream of the level above it, so
    a hierarchy is this call chained: ``i2 = level_miss_idx(l2, addrs,
    i1)``.  ``owner`` (one core id per position of ``addrs``) gives every
    core a private copy of the level.
    """
    ids = line_ids(addrs if at is None else addrs[at], cfg.line)
    slot = ids & np.uint64(cfg.n_sets - 1)
    if owner is not None:
        own = owner if at is None else owner[at]
        slot += own.astype(np.uint64) * np.uint64(cfg.n_sets)
    miss = lru_miss_idx(slot, ids, cfg.assoc)
    return miss if at is None else at[miss]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size`` bytes total, ``assoc`` ways, ``line`` bytes per line.
    ``n_sets`` must come out a power of two (standard indexing).
    """

    name: str
    size: int
    assoc: int
    line: int = 64
    latency: int = 4          # load-to-use cycles on a hit (DTLB: per walk)

    def __post_init__(self):
        if self.size <= 0 or self.assoc <= 0 or self.line <= 0:
            raise ValueError("size, assoc and line must be positive")
        if self.size % (self.assoc * self.line):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*line = {self.assoc * self.line}")
        n_sets = self.size // (self.assoc * self.line)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: n_sets={n_sets} not a power of 2")

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line)


@dataclass
class CacheStats:
    """Counters of one simulated level."""

    name: str
    accesses: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def mpki(self, n_instrs: int) -> float:
        """Misses per kilo-instruction."""
        return 1000.0 * self.misses / n_instrs if n_instrs else 0.0
