"""Execution tracer: the bridge between workloads and the architecture model.

GraphBIG measures hardware events (cache misses, DTLB walks, branch
mispredictions, cycle breakdown) with perf counters while workloads run on
the System G framework.  Here, the framework primitives emit the equivalent
event stream into a :class:`Tracer`:

* **memory accesses** — virtual addresses from :mod:`repro.core.memmodel`,
  consumed by the cache/TLB simulators (:mod:`repro.arch`),
* **retired instruction counts** — charged per primitive with realistic
  per-operation costs, giving the MPKI denominator and the cycle model input,
* **conditional branch outcomes** — consumed by the branch predictor model,
* **code-region transitions** — consumed by the ICache model; framework
  regions vs user regions also give the in-framework time split (Fig. 1).

The tracer is deliberately dumb and append-only; all analysis happens in
:mod:`repro.arch` over the frozen numpy views returned by :meth:`Tracer.freeze`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TraceError


@dataclass(frozen=True)
class Region:
    """A static code region (≈ one framework primitive or user kernel).

    ``code_bytes`` is the footprint of the region's instructions; the ICache
    model touches ``code_bytes / 64`` lines when execution enters the region.
    GraphBIG's framework has a *flat* hierarchy — few small regions — which
    is why its ICache MPKI is low (paper Section 5.2.1 "Core analysis").
    """

    rid: int
    name: str
    code_bytes: int
    framework: bool


# ---------------------------------------------------------------------------
# Framework region ids.  User regions are registered at runtime from rid 64.
# ---------------------------------------------------------------------------
R_IDLE = 0            # top-level user code outside any primitive
R_FIND_VERTEX = 1
R_ADD_VERTEX = 2
R_DELETE_VERTEX = 3
R_ADD_EDGE = 4
R_FIND_EDGE = 5
R_DELETE_EDGE = 6
R_NEIGHBORS = 7
R_PROP_GET = 8
R_PROP_SET = 9
R_VERTEX_SCAN = 10
R_PAYLOAD = 11
R_BUILD = 12          # bulk build/populate helpers

USER_REGION_BASE = 64

_FRAMEWORK_REGIONS = [
    Region(R_IDLE, "user_top", 256, False),
    Region(R_FIND_VERTEX, "find_vertex", 224, True),
    Region(R_ADD_VERTEX, "add_vertex", 512, True),
    Region(R_DELETE_VERTEX, "delete_vertex", 576, True),
    Region(R_ADD_EDGE, "add_edge", 448, True),
    Region(R_FIND_EDGE, "find_edge", 288, True),
    Region(R_DELETE_EDGE, "delete_edge", 512, True),
    Region(R_NEIGHBORS, "traverse_neighbors", 320, True),
    Region(R_PROP_GET, "property_get", 128, True),
    Region(R_PROP_SET, "property_set", 160, True),
    Region(R_VERTEX_SCAN, "vertex_scan", 192, True),
    Region(R_PAYLOAD, "payload_access", 192, True),
    Region(R_BUILD, "graph_build", 640, True),
]

# ---------------------------------------------------------------------------
# Static branch-site ids (for the branch predictor's per-site history).
# ---------------------------------------------------------------------------
B_EDGE_LOOP = 1        # "more edges?" loop back-branch in traverse_neighbors
B_VERTEX_SCAN = 2      # vertex-scan loop back-branch
B_FIND_HIT = 3         # "found?" test in find_vertex / find_edge
B_DELETE_MATCH = 4     # "is this the edge to unlink?" in delete_edge
B_DUP_CHECK = 5        # "does this edge already exist?" in add_edge
USER_BRANCH_BASE = 64


@dataclass
class FrozenTrace:
    """Immutable numpy view of a finished trace (input to the arch model)."""

    addrs: np.ndarray       # uint64 byte addresses, program order
    rw: np.ndarray          # uint8: 0 = load, 1 = store
    iat: np.ndarray         # uint64 instruction index at each access
    acc_region: np.ndarray  # uint32 region id active at each access
    branch_sites: np.ndarray  # uint32 static site ids, program order
    branch_taken: np.ndarray  # uint8 outcomes
    region_seq: np.ndarray    # uint32 region ids, in visit order
    region_instrs: np.ndarray  # uint64 instructions retired per visit
    regions: dict[int, Region]
    n_instrs: int
    fw_instrs: int
    fw_accesses: int
    n_accesses: int

    @property
    def n_branches(self) -> int:
        return len(self.branch_sites)

    @property
    def user_instrs(self) -> int:
        return self.n_instrs - self.fw_instrs

    def framework_fraction(self) -> float:
        """Fraction of retired instructions spent inside framework
        primitives — the proxy for the paper's in-framework execution time
        (Fig. 1, avg ≈ 76 %)."""
        if self.n_instrs == 0:
            return 0.0
        return self.fw_instrs / self.n_instrs


#: Events per preallocated buffer chunk (~1.3 MB per access chunk).
_CHUNK = 1 << 16


def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate chunk parts into a freshly owned array.

    Always copies — a frozen column must never alias a live chunk buffer
    the tracer may keep writing into.
    """
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0].copy()
    return np.concatenate(parts)


class _AccessBuf:
    """Growable chunked storage for the four per-access event columns.

    Appends write into a preallocated numpy chunk; when a chunk fills, it
    is sealed and a fresh one allocated.  A batch lands between two runs
    of scalar appends, so the run before it is sealed *in place*: a view
    of ``[_start:_pos]`` joins the parts and the chunk keeps filling behind
    it (a fresh 1.4 MB chunk per batch is what a seal used to cost).  This
    replaces six parallel Python lists: ~3x less memory (machine ints, not
    PyObject boxes) and a near-free :meth:`frozen` (no per-element
    list->array conversion).
    """

    __slots__ = ("_cap", "_full", "_addr", "_rw", "_iat", "_reg", "_pos",
                 "_start", "count")

    def __init__(self, chunk: int = _CHUNK):
        self._cap = chunk
        self.clear()

    def clear(self) -> None:
        self._full: list[tuple[np.ndarray, ...]] = []
        self._alloc()
        self.count = 0

    def _alloc(self) -> None:
        self._addr = np.empty(self._cap, np.uint64)
        self._rw = np.empty(self._cap, np.uint8)
        self._iat = np.empty(self._cap, np.uint64)
        self._reg = np.empty(self._cap, np.uint32)
        self._pos = self._start = 0

    def _seal(self) -> None:
        s, p = self._start, self._pos
        if p > s:
            self._full.append((self._addr[s:p], self._rw[s:p],
                               self._iat[s:p], self._reg[s:p]))
            self._start = p

    def append(self, addr: int, rw: int, iat: int, reg: int) -> None:
        p = self._pos
        if p == self._cap:
            self._seal()
            self._alloc()
            p = 0
        self._addr[p] = addr
        self._rw[p] = rw
        self._iat[p] = iat
        self._reg[p] = reg
        self._pos = p + 1
        self.count += 1

    def extend_cols(self, addrs: np.ndarray, rw: np.ndarray,
                    iat: np.ndarray, reg: np.ndarray) -> None:
        """Batch append with full per-access columns (no broadcasting).

        All four arrays must be freshly built (or copied) by the caller —
        the buffer takes ownership of them.
        """
        k = len(addrs)
        if not k:
            return
        self._seal()
        self._full.append((np.asarray(addrs, np.uint64),
                           np.asarray(rw, np.uint8),
                           np.asarray(iat, np.uint64),
                           np.asarray(reg, np.uint32)))
        self.count += k

    def frozen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        self._seal()
        dts = (np.uint64, np.uint8, np.uint64, np.uint32)
        return tuple(_cat([pt[j] for pt in self._full], dts[j])
                     for j in range(4))


class _BranchBuf:
    """Growable chunked storage for the two branch-event columns (sealed
    in place, as :class:`_AccessBuf`)."""

    __slots__ = ("_cap", "_full", "_site", "_taken", "_pos", "_start",
                 "count")

    def __init__(self, chunk: int = _CHUNK):
        self._cap = chunk
        self.clear()

    def clear(self) -> None:
        self._full: list[tuple[np.ndarray, np.ndarray]] = []
        self._alloc()
        self.count = 0

    def _alloc(self) -> None:
        self._site = np.empty(self._cap, np.uint32)
        self._taken = np.empty(self._cap, np.uint8)
        self._pos = self._start = 0

    def _seal(self) -> None:
        s, p = self._start, self._pos
        if p > s:
            self._full.append((self._site[s:p], self._taken[s:p]))
            self._start = p

    def append(self, site: int, taken: int) -> None:
        p = self._pos
        if p == self._cap:
            self._seal()
            self._alloc()
            p = 0
        self._site[p] = site
        self._taken[p] = taken
        self._pos = p + 1
        self.count += 1

    def extend(self, sites: np.ndarray, taken: np.ndarray) -> None:
        k = len(sites)
        if not k:
            return
        self._seal()
        self._full.append((np.asarray(sites, np.uint32),
                           np.asarray(taken, np.uint8)))
        self.count += k

    def frozen(self) -> tuple[np.ndarray, np.ndarray]:
        self._seal()
        return (_cat([pt[0] for pt in self._full], np.uint32),
                _cat([pt[1] for pt in self._full], np.uint8))


class Tracer:
    """Append-only event recorder attached to a :class:`PropertyGraph`.

    Hot-path methods are single-letter (:meth:`r`, :meth:`w`, :meth:`i`,
    :meth:`br`) because they are called per memory access / branch; the
    descriptive aliases (``read``/``write``/...) delegate to them.  The
    vectorized kernels use :meth:`bulk_emit` and
    :meth:`bulk_branch_events` instead — a batch joins the chunk buffers
    as whole arrays, a few array ops rather than a Python loop.
    """

    def __init__(self):
        self._acc = _AccessBuf()
        self._br = _BranchBuf()
        self._rseq: list[int] = [R_IDLE]
        self._rcnt: list[int] = [0]
        self._rstack: list[int] = [R_IDLE]
        self.regions: dict[int, Region] = {r.rid: r for r in _FRAMEWORK_REGIONS}
        self._next_user_rid = USER_REGION_BASE
        self._next_user_bsite = USER_BRANCH_BASE
        self.n = 0              # retired instruction counter
        self.fw_instrs = 0
        self.fw_accesses = 0
        self._cur_rid = R_IDLE
        self._cur_fw = False    # region R_IDLE is user code

    # -- region management --------------------------------------------------
    def register_region(self, name: str, code_bytes: int = 256,
                        framework: bool = False) -> int:
        """Register a user code region (a workload kernel); returns its id."""
        rid = self._next_user_rid
        self._next_user_rid += 1
        self.regions[rid] = Region(rid, name, code_bytes, framework)
        return rid

    def register_branch_site(self) -> int:
        """Reserve a static branch-site id for a user (workload) branch."""
        site = self._next_user_bsite
        self._next_user_bsite += 1
        return site

    def enter(self, rid: int) -> None:
        """Enter a code region (primitive call / kernel start)."""
        self._rstack.append(rid)
        self._rseq.append(rid)
        self._rcnt.append(0)
        self._cur_rid = rid
        self._cur_fw = self.regions[rid].framework

    def leave(self) -> None:
        """Leave the current region, resuming its caller."""
        if len(self._rstack) <= 1:
            raise TraceError("unbalanced Tracer.leave()")
        self._rstack.pop()
        rid = self._rstack[-1]
        self._rseq.append(rid)
        self._rcnt.append(0)
        self._cur_rid = rid
        self._cur_fw = self.regions[rid].framework

    @property
    def region(self) -> int:
        """Id of the region now executing (read-only; what a precomputed
        block must return to — see :meth:`bulk_emit`)."""
        return self._cur_rid

    # -- hot-path event recording -------------------------------------------
    def r(self, addr: int) -> None:
        """Record a load of ``addr``."""
        self._acc.append(addr, 0, self.n, self._cur_rid)
        if self._cur_fw:
            self.fw_accesses += 1

    def w(self, addr: int) -> None:
        """Record a store to ``addr``."""
        self._acc.append(addr, 1, self.n, self._cur_rid)
        if self._cur_fw:
            self.fw_accesses += 1

    def i(self, count: int) -> None:
        """Charge ``count`` retired instructions to the current region."""
        self.n += count
        self._rcnt[-1] += count
        if self._cur_fw:
            self.fw_instrs += count

    def br(self, site: int, taken: bool) -> None:
        """Record a conditional branch outcome at static ``site``."""
        self._br.append(site, 1 if taken else 0)

    # descriptive aliases
    read = r
    write = w
    instr = i
    branch = br

    # -- bulk recording (the vectorized kernels) ------------------------------
    def bulk_emit(self, addrs, rw, iat, regions, *, n_instrs: int,
                  fw_instrs: int, fw_accesses: int, head_instrs: int = 0,
                  region_seq=None, region_instrs=None) -> None:
        """Append a fully precomputed event block (vectorized kernels).

        This is the raw back door behind the loop-equivalent bulk helpers:
        the caller supplies complete per-access columns (``addrs``/``rw``/
        ``iat``/``regions``), total charged instructions, the framework
        splits, and the region-visit bookkeeping:

        * ``head_instrs`` accrue to the visit that is open when the block
          starts (instructions charged before the first region transition);
        * ``region_seq``/``region_instrs`` are the visits the block opens,
          appended verbatim.  The block must be *balanced*: its last visit
          must re-enter the region that was current when it began, so the
          tracer resumes exactly where a loop of ``enter``/``leave`` calls
          would have left it.

        ``iat`` values are absolute instruction indices; the caller builds
        them from ``self.n`` before calling.  A block is refused, the
        tracer left as it was, when the per-visit split is inconsistent
        (``head + sum(region_instrs) != n_instrs``) or when ``iat`` runs
        backwards anywhere or leaves ``[self.n, self.n + n_instrs]`` — the
        arch model may rely on a trace's ``iat`` never decreasing.
        """
        seq = [] if region_seq is None else np.asarray(region_seq).tolist()
        cnt = ([] if region_instrs is None
               else np.asarray(region_instrs, dtype=np.int64).tolist())
        if len(seq) != len(cnt):
            raise TraceError("bulk_emit: region_seq/region_instrs length "
                             f"mismatch ({len(seq)} vs {len(cnt)})")
        if head_instrs + sum(cnt) != n_instrs:
            raise TraceError("bulk_emit: per-visit instruction split does "
                             "not sum to n_instrs")
        if seq and seq[-1] != self._cur_rid:
            raise TraceError("bulk_emit: unbalanced block (last visit "
                             f"{seq[-1]} != current region {self._cur_rid})")
        a = np.asarray(addrs, dtype=np.uint64)
        at = np.asarray(iat, np.uint64)
        k = len(a)
        if k:
            if (at[1:] < at[:-1]).any():
                raise TraceError("bulk_emit: iat decreases inside the block")
            if int(at[0]) < self.n or int(at[-1]) > self.n + n_instrs:
                raise TraceError(
                    f"bulk_emit: iat [{at[0]}, {at[-1]}] leaves the block's "
                    f"instructions [{self.n}, {self.n + n_instrs}]")
            self._acc.extend_cols(a, np.asarray(rw, np.uint8), at,
                                  np.asarray(regions, np.uint32))
        self.n += int(n_instrs)
        self.fw_instrs += int(fw_instrs)
        self.fw_accesses += int(fw_accesses)
        self._rcnt[-1] += int(head_instrs)
        if seq:
            self._rseq.extend(seq)
            self._rcnt.extend(cnt)

    def bulk_branch_events(self, sites, taken) -> None:
        """Record a batch of branch outcomes with per-event site ids.
        As for :meth:`br`, an outcome is taken when non-zero."""
        s = np.asarray(sites)
        if not len(s):
            return
        self._br.extend(s.astype(np.uint32),
                        (np.asarray(taken) != 0).view(np.uint8))

    # -- finishing -----------------------------------------------------------
    @property
    def n_accesses(self) -> int:
        return self._acc.count

    def freeze(self) -> FrozenTrace:
        """Convert the accumulated events into a :class:`FrozenTrace`.

        Idempotent and aliasing-safe: every returned array is freshly
        owned, so freezing twice, or mutating/resetting the tracer after a
        freeze, never changes a previously returned trace.
        """
        addrs, rw, iat, acc_region = self._acc.frozen()
        bsites, btaken = self._br.frozen()
        return FrozenTrace(
            addrs=addrs,
            rw=rw,
            iat=iat,
            acc_region=acc_region,
            branch_sites=bsites,
            branch_taken=btaken,
            region_seq=np.asarray(self._rseq, dtype=np.uint32),
            region_instrs=np.asarray(self._rcnt, dtype=np.uint64),
            regions=dict(self.regions),
            n_instrs=self.n,
            fw_instrs=self.fw_instrs,
            fw_accesses=self.fw_accesses,
            n_accesses=self._acc.count,
        )

    def reset(self) -> None:
        """Drop all recorded events (keeps registered regions/sites)."""
        self._acc.clear()
        self._br.clear()
        self._rseq = [R_IDLE]
        self._rcnt = [0]
        self._rstack = [R_IDLE]
        self.n = 0
        self.fw_instrs = 0
        self.fw_accesses = 0
        self._cur_rid = R_IDLE
        self._cur_fw = False
