"""Shared scaffolding for the vectorized (bulk-trace) workload kernels.

Seven kernels (BFS, CComp, kCore, TC, DCentr, SPath, Gibbs) run their
algorithms untraced — on numpy CSR/bitset snapshots; SPath's Dijkstra and
kCore's peel as Python loops over the snapshot's lists that *record* what
the trace depends on; Gibbs on its sampler, keeping two facts per visit —
and emit the *exact* event stream of their original loop implementations
through :meth:`Tracer.bulk_emit` — per-element identical addresses, rw
flags, instruction indices, regions, branch sites and region visits (the
equivalence bar each ``*_ops`` declaration meets against its scalar
primitive, extended to whole kernels).  The loop implementations are the
oracles in ``tests/oracles.py``; ``tests/test_workloads_vectorized.py``
asserts full frozen-trace equality between the two.

This module holds the pieces the seven kernels share:

* :class:`GraphView` — a one-pass numpy snapshot of the property graph's
  topology (CSR out-lists in insertion order, in-lists in set order,
  struct/index addresses, vid→row lookup);
* ragged-array helpers (:func:`offsets_of`, :func:`ragged_arange`) and
  :func:`first_unseen`, the frontier dedup of a level-synchronous
  traversal;
* :class:`AccessBlock` — the access arrays of one bulk block, filled by
  position and emitted with the stack rotation mirroring
  ``PropertyGraph._stack_touch``;
* :class:`Layout` / :class:`Block` — the layout engine;
* :func:`adjacency_sweep` — the block vertex scan and per-vertex block
  walk kCore and TC open with, laid as one block from ``scan_vertices_ops``
  / ``neighbor_ids_ops`` (scalar forms ``scan_vertices`` / ``neighbor_ids``
  in ``tests/oracles.py``), handing back the :class:`GraphView` it walked.

The layout engine
-----------------
A kernel does not count offsets.  It declares *items* and the engine lays
them out.  An **item** is one recurrence of the loop oracle's body — a
popped vertex, a relaxed edge, a bucket probe; its **kind** is a micro-op
program: the concatenation of the framework primitives' own event shapes
(``repro.core.graph``'s ``*_ops``, ``TracedQueue.push_ops``/``pop_ops`` —
each declared beside the scalar code it restates, from the same ``C_*``
charges) and the kernel's user charges (``("i", 4)``, ``("br", site,
"col")``).  All items of a kind share the program and differ in their
operands, given as columns with one entry per item.  A kind need not be
balanced: a generator primitive is declared in pieces (``head`` / ``step``
/ ``resume`` / ``exit``), and an item may end inside the walk its successor
continues (``("in", rid)`` heads such a piece; :meth:`Layout.build` checks
that consecutive items agree).  Each item carries a **key**, a tuple of
integers; the block is the items in lexicographic key order (one stable
``np.lexsort``; items with equal keys stay in the order they were
declared), so a kernel states order the way its loops nest — ``(pop, 0)`` for the pop,
``(pop, 1 + edge)`` for its edges, ``(pop, E + 1)`` for the walk's exit.
A piece of variable length — the sift path of a heap push, ⌊log₂ L⌋ + 1
slots — is not an item kind per length but one single-access item per
node, its level the last entry of the key (SPath: 2 000 paths, 18 k items
on ``ldbc`` 0.25, far below where the per-item tables cost anything).

From the programs and the order the engine derives what the emitters used
to restate by hand: per-item access, instruction, stack-ordinal, branch
and region-visit offsets; the region current at every access; and the
**carry rule** of :class:`~repro.core.trace.Tracer` — instructions an item
charges before its first ``enter``/``leave`` accrue to the visit already
open, i.e. to the last visit of whichever item precedes it (or to the
block's ``head_instrs``), so "the next pop's dequeue charge lands in this
edge's last visit" is no longer anyone's special case.  ``fw_instrs`` and
``fw_accesses`` are *derived*, in :meth:`Block.emit` alone, from the laid
visits and access regions through ``Region.framework``: a hand-summed
formula per kernel was a second definition of every primitive's cost.

Gibbs lays out one sweep, asks :meth:`Layout.build` to ``keep`` where two
of its kinds landed, tiles the block (:meth:`Block.tiled`) and patches what
sampling decides per sweep: the own-CPT row offset of every own-row read
and the ``site_sample`` outcome.  One block stays hand-laid: TC's
``_emit_merge`` (user code only — no primitive, region transition or stack
touch to derive; 0.7 M items of 1.9 accesses each on ``ldbc`` 0.25, where
the engine's per-item tables cost more than the stream itself: 46 ms by
hand, 125 ms through the engine); it is handed over through
:meth:`Block.in_place`, so its framework split is derived like any other.
TC's rank pass and list writes go through the engine.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..core import graph as G
from ..core.errors import TraceError
from .base import NullTracer

I64 = np.int64


class GraphView:
    """Numpy snapshot of a :class:`PropertyGraph`'s topology and simulated
    addresses, in the iteration orders the traced primitives use:
    vertices in insertion (dict) order, out-edges in adjacency insertion
    order, in-neighbours in set iteration order."""

    def __init__(self, g: G.PropertyGraph):
        vs = list(g._v.values())
        self.vs = vs
        n = len(vs)
        self.n = n
        self.vids = np.fromiter((v.vid for v in vs), I64, count=n)
        self.vaddr = np.fromiter((v.addr for v in vs), I64, count=n)
        self.deg = np.fromiter((len(v.out) for v in vs), I64, count=n)
        self.out_indptr = np.zeros(n + 1, I64)
        np.cumsum(self.deg, out=self.out_indptr[1:])
        m = int(self.out_indptr[-1])
        out_dst_vid = np.fromiter(
            chain.from_iterable(v.out for v in vs), I64, count=m)
        self.out_eaddr = np.fromiter(
            (e.addr for v in vs for e in v.out.values()), I64, count=m)
        self.indeg = np.fromiter((len(v.inn) for v in vs), I64, count=n)
        self.in_indptr = np.zeros(n + 1, I64)
        np.cumsum(self.indeg, out=self.in_indptr[1:])
        in_src_vid = np.fromiter(
            chain.from_iterable(v.inn for v in vs), I64,
            count=int(self.in_indptr[-1]))
        self._order = np.argsort(self.vids, kind="stable")
        self._sorted_vids = self.vids[self._order]
        self.out_dst = self.rows_of(out_dst_vid)
        self.in_src = self.rows_of(in_src_vid)
        self.index_base = g._index_base
        self.index_cap = g._index_cap
        self.idx_addr = (self.index_base
                         + G.INDEX_ENTRY * (self.vids % self.index_cap))

    def rows_of(self, vid_arr: np.ndarray) -> np.ndarray:
        """Row indices of the given vertex ids (all must exist)."""
        a = np.asarray(vid_arr, I64)
        return self._order[np.searchsorted(self._sorted_vids, a)]

    def out_edges_of(self, rows: np.ndarray) -> np.ndarray:
        """Flat CSR edge indices of ``rows``'s out-lists, concatenated in
        row order (each row's edges in adjacency order)."""
        return csr_gather(self.out_indptr, self.deg, rows)

    def in_edges_of(self, rows: np.ndarray) -> np.ndarray:
        """Flat in-list indices of ``rows``, concatenated in row order."""
        return csr_gather(self.in_indptr, self.indeg, rows)


def offsets_of(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """(exclusive-cumsum starts, total) of per-block lengths."""
    lengths = np.asarray(lengths, I64)
    starts = np.zeros(len(lengths) + 1, I64)
    np.cumsum(lengths, out=starts[1:])
    return starts[:-1], int(starts[-1])


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated (vectorized)."""
    counts = np.asarray(counts, I64)
    starts, total = offsets_of(counts)
    return np.arange(total, dtype=I64) - np.repeat(starts, counts)


def csr_gather(indptr: np.ndarray, counts: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Flat indices selecting ``rows``'s slices of a CSR array, in row
    order — ``concatenate([arange(indptr[r], indptr[r+1]) for r in rows])``
    without the loop."""
    c = counts[rows]
    return ragged_arange(c) + np.repeat(indptr[rows], c)


def first_unseen(seen: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mask over ``targets`` (rows, in visit order) of the first occurrence
    of each row not yet in ``seen`` — the relaxations a sequential
    traversal of this level would find unvisited."""
    cand = np.flatnonzero(~seen[targets])
    fresh = np.zeros(len(targets), bool)
    if len(cand):
        _, first = np.unique(targets[cand], return_index=True)
        fresh[cand[first]] = True
    return fresh


class AccessBlock:
    """The access stream of one bulk block, written by position.

    ``put`` scatters one access per given position; instruction indices
    are relative to the block start.  A stack touch passes ``stk``, its
    1-based ordinal among the block's stack touches, in place of an
    address.  ``emit`` resolves those to the rotating stack lines, advances
    the graph's stack pointer and hands the block to the tracer.
    """

    def __init__(self, n_acc: int):
        self.addr = np.empty(n_acc, I64)
        self.rw = np.zeros(n_acc, np.uint8)
        self.iat = np.empty(n_acc, I64)
        self.reg = np.empty(n_acc, np.uint32)
        self.sord = np.zeros(n_acc, I64)

    def put(self, pos, a, region, ioff, *, wr=False, stk=None) -> None:
        self.addr[pos] = a
        self.reg[pos] = region
        self.iat[pos] = ioff
        if wr:
            self.rw[pos] = 1
        if stk is not None:
            self.sord[pos] = stk

    def tiled(self, reps: int, n_instrs: int) -> "AccessBlock":
        """This block ``reps`` times back to back: copy ``k``'s instruction
        indices are advanced by ``k * n_instrs`` (the block's own
        instruction length) and its stack ordinals continue where copy
        ``k - 1`` stopped, so the rotation carries across copies.
        Addresses, rw flags and regions repeat as they are; the caller
        patches what differs from copy to copy."""
        n = len(self.addr)
        out = AccessBlock(reps * n)
        k = np.arange(reps, dtype=I64)[:, None]
        out.addr.reshape(reps, n)[:] = self.addr
        out.rw.reshape(reps, n)[:] = self.rw
        out.reg.reshape(reps, n)[:] = self.reg
        out.iat.reshape(reps, n)[:] = self.iat + k * n_instrs
        stk = self.sord > 0
        out.sord.reshape(reps, n)[:] = np.where(
            stk, self.sord + k * int(stk.sum()), 0)
        return out

    def emit(self, g: G.PropertyGraph, t, **counts) -> None:
        """Emit through ``t.bulk_emit(..., **counts)`` at the tracer's
        current instruction count.  The tracer takes the block's own
        arrays, resolved and shifted in place (no copy), so the block is
        spent: emitting it again raises."""
        if self.addr is None:
            raise TraceError("AccessBlock.emit: block already emitted")
        stk = self.sord > 0
        # mirrors PropertyGraph._stack_touch's rotation over four hot lines
        self.addr[stk] = g._stack_base + 64 * ((g._sp + self.sord[stk]) & 3)
        g._sp = (g._sp + int(stk.sum())) & 3
        self.iat += t.n
        addr, iat = self.addr.view(np.uint64), self.iat.view(np.uint64)
        self.addr = self.iat = self.sord = None
        t.bulk_emit(addr, self.rw, iat, self.reg, **counts)


class Block:
    """One laid-out block: the access stream, the branch stream, the region
    visits it opens and its instruction total.  ``acc_at`` / ``br_at`` map
    the item kinds named to :meth:`Layout.build`'s ``keep`` to the position
    of each of their items' first access / branch, for patching."""

    def __init__(self, acc: AccessBlock, sites, taken, vseq, vcnt,
                 n_instrs: int, head_instrs: int, acc_at=None, br_at=None):
        self.acc, self.sites, self.taken = acc, sites, taken
        self.vseq, self.vcnt = vseq, vcnt
        self.n_instrs, self.head_instrs = n_instrs, head_instrs
        self.acc_at, self.br_at = acc_at or {}, br_at or {}

    @classmethod
    def in_place(cls, t, acc: AccessBlock, sites, taken,
                 n_instrs: int) -> "Block":
        """A hand-laid block that never leaves the region ``t`` is in:
        every access is that region's, every instruction accrues to the
        visit already open."""
        acc.reg[:] = t.region
        return cls(acc, sites, taken, np.empty(0, np.uint32),
                   np.empty(0, I64), n_instrs, n_instrs)

    def tiled(self, reps: int) -> "Block":
        """This block ``reps`` times back to back (see
        :meth:`AccessBlock.tiled`).  It must open with a region transition:
        head instructions would belong to the previous copy's last visit."""
        if self.head_instrs:
            raise TraceError("Block.tiled: block has head instructions")
        return Block(self.acc.tiled(reps, self.n_instrs),
                     np.tile(self.sites, reps), np.tile(self.taken, reps),
                     np.tile(self.vseq, reps), np.tile(self.vcnt, reps),
                     reps * self.n_instrs, 0)

    def emit(self, g: G.PropertyGraph, t) -> None:
        """Append the block to ``t``.  The framework share of instructions
        and accesses is read off the visits and the per-access regions
        through ``Region.framework`` — here and nowhere else."""
        fw = np.zeros(max(t.regions) + 1, bool)
        fw[[rid for rid, r in t.regions.items() if r.framework]] = True
        self.acc.emit(
            g, t, n_instrs=self.n_instrs,
            fw_instrs=(int(self.vcnt.sum(where=fw[self.vseq]))
                       + self.head_instrs * bool(fw[t.region])),
            fw_accesses=int(np.count_nonzero(fw[self.acc.reg])),
            head_instrs=self.head_instrs, region_seq=self.vseq,
            region_instrs=self.vcnt)
        t.bulk_branch_events(self.sites, self.taken)


class _Kind:
    """One item kind, compiled: what each of its items appends to the five
    streams, as offsets from wherever the item lands."""

    def __init__(self, base: int, ops, n: int, key, cols):
        self.n, self.key = n, key
        stack = [base]
        self.accs, self.brs, self.visits = [], [], []
        self.n_stk = 0
        self.entry: tuple = ()  # regions open above the block's, at the start
        self.lead = ins = 0     # ints, or per-item arrays once a column counts
        for pos, (op, *args) in enumerate(ops):
            if op == "in":
                if pos == 0:
                    stack.append(args[0])
                    self.entry = (args[0],)
                elif stack[-1] != args[0]:
                    raise TraceError(f"item kind: in {args[0]} inside "
                                     f"region {stack[-1]}")
            elif op == "enter":
                stack.append(args[0])
                self.visits.append([args[0], 0])
            elif op == "leave":
                stack.pop()
                if not stack:
                    raise TraceError("item kind leaves the block's region")
                self.visits.append([stack[-1], 0])
            elif op == "i":
                c = cols[args[0]] if isinstance(args[0], str) else args[0]
                ins = ins + c
                if self.visits:
                    self.visits[-1][1] = self.visits[-1][1] + c
                else:
                    self.lead = self.lead + c
            elif op == "stk":
                self.n_stk += 1
                self.accs.append((stack[-1], ins, None, self.n_stk, False))
            elif op in ("r", "w"):
                self.accs.append((stack[-1], ins, cols[args[0]], args[1],
                                  op == "w"))
            elif op == "br":
                site, tk = args
                self.brs.append((site, cols[tk] if isinstance(tk, str)
                                 else tk))
            else:
                raise TraceError(f"unknown micro-op {op!r}")
        self.n_ins = ins
        self.exit = tuple(stack[1:])


class Layout:
    """Item declarations in, one :class:`Block` out (module docstring)."""

    def __init__(self, t):
        self.base = t.region
        self.kinds: list[_Kind] = []

    def add(self, ops, key, where=None, **cols) -> int:
        """Declare one item per entry of ``key`` (a tuple of arrays, ints
        broadcast), each running the micro-op program ``ops`` over its row
        of the operand columns ``cols``; with ``where``, only the items the
        mask selects.  Returns the kind's handle."""
        key = tuple(np.asarray(k, I64) for k in key)
        n = max((len(k) for k in key if k.ndim), default=1)
        if where is not None:
            key = tuple(k[where] if k.ndim else k for k in key)
            cols = {c: np.asarray(v)[where] for c, v in cols.items()}
            n = int(np.count_nonzero(where))
        self.kinds.append(_Kind(self.base, ops, n, key, cols))
        return len(self.kinds) - 1

    def build(self, keep=()) -> Block:
        """Order the items by key and lay them out."""
        kinds = self.kinds
        ends = np.cumsum([k.n for k in kinds])
        n_items = int(ends[-1]) if kinds else 0
        depth = max((len(k.key) for k in kinds), default=0)
        levels = [np.concatenate(
            [np.broadcast_to(k.key[lv], k.n) if lv < len(k.key)
             else np.zeros(k.n, I64) for k in kinds]) for lv in range(depth)]
        rank = np.empty(n_items, I64)
        rank[np.lexsort(levels[::-1])] = np.arange(n_items, dtype=I64)
        del levels
        ranks = np.split(rank, ends[:-1])       # global position, per kind

        def spread(values, dtype=I64):
            w = np.empty(n_items, dtype)
            for r, v in zip(ranks, values):
                w[r] = v
            return w

        # consecutive items must agree on the region they meet in
        code = {(): 0}
        ent = spread([code.setdefault(k.entry, len(code)) for k in kinds],
                     np.int8)
        ext = spread([code.setdefault(k.exit, len(code)) for k in kinds],
                     np.int8)
        if n_items and (ent[0] or ext[-1] or (ent[1:] != ext[:-1]).any()):
            raise TraceError("Layout: an item starts in a region other "
                             "than the one its predecessor ends in")
        del ent, ext
        acc_off, n_acc = offsets_of(spread([len(k.accs) for k in kinds]))
        ins_off, n_ins = offsets_of(spread([k.n_ins for k in kinds]))
        stk_off, _ = offsets_of(spread([k.n_stk for k in kinds]))
        br_off, n_br = offsets_of(spread([len(k.brs) for k in kinds]))
        vis_off, n_vis = offsets_of(spread([len(k.visits) for k in kinds]))
        # the carry rule: instructions an item charges before its first
        # transition accrue to the visit open when it starts
        lead = spread([k.lead for k in kinds])
        opened = vis_off > 0
        head = int(lead[~opened].sum())
        carry = np.bincount(vis_off[opened] - 1, weights=lead[opened],
                            minlength=n_vis).astype(I64)
        # where each kind's items land in the five streams; the sort's and
        # the tables' memory goes back before the block is allocated
        lands = [tuple(off[r] for off in (acc_off, ins_off, stk_off, br_off,
                                          vis_off)) for r in ranks]
        del (lead, opened, rank, ranks, spread, acc_off, ins_off, stk_off,
             br_off, vis_off)

        acc = AccessBlock(n_acc)
        sites = np.empty(n_br, np.uint32)
        taken = np.empty(n_br, np.uint8)
        vseq = np.empty(n_vis, np.uint32)
        vcnt = np.empty(n_vis, I64)
        acc_at, br_at = {}, {}
        for h, k in enumerate(kinds):
            a, i, s, b, v = lands[h]
            lands[h] = None
            for j, (region, ioff, col, off, wr) in enumerate(k.accs):
                if col is None:                 # stack touch number ``off``
                    acc.put(a + j, 0, region, i + ioff, stk=s + off)
                else:
                    acc.put(a + j, col + off, region, i + ioff, wr=wr)
            for j, (site, tk) in enumerate(k.brs):
                sites[b + j] = site
                taken[b + j] = tk
            for j, (region, count) in enumerate(k.visits):
                vseq[v + j] = region
                vcnt[v + j] = count
            if h in keep:
                acc_at[h], br_at[h] = a, b
        vcnt += carry
        return Block(acc, sites, taken, vseq, vcnt, n_ins, head, acc_at,
                     br_at)


def adjacency_sweep(g: G.PropertyGraph, t) -> GraphView:
    """The adjacency snapshot kCore and TC open with, as one block: the
    stream of the loop oracle (``scan_vertices`` / ``neighbor_ids`` from
    ``tests/oracles.py``) ::

        for v in scan_vertices(g):
            dsts = neighbor_ids(g, v)
            t.i(2 * len(dsts))          # two bookkeeping instrs per target

    — the block vertex scan, then per vertex the block walk of its
    out-list and the user charge behind it.  Returns the
    :class:`GraphView` whose out-lists are the ``dsts`` the loop would have
    seen, in the same order."""
    gv = GraphView(g)
    if isinstance(t, NullTracer):
        return gv
    scan = G.scan_vertices_ops("idx", "v")
    walk = G.neighbor_ids_ops("v", "e")
    row = np.arange(gv.n, dtype=I64)
    m = len(gv.out_dst)
    # keys: (-1, place) the scan, (row, place) the walk of the row's list
    lay = Layout(t)
    lay.add(scan.head, (-1, -1))
    lay.add(scan.step, (-1, row), idx=gv.idx_addr, v=gv.vaddr)
    lay.add(scan.exit, (-1, gv.n))
    lay.add(walk.head, (row, -1), v=gv.vaddr)
    lay.add(walk.step, (np.repeat(row, gv.deg), np.arange(m, dtype=I64)),
            e=gv.out_eaddr)
    lay.add(walk.exit + (("i", "user"),), (row, m), user=2 * gv.deg)
    lay.build().emit(g, t)
    return gv
