"""Shared scaffolding for the vectorized (bulk-trace) workload kernels.

The hot kernels (BFS, CComp, kCore, TC, Gibbs) run their algorithms
untraced — on numpy CSR/bitset snapshots, Gibbs on its sampler, keeping
two facts per visit — and emit the *exact* event stream of their original
loop implementations through :meth:`Tracer.bulk_emit` — per-element
identical addresses, rw flags, instruction indices, regions, branch sites
and region visits (the equivalence bar ``scan_vertices`` already meets,
extended to whole kernels).  The loop implementations are the oracles in
``tests/oracles.py``; ``tests/test_workloads_vectorized.py`` asserts full
frozen-trace equality between the two.

This module holds the pieces the five kernels share:

* :class:`GraphView` — a one-pass numpy snapshot of the property graph's
  topology (CSR out-lists in insertion order, in-lists in set order,
  struct/index addresses, vid→row lookup);
* ragged-array helpers (:func:`offsets_of`, :func:`ragged_arange`) for
  splicing variable-width per-item event blocks into one stream;
* :func:`first_unseen` — the frontier dedup of a level-synchronous
  traversal;
* :class:`AccessBlock` — the access arrays of one bulk block, filled by
  position and emitted with the stack rotation mirroring
  ``PropertyGraph._stack_touch``; :meth:`AccessBlock.tiled` repeats a
  block whose shape recurs (a Gibbs sweep), advancing instruction indices
  and stack ordinals per copy and leaving the addresses for the caller to
  patch.
"""

from __future__ import annotations

import numpy as np

from ..core import graph as G

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
        out_dst_vid = np.empty(m, I64)
        self.out_eaddr = np.empty(m, I64)
        pos = 0
        for v in vs:
            for dst, node in v.out.items():
                out_dst_vid[pos] = dst
                self.out_eaddr[pos] = node.addr
                pos += 1
        self.indeg = np.fromiter((len(v.inn) for v in vs), I64, count=n)
        self.in_indptr = np.zeros(n + 1, I64)
        np.cumsum(self.indeg, out=self.in_indptr[1:])
        in_src_vid = np.empty(int(self.in_indptr[-1]), I64)
        pos = 0
        for v in vs:
            for src in v.inn:
                in_src_vid[pos] = src
                pos += 1
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
        current instruction count."""
        stk = self.sord > 0
        # mirrors PropertyGraph._stack_touch's rotation over four hot lines
        self.addr[stk] = g._stack_base + 64 * ((g._sp + self.sord[stk]) & 3)
        g._sp = (g._sp + int(stk.sum())) & 3
        self.iat += t.n
        t.bulk_emit(self.addr.astype(np.uint64), self.rw,
                    self.iat.astype(np.uint64), self.reg, **counts)
