"""Gibbs — Gibbs sampling inference on a Bayesian network (CompProp).

The suite's rich-property workload: the graph is a Bayesian network whose
vertices carry CPT payloads (MUNIN-like: 1041 vertices, 1397 edges, ~80k
parameters).  Each sweep resamples every variable from its Markov-blanket
conditional: memory accesses concentrate inside the per-vertex CPT payload
with a regular pattern, and numeric work dominates — the CompProp
signature behind the low MPKI / low DTLB / high IPC / ~50 % backend
numbers of Figs. 5–8.

The kernel samples first and emits afterwards.  The sweeps run as pure
math — :func:`repro.bayes.network.BayesianNetwork.conditional_row` and the
*same* RNG sequence as the reference sampler, so marginal estimates match
:func:`repro.bayes.gibbs_sampler.gibbs_sample` exactly (tested).  The
CompProp access stream is then emitted in bulk: every address, instruction
count, branch site and region visit of a sweep is a function of the
topology and the arities alone, except the own-CPT row each visit reads and
whether its draw moved the state.  One sweep's event template is therefore
built once and tiled over the sweeps with those two patched in (the
instruction indices and the stack rotation advance per copy), per-element
identical to the per-visit loop over the traced primitives
(``tests/oracles.py:loop_gibbs``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..bayes.network import BayesianNetwork
from ..core import trace as T
from ..core.graph import V_HEAD_OFF, V_ID_OFF, V_PROP_OFF, PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import AccessBlock, GraphView, I64, offsets_of, ragged_arange
from .base import NullTracer, Workload


def build_bn_graph(bn: BayesianNetwork, *, tracer=None, heap=None,
                   vertex_schema=None, edge_schema=None) -> PropertyGraph:
    """Materialize a Bayesian network as a PropertyGraph with CPT payloads.

    Vertices get a ``cpt`` payload sized to the CPT's table and a ``state``
    property; edges follow parent -> child direction.
    """
    from ..core.memmodel import AGED_HEAP
    from .base import common_edge_schema, common_vertex_schema
    g = PropertyGraph(vertex_schema or common_vertex_schema(),
                      edge_schema or common_edge_schema(),
                      directed=True, tracer=tracer,
                      heap=heap or AGED_HEAP)
    for v in range(bn.n):
        g.add_vertex(v)
    for p, c in bn.edges():
        g.add_edge(p, c)
    for v in range(bn.n):
        cpt = bn.cpts[v]
        if cpt is None:
            raise ValueError(f"variable {v} has no CPT")
        vert = g.find_vertex(v)
        g.payload_set(vert, "cpt", cpt, cpt.table.size * 8)
    return g


class Gibbs(Workload):
    """Gibbs inference over a BN-backed graph.

    Parameters: ``bn`` (the network; must match the graph topology),
    ``n_sweeps``, ``burn_in``, ``seed``, optional ``evidence``.
    Returns marginal estimates and the final state.
    """

    NAME = "Gibbs"
    CTYPE = ComputationType.COMP_PROP
    CATEGORY = WorkloadCategory.ANALYTICS
    HAS_GPU = False

    def kernel(self, g: PropertyGraph, t, *, bn: BayesianNetwork,
               n_sweeps: int = 20, burn_in: int = 5, seed: int = 0,
               evidence: dict[int, int] | None = None,
               **_: Any) -> dict[str, Any]:
        if burn_in >= n_sweeps:
            raise ValueError("burn_in must be < n_sweeps")
        site_sample = t.register_branch_site()
        site_cpt_loop = t.register_branch_site()
        rng = np.random.default_rng(seed)
        evidence = dict(evidence or {})
        state = np.array([rng.integers(0, a) for a in bn.arities],
                         dtype=np.int64)
        for v, x in evidence.items():
            state[v] = x
        # initialize the state property of every vertex
        for v in g.vertices():
            t.i(2)
            g.vset(v, "state", int(state[v.vid]))
        free = [v for v in range(bn.n) if v not in evidence]
        # the sweeps as pure math (the reference sampler's loop and RNG
        # sequence), keeping per visit the two facts the event stream
        # takes from the sampling: the own-CPT row read and whether the
        # draw moved the state
        rows: list[int] = []
        changed: list[bool] = []
        count_base, n_states = offsets_of(bn.arities)
        counts = np.zeros(n_states, I64)
        for sweep in range(n_sweeps):
            for vid in free:
                rows.append(bn.cpts[vid].row_index(
                    tuple(int(state[p]) for p in bn.parents[vid])))
                probs = bn.conditional_row(vid, state)
                new = int(rng.choice(len(probs), p=probs))
                changed.append(new != state[vid])
                state[vid] = new
            if sweep >= burn_in:
                counts[count_base + state] += 1
        sslot = g.vschema.slot("state")
        for vid in free:
            g._v[vid].props[sslot] = int(state[vid])

        if not isinstance(t, NullTracer):
            self._emit(g, t, free, n_sweeps, np.asarray(rows, I64),
                       np.asarray(changed, bool), site_sample, site_cpt_loop)
        retained = n_sweeps - burn_in
        marginals = [counts[b:b + a] / retained
                     for b, a in zip(count_base.tolist(), bn.arities)]
        return {"marginals": marginals, "state": state,
                "sweeps": n_sweeps}

    def _emit(self, g: PropertyGraph, t, free, n_sweeps, rows, changed,
              site_sample, site_cpt_loop) -> None:
        """Emit the loop oracle's exact event stream for the sweeps (the
        state-initialisation prologue went through the real primitives).

        One sweep is a fixed template.  Per visited vertex of arity ``a``
        and out-degree ``d``: find-vertex, CPT pointer load, ``a`` own-row
        reads, the neighbour-walk head (5 + a accesses / 24 + 9a instrs);
        per child the walk step, find-vertex, CPT pointer load, state
        read and ``a`` child-CPT reads (8 + a accesses / 50 + 11a
        instrs); then the draw and the state write (2 accesses / 9 + 12a
        instrs).  The template is tiled over the sweeps; per sweep only
        the own-row offset and the ``site_sample`` outcome are patched.
        """
        krid = t._cur_rid
        gv = GraphView(g)
        F, S = len(free), n_sweeps
        cslot = g.vschema.slot("cpt")
        cpt_addr = np.empty(gv.n, I64)
        cpt_size = np.empty(gv.n, I64)
        arity = np.empty(gv.n, I64)
        for r, v in enumerate(gv.vs):
            cpt_addr[r], cpt = v.props[cslot]
            cpt_size[r] = max(cpt.table.size, 1)
            arity[r] = cpt.arity
        off_cpt = V_PROP_OFF + g.vschema.offset("cpt")
        off_state = V_PROP_OFF + g.vschema.offset("state")

        vr = gv.rows_of(free)                   # graph row of each visit
        a, d = arity[vr], gv.deg[vr]
        ov = np.repeat(np.arange(F, dtype=I64), a)   # own reads: visit,
        ox = ragged_arange(a)                        #   column
        eidx = gv.out_edges_of(vr)              # child probes: edge,
        cr = gv.out_dst[eidx]                   #   child row,
        ev = np.repeat(np.arange(F, dtype=I64), d)   # visit,
        ej = ragged_arange(d)                   #   ordinal in the visit,
        ea = a[ev]                              #   trip count (own arity)
        ce = np.repeat(np.arange(len(eidx), dtype=I64), ea)  # child reads:
        cx = ragged_arange(ea)                  #   probe, column

        # --- access stream of one sweep ----------------------------------
        pv, n_acc = offsets_of(7 + a + d * (8 + a))
        iv, n_ins = offsets_of(33 + 21 * a + d * (50 + 11 * a))
        sv, _ = offsets_of(2 + 3 * d)
        blk = AccessBlock(n_acc)
        put = blk.put
        va = gv.vaddr[vr]
        put(pv, 0, T.R_FIND_VERTEX, iv + 14, stk=sv + 1)
        put(pv + 1, gv.idx_addr[vr], T.R_FIND_VERTEX, iv + 14)
        put(pv + 2, va + V_ID_OFF, T.R_FIND_VERTEX, iv + 14)
        put(pv + 3, va + off_cpt, T.R_PROP_GET, iv + 22)
        own_pos = pv[ov] + 4 + ox               # row 0; patched per sweep
        put(own_pos, cpt_addr[vr][ov] + 8 * ox, T.R_PAYLOAD,
            iv[ov] + 22 + 9 * (ox + 1))
        put(pv + 4 + a, va + V_HEAD_OFF, T.R_NEIGHBORS, iv + 24 + 9 * a)
        pe = pv[ev] + 5 + ea + ej * (8 + ea)
        ie = iv[ev] + 24 + 9 * ea + ej * (50 + 11 * ea)
        se = sv[ev] + 1 + 3 * ej
        ca = gv.vaddr[cr]
        put(pe, 0, T.R_NEIGHBORS, ie + 16, stk=se + 1)
        put(pe + 1, gv.out_eaddr[eidx], T.R_NEIGHBORS, ie + 16)
        put(pe + 2, 0, T.R_FIND_VERTEX, ie + 30, stk=se + 2)
        put(pe + 3, gv.idx_addr[cr], T.R_FIND_VERTEX, ie + 30)
        put(pe + 4, ca + V_ID_OFF, T.R_FIND_VERTEX, ie + 30)
        put(pe + 5, ca + off_cpt, T.R_PROP_GET, ie + 38)
        put(pe + 6, 0, T.R_PROP_GET, ie + 50, stk=se + 3)
        put(pe + 7, ca + off_state, T.R_PROP_GET, ie + 50)
        put(pe[ce] + 8 + cx, cpt_addr[cr][ce] + 8 * (cx % cpt_size[cr][ce]),
            T.R_PAYLOAD, ie[ce] + 50 + 11 * (cx + 1))
        pt = pv + 5 + a + d * (8 + a)
        it = iv + 33 + 21 * a + d * (50 + 11 * a)
        put(pt, 0, T.R_PROP_SET, it, stk=sv + 2 + 3 * d)
        put(pt + 1, va + off_state, T.R_PROP_SET, it, wr=True)

        # --- branches: arity-loop trips everywhere, except the find hits,
        # the edge-loop tests and the data-dependent sample test ----------
        bv, n_br = offsets_of(4 + a + d * (3 + a))
        sites = np.full(n_br, site_cpt_loop, np.uint32)
        taken = np.ones(n_br, np.uint8)
        sites[bv] = T.B_FIND_HIT
        taken[bv + a + 1] = 0
        be = bv[ev] + ea + 2 + ej * (3 + ea)
        sites[be] = T.B_EDGE_LOOP
        sites[be + 1] = T.B_FIND_HIT
        taken[be + 2 + ea] = 0
        bt = bv + a + 2 + d * (3 + a)
        sites[bt] = T.B_EDGE_LOOP
        taken[bt] = 0
        sites[bt + 1] = site_sample             # outcome patched per sweep

        # --- region visits: every primitive returns to the kernel --------
        vv, n_vis = offsets_of(8 + 2 * a + d * (8 + 2 * a))
        vseq = np.full(n_vis, krid, np.uint32)
        vcnt = np.zeros(n_vis, I64)
        vseq[vv], vcnt[vv] = T.R_FIND_VERTEX, 14
        vseq[vv + 2], vcnt[vv + 2] = T.R_PROP_GET, 8
        p = vv[ov] + 4 + 2 * ox
        vseq[p], vcnt[p] = T.R_PAYLOAD, 9
        pn = vv + 4 + 2 * a
        vseq[pn] = T.R_NEIGHBORS
        vcnt[pn] = 2 + 16 * (d > 0)
        ve = pn[ev] + 2 + ej * (8 + 2 * ea)
        vseq[ve], vcnt[ve] = T.R_FIND_VERTEX, 14
        vseq[ve + 2], vcnt[ve + 2] = T.R_PROP_GET, 8
        vcnt[ve + 3] = 4
        vseq[ve + 4], vcnt[ve + 4] = T.R_PROP_GET, 8
        p = ve[ce] + 6 + 2 * cx
        vseq[p], vcnt[p] = T.R_PAYLOAD, 11
        vseq[ve + 6 + 2 * ea] = T.R_NEIGHBORS
        vcnt[ve + 6 + 2 * ea] = 16 * (ej < d[ev] - 1)
        vt = pn + 2 + d * (8 + 2 * a)
        vcnt[vt - 1] = 12 * a                   # normalize + inverse-CDF draw
        vseq[vt], vcnt[vt] = T.R_PROP_SET, 9

        # --- tile over the sweeps and patch ------------------------------
        blk = blk.tiled(S, n_ins)
        blk.addr.reshape(S, n_acc)[:, own_pos] += \
            (8 * a * rows.reshape(S, F))[:, ov]
        taken = np.tile(taken, S)
        taken.reshape(S, n_br)[:, bt + 1] = changed.reshape(S, F)
        blk.emit(g, t, n_instrs=S * n_ins,
                 fw_instrs=S * (n_ins - int((4 * d + 12 * a).sum())),
                 fw_accesses=S * n_acc,
                 region_seq=np.tile(vseq, S), region_instrs=np.tile(vcnt, S))
        t.bulk_branch_events(np.tile(sites, S), taken)
