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
``tests/oracles.py:gibbs_sample`` exactly (tested).  The
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
from ..core import graph as G
from ..core.graph import PropertyGraph
from ..core.taxonomy import ComputationType, WorkloadCategory
from ._bulk import GraphView, I64, Layout, offsets_of, ragged_arange
from .base import NullTracer, Workload


def build_bn_graph(bn: BayesianNetwork) -> PropertyGraph:
    """Materialize a Bayesian network as a PropertyGraph with CPT payloads.

    Vertices get a ``cpt`` payload sized to the CPT's table and a ``state``
    property; edges follow parent -> child direction.  The topology is
    laid out first, on the aged heap with the common schemas, then the
    payloads in vertex order.
    """
    from ..core.memmodel import AGED_HEAP
    from .base import common_edge_schema, common_vertex_schema
    g = PropertyGraph.from_edges(
        bn.n, bn.edges(), directed=True,
        vertex_schema=common_vertex_schema(),
        edge_schema=common_edge_schema(),
        heap=AGED_HEAP, skip_duplicates=False)
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
               n_sweeps: int, burn_in: int, seed: int = 0,
               evidence: dict[int, int] | None = None) -> dict[str, Any]:
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
        """Lay out the loop oracle's sweeps (the state-initialisation
        prologue went through the real primitives).

        One sweep is a fixed template.  Per visited vertex of arity ``a``:
        find-vertex, CPT pointer load, ``a`` own-row reads and the head of
        the child walk; per child the walk step, find-vertex, CPT pointer
        load, state read and ``a`` child-CPT reads; then the walk's exit,
        the draw and the state write.  The template is laid out once and
        tiled over the sweeps; per sweep only the own-row offset and the
        ``site_sample`` outcome are patched.
        """
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
        off_cpt = G.V_PROP_OFF + g.vschema.offset("cpt")
        off_state = G.V_PROP_OFF + g.vschema.offset("state")

        vr = gv.rows_of(free)                   # graph row of each visit
        a, d = arity[vr], gv.deg[vr]
        visit = np.arange(F, dtype=I64)
        ov = np.repeat(visit, a)                # own reads: visit,
        ox = ragged_arange(a)                   #   column
        eidx = gv.out_edges_of(vr)              # child probes: edge,
        cr = gv.out_dst[eidx]                   #   child row,
        ev = np.repeat(visit, d)                #   visit,
        ej = ragged_arange(d)                   #   ordinal in the visit,
        ea = a[ev]                              #   trip count (own arity)
        ce = np.repeat(np.arange(len(eidx), dtype=I64), ea)  # child reads:
        cx = ragged_arange(ea)                  #   probe, column

        # keys: (visit, 0 = own CPT / 1 + j = child j / 1 + d = the draw,
        # place in that group)
        find = G.find_vertex_ops("idx", "v")
        cpt_ptr = G.payload_get_ops("v", off_cpt)
        trip = (("br", site_cpt_loop, 1),)
        done = (("br", site_cpt_loop, 0),)
        walk = G.neighbors_ops("v", "e")
        lay = Layout(t)
        lay.add(find + cpt_ptr, (visit, 0, 0), idx=gv.idx_addr[vr],
                v=gv.vaddr[vr])
        own = lay.add(trip + G.payload_read_ops("p", 9), (ov, 0, 1),
                      p=cpt_addr[vr][ov] + 8 * ox)   # row 0; patched per sweep
        lay.add(done + walk.head, (visit, 0, 2), v=gv.vaddr[vr])
        lay.add(walk.step + find + cpt_ptr + (("i", 4),)
                + G.vget_ops("v", off_state), (ev, 1 + ej, 0),
                e=gv.out_eaddr[eidx], idx=gv.idx_addr[cr], v=gv.vaddr[cr])
        lay.add(trip + G.payload_read_ops("p", 11), (ev[ce], 1 + ej[ce], 1),
                p=cpt_addr[cr][ce] + 8 * (cx % cpt_size[cr][ce]))
        lay.add(done + walk.resume, (ev, 1 + ej, 2))
        lay.add(walk.exit, (visit, 1 + d, 0))
        draw = lay.add((("i", "work"), ("br", site_sample, 0))  # patched
                       + G.vset_ops("v", off_state), (visit, 1 + d, 1),
                       work=12 * a,             # normalize + inverse-CDF draw
                       v=gv.vaddr[vr])
        sweep = lay.build(keep=(own, draw))

        # --- tile over the sweeps and patch ------------------------------
        blk = sweep.tiled(S)
        blk.acc.addr.reshape(S, -1)[:, sweep.acc_at[own]] += \
            (8 * a * rows.reshape(S, F))[:, ov]
        blk.taken.reshape(S, -1)[:, sweep.br_at[draw]] = changed.reshape(S, F)
        blk.emit(g, t)
