"""Vectorized-kernel equivalence: frozen-trace and output equality.

The tentpole guarantee of the vectorized BFS/CComp/kCore/TC/DCentr/SPath/
Gibbs kernels is that they are *per-element identical* to the original
loop kernels (kept in ``tests/oracles.py``): the same address stream,
branch sites, instruction counts and region visits, element for element —
not statistically close, equal.  These tests assert exactly that over
hypothesis-generated graph shapes (for SPath with a drawn root and edge
weights; for Gibbs: MUNIN-like networks, sweep counts and evidence sets),
plus equality of outputs and of every vertex's final properties, so any
drift in the bulk-trace emission paths fails loudly.  A count gate then
holds the ``char_cold`` kernels to what "vectorized" means: the number of
tracer calls a run makes does not grow with the graph.

Addresses are compared relative to each graph's arena base: every
:class:`SimAllocator` claims a disjoint arena, so two identical builds
differ by a constant aligned offset and nothing else.

DFS and GColor still trace call by call; their streams on two datasets
are pinned by digest.
"""

import hashlib
from collections import Counter
from itertools import cycle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.bayes import munin_like
from repro.core import graph as G
from repro.core.trace import Tracer
from repro.datagen import GraphSpec
from repro.datagen.registry import make as make_dataset
from repro.core.taxonomy import DataSource
from repro.workloads import (
    WORKLOADS, build_bn_graph, common_edge_schema, common_vertex_schema,
)
from repro.workloads import base as W

from tests.oracles import LOOP_KERNELS

VEC_KERNELS = ("BFS", "TC", "CComp", "kCore", "DCentr", "SPath")
ROOTED = ("BFS", "SPath")

TRACE_FIELDS = ("rw", "iat", "acc_region", "branch_sites", "branch_taken",
                "region_seq", "region_instrs")


@st.composite
def random_spec(draw, max_n=36, max_m=110):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=0, max_size=m))
    directed = draw(st.booleans())
    return GraphSpec("rand", DataSource.SYNTHETIC, n,
                     np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                     directed=directed)


def _build(spec):
    return spec.build(vertex_schema=common_vertex_schema(),
                      edge_schema=common_edge_schema())


def _loop_workload(name):
    """The registered workload with its kernel swapped for the loop
    oracle, so both go through the same ``Workload.run`` prologue."""
    fn = LOOP_KERNELS[name]
    return type(name + "Loop", (WORKLOADS[name],),
                {"kernel": lambda self, g, t, **p: fn(g, t, **p)})


def _run_traced(cls, spec, build, **params):
    g = build(spec)
    res = cls().run(g, tracer=Tracer(), **params)
    # a payload slot holds an (address, object) pair of its own build
    props = [[x for x in v.props if not isinstance(x, tuple)]
             for v in g._v.values()]
    return res.trace, res.outputs, g.alloc.base, (g._sp, props)


def _outputs_equal(a, b):
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(np.asarray(x), np.asarray(y)):
                return False
        elif isinstance(x, list):
            if len(x) != len(y) or not all(
                    np.array_equal(p, q) for p, q in zip(x, y)):
                return False
        elif x != y:
            return False
    return True


def _assert_traces_identical(vec, vbase, loop, lbase):
    assert np.array_equal(vec.addrs - np.uint64(vbase),
                          loop.addrs - np.uint64(lbase))
    for f in TRACE_FIELDS:
        assert np.array_equal(getattr(vec, f), getattr(loop, f)), f
    assert vec.n_instrs == loop.n_instrs
    assert vec.fw_instrs == loop.fw_instrs
    assert vec.n_accesses == loop.n_accesses
    assert vec.fw_accesses == loop.fw_accesses
    assert {r: (v.name, v.code_bytes, v.framework)
            for r, v in vec.regions.items()} == \
           {r: (v.name, v.code_bytes, v.framework)
            for r, v in loop.regions.items()}


def _check_kernel(name, spec, build=_build, **params):
    vec_trace, vec_out, vbase, vstate = _run_traced(WORKLOADS[name], spec,
                                                    build, **params)
    loop_trace, loop_out, lbase, lstate = _run_traced(_loop_workload(name),
                                                      spec, build, **params)
    _assert_traces_identical(vec_trace, vbase, loop_trace, lbase)
    assert _outputs_equal(vec_out, loop_out)
    # stack rotation and every vertex's properties left as the loop leaves
    # them (a kernel may skip the loop's intermediate writes, not the last)
    assert vstate == lstate


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_bfs_vectorized_trace_identical(spec):
    _check_kernel("BFS", spec, root=0)


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_tc_vectorized_trace_identical(spec):
    _check_kernel("TC", spec)


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_ccomp_vectorized_trace_identical(spec):
    _check_kernel("CComp", spec)


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_kcore_vectorized_trace_identical(spec):
    _check_kernel("kCore", spec)


@given(random_spec())
@settings(max_examples=25, deadline=None)
def test_dcentr_vectorized_trace_identical(spec):
    _check_kernel("DCentr", spec)
    _check_kernel("DCentr", spec, normalize=True)


def _weighted(weights):
    """``_build`` with ``weights`` written, cyclically, into the ``weight``
    slot of every stored arc."""
    def build(spec):
        g = _build(spec)
        slot = g.eschema.slot("weight")
        arcs = (e for v in g._v.values() for e in v.out.values())
        for e, w in zip(arcs, cycle(weights)):
            e.props[slot] = w
        return g
    return build


@st.composite
def spath_case(draw):
    """A graph, a root and arc weights drawn so that stale pops, ties and
    zero-weight edges all occur."""
    spec = draw(random_spec())
    weights = draw(st.lists(st.sampled_from([0, 0.5, 1, 2, 3]),
                            min_size=1, max_size=40))
    return spec, draw(st.integers(0, spec.n - 1)), weights


@given(spath_case())
@settings(max_examples=25, deadline=None)
def test_spath_vectorized_trace_identical(case):
    spec, root, weights = case
    _check_kernel("SPath", spec, build=_weighted(weights), root=root)


def _fixed_shapes():
    rng = np.random.default_rng(5)
    return [
        (1, np.empty((0, 2), np.int64)),
        (5, np.empty((0, 2), np.int64)),
        (12, rng.integers(0, 12, (20, 2))),
        (30, rng.integers(0, 30, (80, 2))),
        (7, np.array([[0, i] for i in range(1, 7)])),
        (6, np.array([[i, i + 1] for i in range(5)])),
    ]


def _check_fixed_shapes(cases):
    for n, edges in cases:
        spec = GraphSpec("fixed", DataSource.SYNTHETIC, n, edges)
        for name in VEC_KERNELS:
            params = {"root": 0} if name in ROOTED else {}
            _check_kernel(name, spec, **params)


def test_vectorized_trace_identical_fixed_shapes():
    """Deterministic worst-case shapes: singleton, edgeless, dense-ish,
    star, chain — cheap to keep outside hypothesis's budget."""
    _check_fixed_shapes(_fixed_shapes())


def test_vectorized_trace_identical_when_the_queue_wraps():
    """A 1 100-vertex path (the frontier queue's slot index passes its
    1 024-entry capacity one pop at a time) and a 1 100-leaf star (it
    passes it inside one pop's pushes): ``TracedQueue``'s ``% cap``."""
    n = 1100
    _check_fixed_shapes([
        (n, np.array([[i, i + 1] for i in range(n - 1)])),
        (n + 1, np.array([[0, i] for i in range(1, n + 1)]))])


def test_spath_trace_identical_when_the_heap_wraps():
    """A 5 000-leaf star: the pushes run the heap through every length up
    to 5 000 — past its 4 096-slot capacity (``% cap``), through both
    2**k - 1 and 2**k for every level (where a sift path grows a node) —
    and the pops back down, ties broken by vertex id."""
    n = 5000
    spec = GraphSpec("star", DataSource.SYNTHETIC, n + 1,
                     np.array([[0, i] for i in range(1, n + 1)]))
    _check_kernel("SPath", spec, root=0)


def test_spath_negative_weight_raises_where_the_loop_does():
    """The first negative edge *relaxed* raises, with the loop's text; a
    negative edge the search never reaches does not."""
    spec = GraphSpec("neg", DataSource.SYNTHETIC, 6,
                     np.array([[0, 1], [0, 2], [2, 3], [4, 5]]))

    def negative(*arcs):
        def build(spec):
            g = _build(spec)
            for src, dst in arcs:
                g._v[src].out[dst].props[g.eschema.slot("weight")] = -1.5
            return g
        return build

    for cls in (WORKLOADS["SPath"], _loop_workload("SPath")):
        with pytest.raises(ValueError) as err:
            cls().run(negative((2, 3), (0, 2))(spec), tracer=Tracer(),
                      root=0)
        assert str(err.value) == ("Dijkstra requires non-negative weights, "
                                  "edge (0->2) has -1.5")
    _check_kernel("SPath", spec, build=negative((4, 5)), root=0)


# -- the count gate: no per-element tracer call ------------------------------

TRACER_CALLS = ("r", "w", "i", "br", "enter", "leave", "bulk_emit",
                "bulk_branch_events")


def _tracer_calls(name, spec, **params):
    """How often each ``Tracer`` recording method runs under one
    ``Workload.run``."""
    calls = Counter()

    def counted(method):
        def call(self, *args, **kwargs):
            calls[method] += 1
            return getattr(Tracer, method)(self, *args, **kwargs)
        return call

    counting = type("CountingTracer", (Tracer,),
                    {m: counted(m) for m in TRACER_CALLS})
    WORKLOADS[name]().run(_build(spec), tracer=counting(), **params)
    return calls


def test_char_cold_kernels_make_no_per_element_tracer_calls():
    """By count, not by clock: a run is its prologue through the real
    primitives and a constant number of blocks, whatever the graph."""
    rng = np.random.default_rng(11)
    small, large = (GraphSpec("rand", DataSource.SYNTHETIC, n,
                              rng.integers(0, n, (3 * n, 2)))
                    for n in (60, 600))
    for name in ("BFS", "kCore", "TC", "SPath", "DCentr"):
        params = {"root": 0} if name in ROOTED else {}
        few = _tracer_calls(name, small, **params)
        assert few == _tracer_calls(name, large, **params), name
        assert sum(few.values()) < 40, name


# -- Gibbs: the graph is a Bayesian network ---------------------------------

@st.composite
def gibbs_case(draw):
    """A MUNIN-like network plus sampler parameters.  An evidence vertex
    is skipped by the sweep but still read as a child of its parents."""
    n = draw(st.integers(2, 40))
    capacity = sum(min(3, v) for v in range(1, n))
    bn = munin_like(n_vertices=n,
                    n_edges=draw(st.integers(0, capacity)),
                    target_params=draw(st.integers(2 * n, 40 * n)),
                    seed=draw(st.integers(0, 2 ** 16)))
    n_sweeps = draw(st.integers(1, 4))
    params = {"bn": bn, "n_sweeps": n_sweeps,
              "burn_in": draw(st.integers(0, n_sweeps - 1)),
              "seed": draw(st.integers(0, 2 ** 16))}
    if draw(st.booleans()):
        observed = draw(st.sets(st.integers(0, n - 1), max_size=n))
        params["evidence"] = {
            v: draw(st.integers(0, bn.arities[v] - 1)) for v in observed}
    return params


def _check_gibbs(params):
    _check_kernel("Gibbs", params["bn"], build=build_bn_graph, **params)


@given(gibbs_case())
@settings(max_examples=25, deadline=None)
def test_gibbs_vectorized_trace_identical(params):
    _check_gibbs(params)


def test_gibbs_trace_identical_fixed_shapes():
    """Two vertices, an edgeless network, every vertex observed (no visit
    at all), and a root observed while its children are swept."""
    pair = munin_like(n_vertices=2, n_edges=1, target_params=8, seed=0)
    loose = munin_like(n_vertices=6, n_edges=0, target_params=20, seed=1)
    net = munin_like(n_vertices=25, n_edges=40, target_params=400, seed=3)
    for bn, extra in [
            (pair, {}), (loose, {}),
            (net, {"evidence": {v: 0 for v in range(net.n)}}),
            (net, {"evidence": {0: 1, 7: 0}})]:
        _check_gibbs({"bn": bn, "n_sweeps": 3, "burn_in": 1, "seed": 4,
                      **extra})


# -- the knob turns: the kernels follow the C_* charges ---------------------

@pytest.mark.parametrize("const", ["C_FIND_VERTEX", "C_PROP_GET",
                                   "C_PROP_SET", "C_EDGE_STEP",
                                   "C_SCAN_STEP", "C_HEAP_STEP"])
def test_vectorized_kernels_follow_the_primitive_charges(monkeypatch, const):
    """Each per-primitive instruction charge the seven kernels touch,
    perturbed: the bulk emitters lay their traces out from the primitives'
    own declarations, so they stay identical to the loop oracles (which
    charge through the scalar primitives).  ``payload_read``'s charge is
    an argument of the Gibbs kernel, not a constant."""
    owner = G if hasattr(G, const) else W       # the heap's is its module's
    monkeypatch.setattr(owner, const, getattr(owner, const) + 1)
    _check_fixed_shapes(_fixed_shapes())
    test_gibbs_trace_identical_fixed_shapes()


# -- the loop kernels left: DFS and GColor, pinned ---------------------------

#: sha256 of each frozen trace (addresses relative to the arena base, every
#: ``TRACE_FIELDS`` column, the instruction/access totals and the region
#: table) of a characterization cell's run at scale 0.05, seed 0.
LOOP_TRACE_PINS = {
    ("DFS", "roadnet"):
        "7c8d80e94bb97e8681efb1b7841c241792d7590e8873ae1ad2350aa079c5c325",
    ("DFS", "ldbc"):
        "dbf1a2a3011aaf52ff56c442d1769740eb340da9905d77b4397c06a0b825b2ac",
    ("GColor", "roadnet"):
        "2594f9bfc5bf05c65bdb70f1a32077253a5e5d5b19284070b087f27e7a7f3533",
    ("GColor", "ldbc"):
        "0a56cabbf403ce2bd389e502281d95acf08e96d892086b0bc98848b4446f13cf",
}


def _trace_digest(trace, base):
    h = hashlib.sha256((trace.addrs - np.uint64(base)).tobytes())
    for f in TRACE_FIELDS:
        h.update(getattr(trace, f).tobytes())
    h.update(repr((trace.n_instrs, trace.fw_instrs, trace.n_accesses,
                   trace.fw_accesses,
                   sorted((r, v.name, v.code_bytes, v.framework)
                          for r, v in trace.regions.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,dataset", sorted(LOOP_TRACE_PINS))
def test_loop_kernel_trace_pinned(name, dataset):
    """DFS and GColor trace call by call through the generic primitives;
    their event streams are pinned to a digest so a change to a primitive
    or to either kernel cannot move them unseen.  DFS starts where a
    characterization cell does, at the highest-out-degree vertex."""
    spec = make_dataset(dataset, scale=0.05, seed=0)
    params = ({"root": int(np.argmax(spec.out_degrees()))} if name == "DFS"
              else {"seed": 0})
    trace, _out, base, _state = _run_traced(WORKLOADS[name], spec, _build,
                                            **params)
    assert _trace_digest(trace, base) == LOOP_TRACE_PINS[name, dataset]
