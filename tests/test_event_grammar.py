"""The layout engine against the ``Tracer`` itself, and every declared
primitive against the scalar method it restates.

``repro.workloads._bulk.Layout`` turns item declarations — micro-op
programs over operand columns, ordered by key — into one bulk block.  The
kernel tests (``test_workloads_vectorized.py``) hold seven users of it to
their loop oracles; these hold the engine to the definition of its
grammar: the same programs interpreted call by call through
``Tracer.enter/i/r/w/br/leave`` and ``PropertyGraph._stack_touch``.  The
recording tests then drive each real primitive once and compare it with
the block its ``*_ops`` declaration lays out, so declaration and scalar
method cannot drift apart.  The block walks and payload reads no kernel
calls scalar (``scan_vertices``, ``neighbor_ids``, ``payload_get``,
``payload_read``) are recorded through their ``tests/oracles.py`` forms.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import graph as G
from repro.core import trace as T
from repro.core.errors import TraceError
from repro.core.graph import PropertyGraph
from repro.core.trace import Tracer
from repro.workloads import (
    TracedQueue, common_edge_schema, common_vertex_schema,
)
from repro.workloads import base as W
from repro.workloads._bulk import Block, Layout, adjacency_sweep
from repro.workloads.base import TracedHeap

from tests.oracles import (
    heap_pop, neighbor_ids, payload_get, payload_read, scan_vertices,
)
from tests.test_workloads_vectorized import _assert_traces_identical

REGIONS = (T.R_FIND_VERTEX, T.R_PROP_GET, T.R_NEIGHBORS)   # framework
SITES = (T.B_EDGE_LOOP, T.B_FIND_HIT, 70)


def interpret(g, t, ops, row):
    """One item, call by call: the grammar's definition."""
    val = lambda x: int(row[x]) if isinstance(x, str) else x
    for op, *a in ops:
        if op == "in":
            assert t.region == a[0]
        elif op == "enter":
            t.enter(a[0])
        elif op == "leave":
            t.leave()
        elif op == "i":
            t.i(val(a[0]))
        elif op == "stk":
            g._stack_touch(t)
        elif op == "r":
            t.r(int(row[a[0]]) + a[1])
        elif op == "w":
            t.w(int(row[a[0]]) + a[1])
        elif op == "br":
            t.br(a[0], val(a[1]))
        else:
            raise AssertionError(op)


def assert_same_trace(a, b):
    """Every ``TRACE_FIELDS`` column, the counters and the region table —
    on one graph, so addresses compare as they are."""
    _assert_traces_identical(a, 0, b, 0)


# -- random programs ---------------------------------------------------------

@st.composite
def item_kind(draw, entry, flat=False):
    """A micro-op program starting with ``entry`` (a tuple of at most one
    region) open above the block's region and ending with at most one
    open; ``flat`` kinds make no region transition at all."""
    ops = [("in", entry[0])] if entry else []
    stack = list(entry)
    for _ in range(draw(st.integers(0, 8))):
        what = draw(st.sampled_from(
            ["i", "icol", "stk", "r", "w", "br", "brcol"]
            + ([] if flat else ["enter", "enter", "leave", "leave", "in"])))
        if what == "enter" and len(stack) < 3:
            stack.append(draw(st.sampled_from(REGIONS)))
            ops.append(("enter", stack[-1]))
        elif what == "leave" and stack:
            stack.pop()
            ops.append(("leave",))
        elif what == "in" and stack:
            ops.append(("in", stack[-1]))       # mid-program: an assertion
        elif what == "i":
            ops.append(("i", draw(st.integers(0, 20))))
        elif what == "icol":
            ops.append(("i", "n"))
        elif what == "stk":
            ops.append(("stk",))
        elif what in ("r", "w"):
            ops.append((what, draw(st.sampled_from(["a", "b"])),
                        draw(st.integers(0, 48))))
        elif what == "br":
            ops.append(("br", draw(st.sampled_from(SITES)),
                        draw(st.integers(0, 1))))
        elif what == "brcol":
            ops.append(("br", draw(st.sampled_from(SITES)), "taken"))
    while len(stack) > 1:
        stack.pop()
        ops.append(("leave",))
    return tuple(ops), tuple(stack)


@st.composite
def block_case(draw):
    """Kinds (some balanced, some not, some flat, some never used) and a
    sequence of items over them in which every item starts where its
    predecessor ends and the last one ends in the block's own region."""
    kinds = []
    for k in range(draw(st.integers(1, 5))):
        entry = draw(st.sampled_from([()] + [(r,) for r in REGIONS][:2 * k]))
        ops, exit_ = draw(item_kind(entry, flat=draw(st.booleans())))
        kinds.append((ops, entry, exit_))
    for r in REGIONS:       # whatever is left open can be closed
        kinds.append(((("in", r), ("leave",)), (r,), ()))
    seq, cur = [], ()
    for _ in range(draw(st.integers(0, 14))):
        fits = [k for k, (_, entry, _) in enumerate(kinds) if entry == cur]
        k = draw(st.sampled_from(fits))
        seq.append(k)
        cur = kinds[k][2]
    if cur:
        seq.append(len(kinds) - len(REGIONS) + REGIONS.index(cur[0]))
    width = draw(st.integers(1, 4))             # keys (pos // w, pos % w)
    rows = [{c: draw(st.integers(0, 2 ** 40)) for c in ("a", "b")}
            | {"n": draw(st.integers(0, 30)),
               "taken": draw(st.integers(0, 1))} for _ in seq]
    return {"kinds": kinds, "seq": seq, "rows": rows, "width": width,
            "fw_base": draw(st.booleans()), "sp": draw(st.integers(0, 3)),
            "mask_out": draw(st.lists(st.integers(0, 5), max_size=3))}


def _fresh_tracer(g, case):
    """A tracer inside a user (or, to price the head, framework) region,
    with events already behind it."""
    t = Tracer()
    t.enter(T.R_BUILD if case["fw_base"] else t.register_region("kernel"))
    g._sp = case["sp"]
    t.i(7)
    g._stack_touch(t)
    return t


def _lay_out(t, case):
    kinds, seq, rows, w = (case["kinds"], case["seq"], case["rows"],
                           case["width"])
    lay = Layout(t)
    for k, (ops, _, _) in enumerate(kinds):
        at = [p for p, kk in enumerate(seq) if kk == k]
        # rows the ``where`` mask drops, with keys that would land anywhere
        junk = case["mask_out"] if k == 0 else []
        pos = np.asarray(at + junk, np.int64)
        cols = {c: np.asarray([rows[p][c] for p in at] + [0] * len(junk),
                              np.int64) for c in ("a", "b", "n", "taken")}
        where = np.arange(len(pos)) < len(at)
        lay.add(ops, (pos // w, pos % w), where if junk else None, **cols)
    return lay.build()


@given(block_case())
@settings(max_examples=150, deadline=None)
def test_layout_matches_tracer_call_by_call(case):
    g = PropertyGraph()
    t = _fresh_tracer(g, case)
    _lay_out(t, case).emit(g, t)
    t.leave()
    laid, laid_sp = t.freeze(), g._sp

    t = _fresh_tracer(g, case)
    for k, row in zip(case["seq"], case["rows"]):
        interpret(g, t, case["kinds"][k][0], row)
    t.leave()
    assert_same_trace(laid, t.freeze())
    assert laid_sp == g._sp


@given(block_case())
@settings(max_examples=25, deadline=None)
def test_block_emits_once(case):
    """``emit`` hands the block's arrays to the tracer, shifted and
    resolved in place; a second ``emit`` would shift them again, so it
    raises and leaves tracer and stack rotation as they were."""
    g = PropertyGraph()
    t = _fresh_tracer(g, case)
    blk = _lay_out(t, case)
    blk.emit(g, t)
    once, sp = t.freeze(), g._sp
    with pytest.raises(TraceError, match="already emitted"):
        blk.emit(g, t)
    assert_same_trace(once, t.freeze())
    assert sp == g._sp


def test_tiled_block_is_the_block_repeated():
    g = PropertyGraph()
    ops = G.find_vertex_ops("a", "b") + (("i", "n"),) + G.vset_ops("a", 40)
    cols = dict(a=np.arange(4) * 64, b=np.arange(4) * 8, n=np.arange(4))
    t = Tracer()
    lay = Layout(t)
    lay.add(ops, (np.arange(4),), **cols)
    lay.build().tiled(3).emit(g, t)
    tiled = t.freeze()
    g._sp = 0
    t = Tracer()
    for _ in range(3):
        for p in range(4):
            interpret(g, t, ops, {c: v[p] for c, v in cols.items()})
    assert_same_trace(tiled, t.freeze())


def test_layout_refuses_what_the_tracer_would():
    t = Tracer()
    walk = G.neighbors_ops("v", "e")
    with pytest.raises(TraceError, match="predecessor"):
        lay = Layout(t)                         # a step with no walk open
        lay.add(walk.step, (0,), e=np.zeros(1, np.int64))
        lay.build()
    with pytest.raises(TraceError, match="predecessor"):
        lay = Layout(t)                         # a walk left open
        lay.add(walk.head, (0,), v=np.zeros(1, np.int64))
        lay.build()
    with pytest.raises(TraceError, match="leaves"):
        Layout(t).add((("leave",),), (0,))
    with pytest.raises(TraceError, match="inside"):
        Layout(t).add((("enter", 1), ("in", 2)), (0,))
    with pytest.raises(TraceError, match="micro-op"):
        Layout(t).add((("jump", 1),), (0,))
    lay = Layout(t)
    lay.add((("i", 3),), (0,))
    with pytest.raises(TraceError, match="head"):
        lay.build().tiled(2)


def test_in_place_block_belongs_to_the_open_region():
    from repro.workloads._bulk import AccessBlock
    g = PropertyGraph()
    t = Tracer()
    rid = T.R_BUILD
    t.enter(rid)
    acc = AccessBlock(2)
    acc.addr[:] = (64, 128)
    acc.iat[:] = (2, 5)
    Block.in_place(t, acc, [T.B_FIND_HIT], [1], 6).emit(g, t)
    f = t.freeze()
    assert f.acc_region.tolist() == [rid, rid] and f.iat.tolist() == [2, 5]
    assert (f.n_instrs, f.fw_instrs, f.fw_accesses) == (6, 6, 2)
    assert f.region_instrs.tolist() == [0, 6]


# -- every declared primitive against its scalar method ----------------------

@pytest.fixture
def path3():
    """0 -> 1 -> 2: vertex 1 has one out-edge and one in-reference,
    vertex 2 an empty out-list."""
    g = PropertyGraph(common_vertex_schema(), common_edge_schema())
    for vid in range(3):
        g.add_vertex(vid)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.payload_set(g._v[1], "cpt", "table", 64)
    return g


def _recorded(g, call):
    g._sp = 0
    t = Tracer()
    g.attach_tracer(t)
    call(t)
    g.detach_tracer()
    return t.freeze(), g._sp


def _declared(g, *items):
    """Lay out ``items`` — (ops, columns) pairs, in order — as one block."""
    g._sp = 0
    t = Tracer()
    lay = Layout(t)
    for pos, (ops, cols) in enumerate(items):
        n = max((len(c) for c in cols.values()), default=1)
        lay.add(ops, (np.full(n, pos),),
                **{c: np.asarray(v, np.int64) for c, v in cols.items()})
    lay.build().emit(g, t)
    return t.freeze(), g._sp


def _idx(g, vid):
    return g._index_base + G.INDEX_ENTRY * (vid % g._index_cap)


def _prop(g, name):
    return G.V_PROP_OFF + g.vschema.offset(name)


def _primitive_cases(g):
    v = g._v[1]
    node = v.out[2]
    structs = [u.addr for u in g._v.values()]
    out, inn = G.neighbors_ops("v", "e"), G.in_neighbors_ops("v", "u")
    scan = G.vertices_ops("idx", "v")
    bscan = G.scan_vertices_ops("idx", "v")
    ids = G.neighbor_ids_ops("v", "e")
    cpt_addr = v.props[g.vschema.slot("cpt")][0]
    return {
        "find_vertex": (
            lambda t: g.find_vertex(1),
            [(G.find_vertex_ops("idx", "v"),
              dict(idx=[_idx(g, 1)], v=[v.addr]))]),
        "vget": (
            lambda t: g.vget(v, "level"),
            [(G.vget_ops("v", _prop(g, "level")), dict(v=[v.addr]))]),
        "vset": (
            lambda t: g.vset(v, "parent", 0),
            [(G.vset_ops("v", _prop(g, "parent")), dict(v=[v.addr]))]),
        "payload_get": (
            lambda t: payload_get(g, v, "cpt"),
            [(G.payload_get_ops("v", _prop(g, "cpt")), dict(v=[v.addr]))]),
        "payload_read": (
            lambda t: (payload_read(g, cpt_addr, 3),
                       payload_read(g, cpt_addr, 5, n_instrs=11)),
            [(G.payload_read_ops("p") + G.payload_read_ops("q", 11),
              dict(p=[cpt_addr + 24], q=[cpt_addr + 40]))]),
        "degree": (
            lambda t: g.degree(v),
            [(G.degree_ops("v"), dict(v=[v.addr]))]),
        "eget": (
            lambda t: g.eget(node, "weight"),
            [(G.eget_ops("e", G.E_PROP_OFF + g.eschema.offset("weight")),
              dict(e=[node.addr]))]),
        "scan_vertices": (
            lambda t: scan_vertices(g),
            [(bscan.head, {}),
             (bscan.step, dict(idx=[_idx(g, u) for u in range(3)],
                               v=structs)),
             (bscan.exit, {})]),
        "neighbor_ids": (
            lambda t: neighbor_ids(g, v),
            [(ids.head, dict(v=[v.addr])), (ids.step, dict(e=[node.addr])),
             (ids.exit, {})]),
        "neighbor_ids_empty": (
            lambda t: neighbor_ids(g, g._v[2]),
            [(ids.head, dict(v=[g._v[2].addr])), (ids.exit, {})]),
        "neighbors": (
            lambda t: [t.i(4) for _ in g.neighbors(v)],
            [(out.head, dict(v=[v.addr])),
             (out.step + (("i", 4),) + out.resume, dict(e=[node.addr])),
             (out.exit, {})]),
        "in_neighbors": (
            lambda t: [t.i(4) for _ in g.in_neighbors(v)],
            [(inn.head, dict(v=[v.addr])),
             (inn.step + (("i", 4),) + inn.resume,
              dict(u=[g._v[0].addr])),
             (inn.exit, {})]),
        "vertices": (
            lambda t: [t.i(2) for _ in g.vertices()],
            [(scan.head, {}),
             (scan.step + (("i", 2),) + scan.resume,
              dict(idx=[_idx(g, u) for u in range(3)], v=structs)),
             (scan.exit, {})]),
    }


@pytest.mark.parametrize("name", [
    "find_vertex", "vget", "vset", "payload_get", "payload_read",
    "neighbors", "in_neighbors", "vertices", "degree", "eget",
    "scan_vertices", "neighbor_ids", "neighbor_ids_empty"])
def test_declaration_matches_scalar_primitive(path3, name):
    call, items = _primitive_cases(path3)[name]
    recorded, rsp = _recorded(path3, call)
    declared, dsp = _declared(path3, *items)
    assert recorded.n_accesses > 0
    assert_same_trace(recorded, declared)
    assert rsp == dsp


def test_declaration_matches_traced_queue(path3):
    g = path3
    t = Tracer()
    q = TracedQueue(g, t)
    for k in range(q.cap + 2):                  # wraps the buffer
        q.push(k)
        q.pop()
    t2 = Tracer()
    lay = Layout(t2)
    k = np.arange(q.cap + 2)
    lay.add(q.push_ops("slot") + q.pop_ops("slot"), (k,), slot=q.slots(k))
    lay.build().emit(g, t2)
    assert_same_trace(t.freeze(), t2.freeze())


def _heap_script(g, t):
    """Three more pushes than the heap has slots, then as many pops: the
    array wraps, and lengths 3 and 4 sit on either side of a sift path
    growing a node."""
    h = TracedHeap(g, t)
    for k in range(h.cap + 3):
        h.push(k)
    for _ in range(h.cap + 3):
        heap_pop(h)
    return h


def _heap_declared(g, h):
    t = Tracer()
    lay = Layout(t)
    n = h.cap + 3
    op = np.arange(n)
    path, level, slot = h.path_slots(op)              # length before a push
    lay.add(h.push_ops("slot"), (path, 0, level), slot=slot)
    left = op[::-1]                                   # length behind a pop
    path, level, slot = h.path_slots(np.maximum(left - 1, 0))
    lay.add(h.push_ops("slot"), (n + path, 0, level), slot=slot)
    lay.add(h.pop_ops("root"), (n + op, 1), root=np.full(n, h.base))
    lay.build().emit(g, t)
    return t.freeze()


def test_declaration_matches_traced_heap(path3, monkeypatch):
    charged = []
    for step in (W.C_HEAP_STEP, W.C_HEAP_STEP + 3):     # and the knob turns
        monkeypatch.setattr(W, "C_HEAP_STEP", step)
        t = Tracer()
        h = _heap_script(path3, t)
        assert_same_trace(t.freeze(), _heap_declared(path3, h))
        charged.append(t.n)
    assert charged[0] < charged[1]


def test_adjacency_sweep_matches_the_block_primitives(path3):
    """The sweep block against the loop it stands for, over a graph with a
    vertex of degree 0 between the walks."""
    g = path3

    def loop(t):
        for v in scan_vertices(g):
            t.i(2 * len(neighbor_ids(g, v)))

    recorded, rsp = _recorded(g, loop)
    g._sp = 0
    t = Tracer()
    gv = adjacency_sweep(g, t)
    assert_same_trace(recorded, t.freeze())
    assert g._sp == rsp
    assert gv.vids[gv.out_dst].tolist() == [1, 2] and gv.deg[2] == 0


@pytest.mark.parametrize("const", ["C_FIND_VERTEX", "C_PROP_GET",
                                   "C_PROP_SET", "C_EDGE_STEP",
                                   "C_SCAN_STEP"])
def test_declarations_follow_the_constants(path3, monkeypatch, const):
    """Turn one charge: every declaration still matches its method."""
    monkeypatch.setattr(G, const, getattr(G, const) + 3)
    for name, (call, items) in _primitive_cases(path3).items():
        recorded, _ = _recorded(path3, call)
        declared, _ = _declared(path3, *items)
        assert_same_trace(recorded, declared)
