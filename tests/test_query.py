"""Pipeline-DSL query language: parser round-trip (property-tested),
typed errors on garbage, planner shape/fusion, executor equivalence
against naive references and — property-tested, both constructors — the
array kernels against the dict kernels they displaced
(``tests/oracles.py``), the engine's caches (a plan keyed by its text
alone, an answer by its version), and the query/explain wire ops
end-to-end over a live service."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BadRequest,
    PlanError,
    QueryError,
    SnapshotExpired,
)
from repro.core.taxonomy import DataSource
from repro.datagen.registry import make
from repro.datagen.spec import GraphSpec
from repro.dynamic import MutOp, SnapshotStore
from repro.obs import counter_total
from repro.query import (
    PLANNER_VERSION,
    QueryEngine,
    parse,
    plan_pipeline,
    query_template_pool,
    source_info,
    unparse,
)
from repro.query import exec as qexec
from repro.query.engine import plan_digest
from repro.query.exec import (
    GraphImage,
    execute_plan,
    kernel_bfs,
    kernel_cc,
    kernel_degree,
    kernel_kcore,
    kernel_triangles,
    run_table_phase,
    sample_key,
)
from repro.query.plan import render_plan
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
)
from repro.service.protocol import OPS, check_params
from tests.oracles import (
    DictGraphImage,
    dict_bfs,
    dict_cc,
    dict_degree,
    dict_graph_phase,
    dict_kcore,
    dict_triangles,
)

DATASET = "ldbc"
SCALE = 0.02


def _image(dataset: str = DATASET, scale: float = SCALE,
           seed: int = 0) -> GraphImage:
    return GraphImage.from_spec(make(dataset, scale=scale, seed=seed))


def _dict_image(dataset: str = DATASET, scale: float = SCALE,
                seed: int = 0) -> DictGraphImage:
    return DictGraphImage.from_spec(make(dataset, scale=scale, seed=seed))


def _column(g: GraphImage, values: np.ndarray) -> dict[int, int]:
    """A kernel's array as the ``{vid: value}`` map the dict kernels
    return."""
    return dict(zip(g.ids.tolist(), values.tolist()))


def _reached(g: GraphImage, bfs: dict[str, np.ndarray]
             ) -> dict[str, dict[int, int]]:
    """BFS columns as the dict kernel reports them: unreached vertices
    absent."""
    hit = bfs["level"] >= 0
    return {name: dict(zip(g.ids[hit].tolist(), col[hit].tolist()))
            for name, col in bfs.items()}


def _run(q: str, **kwargs):
    return execute_plan(plan_pipeline(parse(q)), _image(), **kwargs)


# -- parser: round-trip and canonical form -----------------------------------

_IDENT = st.sampled_from(["twitter", "knowledge", "watson", "roadnet",
                          "ldbc"])
_KERNELS = st.sampled_from([
    "bfs root=0 depth<=3", "bfs root=7", "cc", "kcore k>=2", "degree",
    "triangles"])
_TABLE = st.sampled_from([
    "filter out_degree>=4", "filter level<=2", "project id,degree",
    "topk degree 10", "sample 8 seed=3", "limit 5", "count"])


@st.composite
def pipelines(draw) -> str:
    src = f"from {draw(_IDENT)} scale=0.05 seed={draw(st.integers(0, 9))}"
    stages = draw(st.lists(st.one_of(_KERNELS, _TABLE), min_size=0,
                           max_size=4))
    return " | ".join([src] + stages)


class TestParser:
    @settings(max_examples=200, deadline=None)
    @given(pipelines())
    def test_round_trip_is_identity(self, text):
        # not every generated pipeline *plans* (ordering rules), but
        # every one must parse, and parse -> unparse -> parse must be
        # a fixed point
        p = parse(text)
        assert parse(unparse(p)) == p
        assert unparse(parse(unparse(p))) == unparse(p)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120))
    def test_arbitrary_text_never_raises_untyped(self, text):
        try:
            parse(text)
        except QueryError:
            pass          # the only allowed failure type

    def test_whitespace_variants_collide_canonically(self):
        a = parse("from twitter|bfs root=42 depth<=3|topk degree 10")
        b = parse("from twitter | bfs  root=42   depth<=3 | "
                  "topk degree 10")
        assert unparse(a) == unparse(b)
        assert plan_digest(unparse(a)) == plan_digest(unparse(b))

    @pytest.mark.parametrize("bad", [
        "", "   ", "from", "from 123", "bfs root=0",
        "from twitter |", "from twitter | bfs root=", "from twitter ||",
        "from twitter | topk degree", "from twitter | filter",
        "from twitter | bfs root=0 \x00", "x" * 5000,
    ])
    def test_garbage_raises_typed_query_error(self, bad):
        # some of these die in the lexer, some at argument-arity check
        # in the planner; PlanError subclasses QueryError, so the whole
        # funnel stays one catchable type
        with pytest.raises(QueryError):
            plan_pipeline(parse(bad))

    def test_error_carries_position(self):
        with pytest.raises(QueryError, match="position"):
            parse("from twitter | bfs root=$")


# -- planner -----------------------------------------------------------------

class TestPlanner:
    def test_unknown_dataset_and_stage_are_plan_errors(self):
        with pytest.raises(PlanError):
            plan_pipeline(parse("from nosuch | count"))
        with pytest.raises(PlanError):
            plan_pipeline(parse("from twitter | zap"))

    def test_kernel_after_aggregate_rejected(self):
        with pytest.raises(PlanError):
            plan_pipeline(parse("from twitter | topk degree 5 | cc"))

    def test_count_is_terminal(self):
        with pytest.raises(PlanError):
            plan_pipeline(parse("from twitter | count | limit 3"))

    def test_unknown_column_rejected(self):
        with pytest.raises(PlanError):
            plan_pipeline(parse("from twitter | topk level 5"))

    @pytest.mark.parametrize("q", [
        "from roadnet scale=0.05 | degree | filter degree<abc",      # graph
        "from roadnet scale=0.05 | topk degree 5 | filter degree>=x",  # table
        "from roadnet scale=0.05 | bfs root=0 | filter level<=deep",
        "from roadnet scale=0.05 | filter id>abc | count",
    ])
    def test_ordering_a_column_against_text_is_a_plan_error(self, q):
        # was numpy's UFuncTypeError from the graph phase and a bare
        # TypeError from the table phase: now refused in either, typed
        with pytest.raises(PlanError, match="needs a number"):
            plan_pipeline(parse(q))
        with pytest.raises(PlanError):
            QueryEngine().query({"q": q})

    def test_equality_against_text_still_plans(self):
        out = QueryEngine().query(
            {"q": "from roadnet scale=0.05 | degree | filter degree=abc "
                  "| count"})
        assert out["table"]["rows"] == [[0]]

    def test_implicit_degree_inserted_before_aggregate(self):
        plan = plan_pipeline(parse(
            "from twitter | bfs root=0 | topk degree 5"))
        assert [op["kind"] for op in plan.ops] == \
            ["scan", "bfs", "degree", "topk"]

    def test_filter_fuses_into_bfs_depth_bound(self):
        plan = plan_pipeline(parse(
            "from twitter | bfs root=0 depth<=9 | filter level<=2 "
            "| count"))
        assert plan.fused == 1
        bfs = next(op for op in plan.graph_ops if op["kind"] == "bfs")
        assert bfs["depth"] == 2

    def test_explain_payload_deterministic(self):
        q = "from twitter | cc | topk comp 5"
        a = plan_pipeline(parse(q)).to_dict()
        b = plan_pipeline(parse(q)).to_dict()
        assert a == b
        assert a["planner"] == PLANNER_VERSION
        assert set(a) == {"planner", "source", "stages", "columns",
                          "fused_stages"}
        assert [stage["kind"] for stage in a["stages"]] == \
            ["scan", "cc", "topk"]
        text = render_plan(a)
        assert "scan[twitter" in text and "topk" in text

    def test_dynamic_source_parses_version_pin(self):
        src = source_info(parse("from ldbc version=3 | count"))
        assert src.dynamic and src.version == 3


# -- executor: kernels vs naive references -----------------------------------

class TestKernels:
    def test_bfs_levels_match_reference(self):
        g = _image()
        out = _reached(g, kernel_bfs(g, 0, None))
        levels, parents = out["level"], out["parent"]
        adj = _dict_image().out_adj()   # the kernel is a directed BFS
        ref = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in ref:
                        ref[v] = ref[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert levels == ref
        for v, p in parents.items():
            if v != 0:
                assert levels[v] == levels[p] + 1

    def test_cc_labels_are_component_minima(self):
        g = _image()
        comp = _column(g, kernel_cc(g)["comp"])
        for vid, label in comp.items():
            assert comp[label] == label       # root labels itself
            assert label <= vid

    def test_kcore_matches_iterative_peeling(self):
        g = _image()
        core = _column(g, kernel_kcore(g)["core"])
        adj = _dict_image().und_adj()
        # reference: coreness c(v) >= k iff v survives k-core peeling
        for k in (1, 2, 3):
            alive = set(adj)
            changed = True
            while changed:
                changed = False
                for v in list(alive):
                    if sum(1 for u in adj[v] if u in alive) < k:
                        alive.discard(v)
                        changed = True
            assert {v for v, c in core.items() if c >= k} == alive

    def test_triangles_match_brute_force(self):
        g = _image(scale=0.01)
        tri = _column(g, kernel_triangles(g)["tri"])
        adj = {v: set(ns)
               for v, ns in _dict_image(scale=0.01).und_adj().items()}
        ref = {v: 0 for v in adj}
        ids = sorted(adj)
        for i, u in enumerate(ids):
            for v in ids[i + 1:]:
                if v not in adj[u]:
                    continue
                for w in ids:
                    if w > v and w in adj[u] and w in adj[v]:
                        ref[u] += 1
                        ref[v] += 1
                        ref[w] += 1
        assert tri == ref

    def test_degree_counts_directed_arcs(self):
        g = _image()
        deg = {c: _column(g, col) for c, col in kernel_degree(g).items()}
        old = _dict_image()
        out_adj, und_adj = old.out_adj(), old.und_adj()
        for vid in g.ids.tolist():
            assert deg["out_degree"][vid] == len(out_adj[vid])
            assert deg["degree"][vid] == len(und_adj[vid])

    def test_sample_is_bottom_k_of_hash(self):
        table = _run(f"from {DATASET} scale={SCALE} | sample 7 seed=3")
        ids = [r[0] for r in table["rows"]]
        everyone = [r[0] for r in
                    _run(f"from {DATASET} scale={SCALE} | limit 100000")
                    ["rows"]]
        ranked = sorted(everyone, key=lambda v: sample_key(v, 3))[:7]
        assert sorted(ranked) == ids       # output is id-ascending


# -- the array kernels against the dict kernels they displaced ---------------

#: every template's plan: the graph ops do not depend on the dataset
#: named in ``from``, so the pool's plans run against any image
POOL_PLANS = [plan_pipeline(parse(q))
              for q in query_template_pool(("twitter",), scale=SCALE)]

_PAIRS = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                  max_size=40)      # self-loops and duplicates included
_CHURN = st.lists(st.one_of(
    st.builds(MutOp, st.just("add_vertex"), src=st.integers(0, 40)),
    st.builds(MutOp, st.just("del_vertex"), src=st.integers(0, 11)),
    st.builds(MutOp, st.sampled_from(["add_edge", "del_edge"]),
              src=st.integers(0, 40), dst=st.integers(0, 40))),
    max_size=30)


def _outcome(fn, *args, **kwargs):
    """A call's result, or the text of its typed error."""
    try:
        return fn(*args, **kwargs)
    except QueryError as exc:
        return f"{type(exc).__name__}: {exc}"


def _dict_execute(plan, old: DictGraphImage):
    """``execute_plan`` as it was: the displaced graph phase, then the
    table phase both executors share."""
    return run_table_phase(dict_graph_phase(plan, old, kernel_cache={}),
                           plan.table_ops)


def _assert_same_answers(new: GraphImage, old: DictGraphImage) -> None:
    """Every kernel, every pool template."""
    assert new.ids.tolist() == old.ids
    assert (new.n, new.csr.m) == (old.n, old.m)
    assert {c: _column(new, col)
            for c, col in kernel_degree(new).items()} == dict_degree(old)
    assert _column(new, kernel_cc(new)["comp"]) == dict_cc(old)["comp"]
    assert _column(new, kernel_kcore(new)["core"]) == \
        dict_kcore(old)["core"]
    assert _column(new, kernel_triangles(new)["tri"]) == \
        dict_triangles(old)["tri"]
    # every vertex as a root (so each is inside some reached sets and
    # outside others), then two that are no vertex: past the end, and
    # — when the ids are sparse — inside a gap
    roots = old.ids + [max(old.ids, default=-1) + 1] \
        + sorted(set(range(max(old.ids, default=0))) - set(old.ids))[:1]
    for root in roots:
        for depth in (None, -1, 0, 1, 2):
            got = _outcome(lambda: _reached(
                new, kernel_bfs(new, root, depth)))
            assert got == _outcome(dict_bfs, old, root, depth), \
                (root, depth)
    memo: dict = {}
    for plan in POOL_PLANS:
        got = _outcome(execute_plan, plan, new, kernel_cache=memo)
        assert got == _outcome(_dict_execute, plan, old), plan.graph_ops


class TestArrayKernelsMatchDictOracles:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), pairs=_PAIRS, directed=st.booleans())
    def test_from_spec(self, n, pairs, directed):
        edges = [(s, d) for s, d in pairs if s < n and d < n]
        spec = GraphSpec("rand", DataSource.SYNTHETIC, n,
                         np.array(edges, dtype=np.int64).reshape(-1, 2),
                         directed=directed)
        _assert_same_answers(GraphImage.from_spec(spec),
                             DictGraphImage.from_spec(spec))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), pairs=_PAIRS, directed=st.booleans(),
           churn=_CHURN)
    def test_from_snapshot_after_churn(self, n, pairs, directed, churn):
        """Vertices deleted and added leave the ids non-contiguous."""
        store = SnapshotStore.from_edges(
            n, [(s, d) for s, d in pairs if s < n and d < n],
            directed=directed)
        if churn:
            store.commit(churn)
        with store.snapshot() as snap:
            _assert_same_answers(GraphImage.from_snapshot(snap),
                                 DictGraphImage.from_snapshot(snap))

    @pytest.mark.parametrize("dataset", ["twitter", "knowledge", "watson",
                                         "roadnet", "ldbc"])
    def test_every_template_on_a_registry_dataset(self, dataset):
        _assert_same_answers(_image(dataset), _dict_image(dataset))

    def test_empty_graph_and_single_vertex(self):
        for n in (0, 1):
            store = SnapshotStore.from_edges(n, [])
            with store.snapshot() as snap:
                for g in (GraphImage.from_snapshot(snap),
                          GraphImage.from_spec(GraphSpec(
                              "tiny", DataSource.SYNTHETIC, n,
                              np.empty((0, 2), dtype=np.int64)))):
                    assert (g.n, g.csr.m) == (n, 0)
                    table = execute_plan(plan_pipeline(parse(
                        "from ldbc | degree | cc | kcore | triangles")), g)
                    assert len(table["columns"]) == 7
                    assert table["rows"] == [[0] * 7][:n]


class TestGraphPhase:
    def test_filter_on_id(self):
        """``id`` is a column like any other (a bare ``KeyError`` once:
        the planner listed it as visible, the graph phase never held
        it)."""
        assert _run(f"from {DATASET} scale={SCALE} | filter id<10 "
                    "| count")["rows"] == [[10]]
        assert _run(f"from {DATASET} scale={SCALE} | filter id>=3 "
                    "| filter id<5")["rows"] == [[3], [4]]

    def test_parameter_sweeps_do_not_grow_the_kernel_memo(self):
        """The memo holds the parameter-free kernels only: a client
        sweeping BFS depths or roots must not pin one O(n) entry per
        parameter under a single graph-cache entry."""
        eng = QueryEngine()
        base = f"from {DATASET} scale={SCALE}"
        for d in range(1, 400):
            eng.query({"q": f"{base} | bfs root=0 depth<={d} | count"})
        for root in range(50):
            eng.query({"q": f"{base} | bfs root={root} | topk degree 3"})
        for q in ("cc | count", "kcore k>=2 | count", "triangles | count"):
            eng.query({"q": f"{base} | {q}"})
        _, memo = eng._graph(source_info(parse(base)), 0, 0, None)
        assert sorted(memo) == ["cc", "degree", "kcore", "triangles"]

    def test_kcore_threshold_is_a_mask_over_one_kernel_run(self,
                                                           monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return kernel_kcore(g)

        monkeypatch.setitem(qexec._KERNELS, "kcore", counted)
        image, memo = _image(), {}
        core = _column(image, kernel_kcore(image)["core"])
        for k in (1, 3):
            table = execute_plan(plan_pipeline(parse(
                f"from {DATASET} | kcore k>={k}")), image,
                kernel_cache=memo)
            assert table["rows"] == [[v, c] for v, c in core.items()
                                     if c >= k]
        assert len(calls) == 1


# -- engine: caches and invalidation -----------------------------------------

class TestEngine:
    def test_plan_cache_hit_on_repeat(self):
        eng = QueryEngine()
        q = {"q": f"from {DATASET} scale={SCALE} | topk degree 5"}
        first = eng.query(q)
        second = eng.query(q)
        assert first["plan_cached"] is False
        assert second["plan_cached"] and second["result_cached"]
        assert second["table"] == first["table"]
        assert eng.stats()["plan_cache"]["hits"] >= 1

    def test_head_bump_invalidates_plan_and_result(self):
        """A head bump invalidates the answer and leaves the plan: a plan
        depends on the query text alone."""
        from repro.dynamic.engine import DynamicEngine
        dyn = DynamicEngine()
        eng = QueryEngine(dyn)
        q = {"q": f"from {DATASET} scale={SCALE} dynamic=true | cc "
                  "| count"}
        first = eng.query(q)
        assert first["version"] == 0
        cached = eng.query(q)
        assert cached["result_cached"] is True
        dyn.mutate({"dataset": DATASET, "scale": SCALE, "seed": 0,
                    "ops": [{"op": "add_vertex", "vid": 10_000}]})
        bumped = eng.query(q)
        assert bumped["version"] == 1
        assert bumped["result_cached"] is False
        assert bumped["plan_cached"] is True
        assert eng.stats()["plan_cache"]["invalidations"] == 0
        assert eng.stats()["result_cache"]["invalidations"] == 1
        # the new vertex is isolated: one more component
        assert bumped["table"]["rows"][0][0] == \
            first["table"]["rows"][0][0] + 1

    def test_version_pin_reads_old_snapshot(self):
        from repro.dynamic.engine import DynamicEngine
        dyn = DynamicEngine()
        eng = QueryEngine(dyn)
        base = f"from {DATASET} scale={SCALE}"
        head0 = eng.query({"q": f"{base} dynamic=true | count"})
        dyn.mutate({"dataset": DATASET, "scale": SCALE, "seed": 0,
                    "ops": [{"op": "add_vertex", "vid": 10_001}]})
        pinned = eng.query({"q": f"{base} version=0 | count"})
        assert pinned["table"] == head0["table"]
        head1 = eng.query({"q": f"{base} dynamic=true | count"})
        assert head1["table"]["rows"][0][0] == \
            head0["table"]["rows"][0][0] + 1

    @pytest.mark.parametrize("op", ["query", "explain"])
    def test_a_pin_outside_the_window_is_refused_cold_and_warm(self, op):
        from repro.dynamic.engine import DynamicEngine, dynamic_key
        dyn = DynamicEngine()
        # a path graph that keeps one version: a commit folds the last
        dyn._stores[dynamic_key(DATASET, SCALE, 0)] = \
            SnapshotStore.from_edges(7, [(i, i + 1) for i in range(6)],
                                     directed=False, max_versions=1)
        ask = getattr(QueryEngine(dyn), op)
        base = f"from {DATASET} scale={SCALE}"
        with pytest.raises(SnapshotExpired):
            ask({"q": f"{base} version=1 | count"})      # ahead of head
        pinned = {"q": f"{base} version=0 | count"}
        first = ask(pinned)
        assert ask(pinned) == {**first, "plan_cached": True,
                               **({"result_cached": True,
                                   "served": "result-cache"}
                                  if op == "query" else {})}
        dyn.mutate({"dataset": DATASET, "scale": SCALE, "seed": 0,
                    "ops": [{"op": "add_vertex", "vid": 7}]})
        with pytest.raises(SnapshotExpired, match=r"window \[1, 1\]"):
            ask(pinned)                                  # folded, cached

    def test_unknown_params_rejected(self):
        # the allow-list is the wire table's row, checked by the service
        # before the engine is called: ``q`` is the one parameter
        for op in ("query", "explain"):
            assert OPS[op].params == {"q"}
            for extra in ({"bogus": 1}, {"part": [0, 2]}):
                with pytest.raises(BadRequest):
                    check_params(OPS[op], {"q": "from ldbc | count",
                                           **extra})


# -- wire: query/explain over a live service ---------------------------------

class TestServiceQueries:
    def test_query_and_explain_end_to_end(self):
        service = GraphService(
            pool_config=PoolConfig(size=2, isolation="inline"))
        with ServiceThread(service) as st:
            with ServiceClient(st.host, st.port) as client:
                q = (f"from {DATASET} scale={SCALE} | bfs root=0 "
                     "depth<=2 | topk degree 5")
                result = client.query_lang(q)
                assert result["rows"] == 5
                assert result["table"]["columns"][0] == "id"
                plan = client.request("explain", q=q)
                assert plan["digest"] == result["plan"]
                assert "merge" not in plan
                again = client.request("explain", q=q)
                assert again == {**plan, "plan_cached": True}
                # asked on the same connection: the explains are counted
                stats = client.stats()
            m = stats["metrics"]
            assert counter_total(m, "service_requests_total",
                                 op="query") == 1
            assert counter_total(m, "service_requests_total",
                                 op="explain") == 2
            # one miss planned the query, both explains hit the plan
            assert stats["query"]["plan_cache"]["hits"] == 2

    def test_garbage_queries_never_crash_the_server(self):
        service = GraphService(
            pool_config=PoolConfig(size=2, isolation="inline"))
        with ServiceThread(service) as st:
            with ServiceClient(st.host, st.port) as client:
                for bad in ("", "from", "from nosuch | count",
                            "from ldbc | zap", "from ldbc | topk x 3",
                            "from ldbc | count | count", "\x00\x01",
                            "x" * 4999):
                    with pytest.raises(QueryError):
                        client.query_lang(bad)
                # the connection and server both survived
                assert client.ping()["protocol"] == 1
                ok = client.query_lang(f"from {DATASET} scale={SCALE} "
                                       "| limit 1")
                assert ok["rows"] == 1
