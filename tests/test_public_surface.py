"""The product ships only what the product runs: every public name in
``src/repro`` has a caller in the product, every keyword default has a
caller that sets it, and every module the product imports ships with it.

The product is ``src/`` and ``examples/``: the CLI, the library API and
the service.  A figure bench or a test is no caller; code only they need
lives beside them, in ``benchmarks/`` or ``tests/``.  The scan collects
each public (no leading underscore) function, class and method defined
at module or class level under ``src/repro``, and each public name a
module (other than an ``__init__``) binds by assignment at its top
level, then looks for a caller in the code under ``src/`` and
``examples/``, read as an AST, including inside an f-string's braces.
A module-level definition's caller is an identifier, an attribute or an
imported name that spells it.  A member of a class ``C`` (a method, a
property, a nested class) has one caller only: an attribute access
whose receiver can be a ``C``, where any class related to ``C`` by
inheritance counts.

The scan places a receiver where the code says what it is: ``self``,
``cls`` or ``super()`` in a class; the class's own name; a parameter or
variable annotated with the class (an override's unannotated parameter
takes the overridden method's annotation); a name bound to the class's
constructor, or to a call whose return annotation names the class; an
attribute the class binds or annotates; an element of an annotated
container; a list, set or tuple literal; a module.  Where a name or an attribute has an
annotation, the annotation is its type; else it is every value any of
its bindings gives it.  A receiver the scan cannot place (an
unannotated parameter, a call it cannot resolve, an ``Any``) credits
every member of that name, so the scan never fails on a live name that
it cannot read.  A keyword argument names a
parameter and credits nothing.  A string never counts: a docstring, an
error message or a dict key that spells a name calls nothing, and
counting its words would keep alive a name only prose mentions.  Neither
does a comment, a definition from inside itself, or an ``__init__``
module's imports and ``__all__``: a re-export calls nothing.  Reading
the AST also gives the same answer on every Python, where the tokenizer
splits an f-string into parts from 3.12 on but keeps it one string
token before.

A name with no caller is surface the product does not run.  Delete it,
with its exports and the tests that check only it, move it beside the
bench or test that runs it, or list it in ``ALLOWED`` with the reason it
stays.  An oracle is no such reason: a reference implementation only
tests call lives in ``tests/oracles.py``, and a model only a figure bench
runs lives in ``benchmarks/``.

A knob lives only if a caller sets it.  Every parameter with a default
on a public function or method under ``src/repro`` must be set by some
call under ``src/``, ``examples/`` or ``benchmarks/`` (``SETTER_DIRS``)
whose callee has that name (the class name for ``__init__``; for a
method, through a receiver that can be its class): by keyword, by
position, or through ``*`` unpacking.  A ``**`` unpacking sets nothing:
the scan cannot read which keys a dict holds, and counting it as setting
every parameter of its callee would hide each one a dispatcher forwards.
A measurement arm counts here, unlike above: it is a second workload
that can need a second value (``MetricsRegistry(enabled=False)``).  A
default no such call sets is a constant in disguise: inline it, make it
required where the one dispatcher always passes it, or list it in
``ALLOWED_DEFAULTS`` with the caller the scan cannot see or the test
seam it is.

An import under ``src/`` or ``examples/`` names the standard library,
``repro`` or a package of ``pyproject.toml``'s ``[project]
dependencies``; what only the tests need (networkx, hypothesis) is in
the ``test`` extra.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples")
SETTER_DIRS = ("src", "examples", "benchmarks")

_ASYNCIO = "asyncio.Protocol callback: the event loop calls it"
_SPINE_CHAR = ("the measurement spine's characterization path calls it "
               "(benchmarks/spine/char.py)")
_SPINE_CHECK = ("the measurement spine's correctness check of a cell's "
                "outputs (benchmarks/spine/char.py)")
_SPINE_SERVE = ("the measurement spine's serving report calls it "
                "(benchmarks/spine/serve.py)")

#: qualified name -> why it stays without a caller in the product
ALLOWED = {
    "repro.service.server.FrameProtocol.connection_made": _ASYNCIO,
    "repro.service.server.FrameProtocol.data_received": _ASYNCIO,
    "repro.service.server.FrameProtocol.eof_received": _ASYNCIO,
    "repro.service.server.FrameProtocol.connection_lost": _ASYNCIO,
    "repro.service.server.FrameProtocol.pause_writing": _ASYNCIO,
    "repro.harness.framework_time.average_fraction":
        "Fig. 1's suite-average in-framework fraction (the paper's 76 %)",
    "repro.arch.icache.code_footprint":
        "the flat-stack claim: GraphBIG's total code bytes",
    "repro.formats.csr.CSRGraph.vprop_addr":
        "the CSR layout's vertex-property slot address (Fig. 2's contrast)",
    "repro.harness.runner.cache_stats":
        "the harness caches' counters; tests observe the caches through it",
    "repro.cluster.topology.ClusterThread.kill_shard":
        "README's cluster walkthrough documents cluster.kill_shard(...) as "
        "the way to fail a shard by hand",
    "repro.cluster.topology.ClusterThread.restart_shard":
        "the other half of the failover lab: brings a shard failed by hand "
        "with kill_shard back on its port",
    "repro.harness.runner.clear_cache": _SPINE_CHAR,
    "repro.parallel.trace_sim.simulate_multicore": _SPINE_CHAR,
    "repro.workloads.validate.validate_bfs": _SPINE_CHECK,
    "repro.workloads.validate.validate_sssp": _SPINE_CHECK,
    "repro.workloads.validate.validate_kcore": _SPINE_CHECK,
    "repro.workloads.validate.validate_triangles": _SPINE_CHECK,
    "repro.service.client.ServiceClient.query_lang":
        "the measurement spine's router-vs-local query check calls it "
        "(benchmarks/spine/serve.py)",
    "repro.obs.metrics.MetricsRegistry.delta": _SPINE_SERVE,
    "repro.service.loadgen.LoadReport.latency_ms": _SPINE_SERVE,
    "repro.service.client.ServiceClient.ping":
        "README's programmatic-use block documents client.ping() as the "
        "handshake that checks the server's reported protocol release",
    "repro.resilience.netchaos.ChaosProxy.set_faults":
        "the live chaos lever: bench_chaos_availability.py and the "
        "reliability tests slow or black-hole a proxied hop mid-run; "
        "the CLI's --netchaos only fixes the spec at boot",
}

_HARNESS_CLS = ("cli.py's cmd_cluster_serve boots the cluster it picks "
                "through harness_cls(spec, **kwargs)")
_FAKE_CLOCK = "tests run it on a fake clock (the virtual-clock seam)"
_ROUTER_TIMING = ("test seam: the cluster tests shorten the router's "
                  "timings so a dead or slowed shard fails over in "
                  "seconds, or stretch the probe interval to keep the "
                  "prober out of a scripted fault")
_VIA_RUN = ("examples/{} sets it through workloads.run(name, g, "
            "**params), which forwards to the kernel")
_HANDLER_ARGS = ("GraphService._dispatch calls the handler table with "
                 "*args, the shard's parse of the DSL text included")

#: ``qualified.function(param=)`` -> who sets it, out of the scan's sight
ALLOWED_DEFAULTS = {
    "repro.cluster.topology.ClusterThread.__init__(port=)": _HARNESS_CLS,
    "repro.cluster.topology.ClusterThread.__init__(netchaos_faults=)":
        _HARNESS_CLS,
    "repro.obs.metrics.Gauge.__init__(callback=)":
        "MetricsRegistry.gauge hands it over through _family(**kwargs) to "
        "the family's child constructor",
    "repro.query.engine.QueryEngine.query(pipeline=)": _HANDLER_ARGS,
    "repro.query.engine.QueryEngine.explain(pipeline=)": _HANDLER_ARGS,
    "repro.dynamic.store.SnapshotStore.from_edges(max_versions=)":
        "test seam: the compaction tests shrink the retention window to a "
        "few versions so a short commit run retires some",
    "repro.harness.runner.characterize(tracer=)":
        "test seam: tests hand it a SpanTracer to read the spans back",
    "repro.obs.logs.setup_logging(stream=)":
        "test seam: tests read the log lines back from a StringIO",
    "repro.resilience.matrix.run_matrix(sleep=)":
        "test seam: tests pass a fake sleep so retry backoff takes no time",
    "repro.service.cache.LRUCache.__init__(clock=)": _FAKE_CLOCK,
    "repro.cluster.replica.ShardHealth.__init__(clock=)": _FAKE_CLOCK,
    "repro.cluster.replica.ShardHealth.__init__(max_reset_timeout_s=)":
        "test seam: the breaker tests lower the back-off cap so a few "
        "failed trials on a fake clock reach it",
    "repro.cluster.router.Router.__init__(attempt_timeout_s=)":
        _ROUTER_TIMING,
    "repro.cluster.router.Router.__init__(fanout_timeout_s=)":
        _ROUTER_TIMING,
    "repro.cluster.router.Router.__init__(probe_interval_s=)":
        _ROUTER_TIMING,
    "repro.cluster.router.Router.__init__(reliability=)":
        "cli.py's cmd_cluster_serve passes the flags' ReliabilityConfig "
        "as router_kwargs, which the cluster harness unpacks into "
        "Router(**router_kwargs)",
    "repro.workloads.gibbs.Gibbs.kernel(seed=)":
        _VIA_RUN.format("bayesian_inference.py"),
    "repro.workloads.gibbs.Gibbs.kernel(evidence=)":
        _VIA_RUN.format("bayesian_inference.py"),
    "repro.workloads.gup.GUp.kernel(fraction=)":
        _VIA_RUN.format("dynamic_graph_stream.py"),
    "repro.workloads.gup.GUp.kernel(seed=)":
        _VIA_RUN.format("dynamic_graph_stream.py"),
    "repro.tenancy.qos.TenantGovernor.__init__(clock=)": _FAKE_CLOCK,
    "repro.service.protocol.Request.remaining(now=)": _FAKE_CLOCK,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _module(path: Path, package: Path = PACKAGE) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _bound_names(node: ast.AST) -> list[str]:
    """Names a module-level ``X = ...`` or ``X: T = ...`` binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def public_definitions(path: Path, package: Path = PACKAGE
                       ) -> list[tuple[str, str, str | None]]:
    """``(qualified name, name, owner)`` of every public function, class
    and method defined at module or class level in ``path``, and of every
    public name a module other than an ``__init__`` assigns at its top
    level.  The owner is the class a definition is a member of, ``None``
    at module level."""
    module = _module(path, package)

    def walk(body, prefix, owner):
        for node in body:
            if isinstance(node, _DEFS):
                if not node.name.startswith("_"):
                    yield f"{prefix}.{node.name}", node.name, owner
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}",
                                    node.name)

    body = ast.parse(path.read_text()).body
    names = list(walk(body, module, None))
    if path.name != "__init__.py":
        names += [(f"{module}.{name}", name, None) for node in body
                  for name in _bound_names(node) if not name.startswith("_")]
    return names


def _is_reexport(node: ast.AST) -> bool:
    """An import, or an assignment to ``__all__``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


# -- where a receiver can be placed --------------------------------------------
#
# A type is ``(kind, name, args)``: ``("obj", C, args)`` an instance of the
# class named ``C`` (``args`` its type arguments, as an annotation spells
# them), ``("cls", C, ())`` the class itself, ``("mod", dotted, ())`` a
# module, ``("fn", id, ())`` a product function, ``("builtin", f, ())`` a
# builtin function and ``("ext", "", ())`` any other object an outside
# module holds.  A receiver is placed at a frozenset of types, or at
# ``None`` where the scan cannot place it.

NONE_T = ("obj", "NoneType", ())
EXT = frozenset({("ext", "", ())})
_SEQS = {"list", "deque", "Sequence", "MutableSequence"}
_ITERS = _SEQS | {"set", "frozenset", "Set", "MutableSet", "Iterable",
                  "Iterator", "Generator", "Collection", "KeysView",
                  "ValuesView"}
_MAPS = {"dict", "Mapping", "MutableMapping", "OrderedDict", "defaultdict",
         "Counter"}


def _union(parts) -> frozenset | None:
    out: set = set()
    for part in parts:
        if part is None:
            return None
        out |= part
    return frozenset(out)


def _declared(bindings: list[tuple]) -> list[tuple]:
    """The bindings that fix a name's type: its annotations where it has
    any (an assignment must then agree with them), else every binding."""
    return [b for b in bindings if b[0] == "ann"] or bindings


def _empty(node: ast.AST) -> bool:
    """An empty literal: ``[]``, ``{}``, ``()``."""
    return isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)) and \
        not (node.keys if isinstance(node, ast.Dict) else node.elts)


def _spelled(node: ast.AST) -> str | None:
    """The last name an annotation or a base class spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _spelled(node.value)
    return None


class _Scope:
    """The names a module, class body, function or comprehension binds,
    each with the bindings that may give it a value.  A function's parent
    skips a class body, as Python's lookup does."""

    def __init__(self, parent: _Scope | None, cls: str | None = None):
        self.parent = parent
        self.cls = cls              # the class ``self``, ``cls`` and ``super()`` name
        self.body_of: _Class | None = None    # the class whose body this is
        self.binds: dict[str, list[tuple]] = {}
        self.free: dict[str, _Scope] = {}   # global / nonlocal: where it binds


class _Class:
    def __init__(self, name: str, bases: list[str], scope: _Scope):
        self.name, self.bases, self.scope = name, bases, scope
        self.methods: dict[str, list[tuple[ast.AST, _Scope]]] = {}


class Scan:
    """Every file under ``root``'s ``dirs`` (a directory or a file),
    parsed once; one walk records the scope of each name, attribute and
    call, and each name's bindings.  What a receiver can be is read from
    those afterwards (the module docstring says where a receiver is
    placed).  Bindings are read flow-insensitively: a name is every value
    any of its bindings gives it, and one binding the scan cannot place
    leaves the name unplaced."""

    def __init__(self, root: Path, dirs):
        self.classes: dict[str, list[_Class]] = {}
        self.modules: dict[str, _Scope] = {}
        self.fns: dict[int, tuple[ast.AST, _Scope]] = {}
        self.attr_binds: dict[str, list[tuple]] = {}
        self.nodes: dict[Path, list[tuple[ast.AST, _Scope]]] = {}
        self.trees: dict[Path, ast.Module] = {}
        self._memo: dict = {}
        self._families: dict[str, set[str]] = {}
        for d in dirs:
            top = root / d
            for path in [top] if top.is_file() else sorted(top.rglob("*.py")):
                parts = path.relative_to(root).with_suffix("").parts
                parts = parts[1:] if parts[0] == "src" else parts
                if parts[-1] == "__init__":
                    parts, package = parts[:-1], parts[:-1]
                else:
                    package = parts[:-1]
                module = _Scope(None)
                self.modules[".".join(parts)] = module
                self.trees[path] = tree = ast.parse(path.read_text())
                self.nodes[path] = []
                self._package = package
                self._walk_body(tree.body, module, self.nodes[path])
        self._tops = {m.split(".")[0] for m in self.modules}

    # -- the walk: scopes, bindings, and each name and attribute's scope ----

    def _bind(self, target: ast.AST, scope: _Scope, how: tuple,
              path: tuple = ()) -> None:
        if isinstance(target, ast.Name):
            home = scope.free.get(target.id, scope)
            home.binds.setdefault(target.id, []).append(how + (path,))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, elt in enumerate(target.elts):
                if isinstance(elt, ast.Starred):
                    self._bind(elt.value, scope, ("none", None, None))
                else:
                    self._bind(elt, scope, how, path + (i,))
        elif isinstance(target, ast.Attribute):
            self.attr_binds.setdefault(target.attr, []).append(
                (target.value, scope, how + (path,)))

    def _walk_body(self, body, scope, out) -> None:
        for node in body:
            self._walk(node, scope, out)

    def _function(self, node, scope, out) -> None:
        owner = None if isinstance(node, ast.Lambda) else scope.body_of
        inner = _Scope(scope.parent if owner else scope, scope.cls)
        for d in getattr(node, "decorator_list", ()):
            self._walk(d, scope, out)
        a = node.args
        for default in a.defaults + [d for d in a.kw_defaults if d]:
            self._walk(default, scope, out)
        decorators = {_spelled(d) for d in getattr(node, "decorator_list", ())}
        params = a.posonlyargs + a.args
        for i, arg in enumerate(params + a.kwonlyargs):
            if i == 0 and owner and "staticmethod" not in decorators:
                kind = "cls" if "classmethod" in decorators else "obj"
                how = ("fixed", frozenset({(kind, scope.cls, ())}), None)
            elif arg.annotation is not None:
                how = ("ann", arg.annotation, inner)
            elif owner:
                how = ("inherit", (owner.name, node.name, arg.arg), None)
            else:
                how = ("none", None, None)
            self._bind(ast.Name(arg.arg), inner, how)
        for arg in (a.vararg, a.kwarg):
            if arg is not None:
                self._bind(ast.Name(arg.arg), inner, ("none", None, None))
        if isinstance(node, ast.Lambda):
            self._walk(node.body, inner, out)
            return
        for arg in params + a.kwonlyargs + [a.vararg, a.kwarg]:
            if arg is not None and arg.annotation is not None:
                self._walk(arg.annotation, inner, out)
        if node.returns is not None:
            self._walk(node.returns, inner, out)
        if owner:
            owner.methods.setdefault(node.name, []).append((node, inner))
        else:
            self.fns[id(node)] = (node, inner)
            self._bind(ast.Name(node.name), scope,
                       ("fixed", frozenset({("fn", id(node), ())}), None))
        self._walk_body(node.body, inner, out)

    def _walk(self, node: ast.AST, scope: _Scope, out) -> None:
        if isinstance(node, _FUNCS):
            self._function(node, scope, out)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.bases + node.keywords + node.decorator_list:
                self._walk(child, scope, out)
            body = _Scope(scope, node.name)
            body.body_of = _Class(node.name, [_spelled(b) for b in node.bases],
                                  body)
            self.classes.setdefault(node.name, []).append(body.body_of)
            self._bind(ast.Name(node.name), scope,
                       ("fixed", frozenset({("cls", node.name, ())}), None))
            self._walk_body(node.body, body, out)
            return
        if isinstance(node, _COMPS):
            inner = _Scope(scope, scope.cls)
            for i, gen in enumerate(node.generators):
                at = scope if i == 0 else inner
                self._walk(gen.iter, at, out)
                self._bind(gen.target, inner, ("iter", gen.iter, at))
                self._walk(gen.target, inner, out)
                for cond in gen.ifs:
                    self._walk(cond, inner, out)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    self._walk(getattr(node, part), inner, out)
            return
        if isinstance(node, ast.Assign):
            for t in node.targets:
                self._bind(t, scope, ("val", node.value, scope))
        elif isinstance(node, ast.AnnAssign):
            self._bind(node.target, scope, ("ann", node.annotation, scope))
        elif isinstance(node, ast.NamedExpr):
            self._bind(node.target, scope, ("val", node.value, scope))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind(node.target, scope, ("iter", node.iter, scope))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            self._bind(node.optional_vars, scope, ("none", None, None))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            self._bind(ast.Name(node.name), scope, ("none", None, None))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            home = scope
            while home.parent is not None and (
                    isinstance(node, ast.Global) or home is scope):
                home = home.parent
            for name in node.names:
                scope.free[name] = home
        elif isinstance(node, ast.Import):
            for a in node.names:
                dotted = a.name if a.asname else a.name.split(".")[0]
                self._bind(ast.Name(a.asname or dotted), scope,
                           ("fixed", frozenset({("mod", dotted, ())}), None))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = self._package[:len(self._package) - node.level + 1]
                base = ".".join(pkg + ((base,) if base else ()))
            for a in node.names:
                self._bind(ast.Name(a.asname or a.name), scope,
                           ("from", (base, a.name), None))
        if isinstance(node, (ast.Name, ast.Attribute, ast.Call, ast.alias)):
            out.append((node, scope))
        for child in ast.iter_child_nodes(node):
            self._walk(child, scope, out)

    # -- the types a receiver can be --------------------------------------

    def _closure(self, cls: str, up: bool) -> set[str]:
        """The ancestors (``up``) or the descendants of ``cls``."""
        parents = {n: {b for c in cs for b in c.bases if b}
                   for n, cs in self.classes.items()}
        seen, todo = set(), [cls]
        while todo:
            n = todo.pop()
            for nxt in parents.get(n, ()) if up else [
                    c for c, ps in parents.items() if n in ps]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    def family(self, cls: str) -> set[str]:
        """``cls`` and every class related to it by inheritance: its
        ancestors and its descendants."""
        if cls not in self._families:
            self._families[cls] = {cls} | self._closure(cls, True) \
                | self._closure(cls, False)
        return self._families[cls]

    def can_be(self, types: frozenset | None, cls: str) -> bool:
        """Whether a receiver placed at ``types`` can be a ``cls``."""
        if types is None:
            return True
        family = self.family(cls)
        return any(k in ("obj", "cls") and n in family for k, n, _ in types)

    def types(self, e: ast.AST, scope: _Scope) -> frozenset | None:
        key = id(e)
        if key not in self._memo:
            self._memo[key] = None      # a cycle is unplaced
            self._memo[key] = self._types(e, scope)
        return self._memo[key]

    def _each(self, types, f) -> frozenset | None:
        if types is None:
            return None
        return _union(f(t) for t in types if t != NONE_T)

    def _types(self, e, scope):
        if isinstance(e, ast.Name):
            return self.lookup(e.id, scope)
        if isinstance(e, ast.Attribute):
            return self._each(self.types(e.value, scope),
                              lambda t: self._member(t, e.attr))
        if isinstance(e, ast.Call):
            return self._call(e, scope)
        if isinstance(e, ast.Subscript):
            return self._each(self.types(e.value, scope),
                              lambda t: self._index(t, e.slice))
        if isinstance(e, (ast.List, ast.Set)):
            kind = "list" if isinstance(e, ast.List) else "set"
            elts = _union(self.types(x, scope) for x in e.elts) \
                if e.elts else None
            return frozenset({("obj", kind, (elts,))})
        if isinstance(e, ast.Tuple):
            return frozenset({("obj", "tuple", tuple(
                self.types(x, scope) for x in e.elts))})
        if isinstance(e, ast.IfExp):
            return _union([self.types(e.body, scope),
                           self.types(e.orelse, scope)])
        return None

    def lookup(self, name: str, scope: _Scope) -> frozenset | None:
        while scope is not None:
            if name in scope.binds:
                key = ("name", id(scope), name)
                if key not in self._memo:
                    self._memo[key] = None
                    self._memo[key] = _union(
                        self._binding(b) for b in _declared(scope.binds[name]))
                return self._memo[key]
            scope = scope.parent
        builtin = getattr(builtins, name, None)
        if builtin is None:
            return None
        kind = "cls" if isinstance(builtin, type) else "builtin"
        return frozenset({(kind, name, ())})

    def _binding(self, how) -> frozenset | None:
        kind, node, scope, path = how
        if kind == "fixed":
            types = node
        elif kind == "ann":
            types = self.annotation(node, scope)
        elif kind == "val":
            types = self.types(node, scope)
        elif kind == "iter":
            types = self._each(self.types(node, scope), self._element)
        elif kind == "from":
            types = self._module_attr(*node)
        elif kind == "inherit":
            cls, method, param = node
            anns = [(arg.annotation, inner)
                    for base in self._closure(cls, True)
                    for c in self.classes.get(base, ())
                    for fn, inner in c.methods.get(method, ())
                    for arg in fn.args.posonlyargs + fn.args.args
                    + fn.args.kwonlyargs
                    if arg.arg == param and arg.annotation is not None]
            types = _union(self.annotation(*a) for a in anns) if anns \
                else None
        else:
            return None
        for i in path:
            types = self._each(types, lambda t: self._item(t, i))
        return types

    def annotation(self, node, scope) -> frozenset | None:
        """The types an annotation names: each class it resolves to
        (``C``, ``C[args]``, ``type[C]`` for the class itself), ``None``,
        or a union of them.  ``Any``, ``object`` and a name that resolves
        to anything but a class (``Optional``, ``typing.Iterator``) place
        nothing."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            key = ("parsed", id(node))      # kept alive: the memo keys on ids
            if key not in self._memo:
                try:
                    self._memo[key] = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
            return self.annotation(self._memo[key], scope)
        if isinstance(node, ast.Constant):
            return frozenset({NONE_T}) if node.value is None else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union([self.annotation(node.left, scope),
                           self.annotation(node.right, scope)])
        base, args = node, ()
        if isinstance(node, ast.Subscript):
            base = node.value
            elts = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            args = tuple(self.annotation(x, scope) for x in elts)
        classes = self.types(base, scope)
        if _spelled(base) in ("Any", "object") or classes is None or any(
                kind != "cls" for kind, _, _ in classes):
            return None
        if _spelled(base) == "type" and args:
            return self._each(args[0], lambda t: frozenset({("cls", t[1], ())}))
        return frozenset(("obj", name, args) for _, name, _ in classes)

    def _module_attr(self, module: str, name: str) -> frozenset | None:
        """What ``module.name`` is: a submodule, a class, a product
        module's binding, or an outside module's object."""
        if f"{module}.{name}" in self.modules:
            return frozenset({("mod", f"{module}.{name}", ())})
        if module in self.modules:
            scope = self.modules[module]
            return self.lookup(name, scope) if name in scope.binds else None
        if module.split(".")[0] in self._tops | {"tests"}:
            return None
        try:
            obj = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            try:
                obj = importlib.import_module(f"{module}.{name}")
            except ImportError:
                return None
        if inspect.ismodule(obj):
            return frozenset({("mod", obj.__name__, ())})
        if isinstance(obj, type):
            return frozenset({("cls", name, ())})
        return EXT

    def _member(self, t, attr: str) -> frozenset | None:
        kind, name, _ = t
        if kind == "mod":
            return self._module_attr(name, attr)
        if kind in ("ext", "builtin"):
            return EXT
        if name not in self.classes:
            return None
        key = ("member", name, attr)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None
        binds, parts = [], []
        for c in self._classes(name):
            binds += c.scope.binds.get(attr, ())
            for fn, inner in c.methods.get(attr, ()):
                prop = {"property", "cached_property"} & {
                    _spelled(d) for d in fn.decorator_list}
                parts.append(self.annotation(fn.returns, inner)
                             if prop else EXT)
        binds += [how for receiver, scope, how in self.attr_binds.get(attr, ())
                  if self.can_be(self.types(receiver, scope), name)]
        parts += [self._binding(b) for b in _declared(binds)]
        self._memo[key] = _union(parts) if parts else None
        return self._memo[key]

    def _classes(self, name: str) -> list[_Class]:
        return [c for n in self.family(name) for c in self.classes.get(n, ())]

    def _call(self, e: ast.Call, scope: _Scope) -> frozenset | None:
        f = e.func
        if isinstance(f, ast.Name) and f.id == "super":
            return frozenset({("obj", scope.cls, ())}) if scope.cls else None
        if isinstance(f, ast.Attribute):
            return self._each(self.types(f.value, scope),
                              lambda t: self._method(t, f.attr, e, scope))
        return self._each(self.types(f, scope),
                          lambda t: self._result(t, e, scope))

    def _result(self, t, e, scope) -> frozenset | None:
        """What calling a ``t`` returns."""
        kind, name, _ = t
        args = [self.types(a, scope) for a in e.args]
        each = [self._each(a, self._element) for a in args]
        if kind == "cls" and name != "type":    # type(x) is x's class
            if name == "dict" and len(args) == 1:
                pairs = self._each(each[0], lambda p: frozenset(
                    {("obj", "dict", (self._item(p, 0), self._item(p, 1)))}))
                if args[0] is not None and all(
                        n in _MAPS and len(a) == 2 for _, n, a in args[0]):
                    pairs = frozenset(("obj", "dict", a) for _, _, a in args[0])
                return pairs
            return frozenset({("obj", name, ())})
        if kind == "builtin" and name == "sorted" and args:
            return frozenset({("obj", "list", (each[0],))})
        if kind == "fn":
            node, inner = self.fns[name]
            return self.annotation(node.returns, inner)
        return None

    def _method(self, t, attr, e, scope) -> frozenset | None:
        """What ``receiver.attr(...)`` returns for a receiver ``t``."""
        kind, name, args = t
        if kind == "mod":
            return self._each(self._module_attr(name, attr),
                              lambda c: self._result(c, e, scope))
        if name in self.classes:
            defs = [d for c in self._classes(name)
                    for d in c.methods.get(attr, ())]
            if not defs:
                return None
            return _union(self.annotation(fn.returns, inner)
                          for fn, inner in defs)
        if kind != "obj":
            return None
        if name in _MAPS and len(args) == 2:
            value = args[1]
            if attr in ("get", "pop"):
                # an empty literal default holds nothing the value lacks
                default = e.args[1] if len(e.args) > 1 else None
                default = frozenset({NONE_T} if attr == "get" else ()) \
                    if default is None else frozenset() if _empty(default) \
                    else self.types(default, scope)
                return _union([value, default])
            if attr == "items":
                return frozenset({("obj", "ItemsView", args)})
        return None

    def _element(self, t) -> frozenset | None:
        """The type of an item iterating a ``t`` yields."""
        kind, name, args = t
        if kind == "obj" and args:
            if name in _ITERS or name in _MAPS:
                return args[0]
            if name == "ItemsView":
                return frozenset({("obj", "tuple", args)})
            if name == "tuple":
                return _union(args)
        return None

    def _item(self, t, i: int) -> frozenset | None:
        """The ``i``-th item of unpacking a ``t``."""
        kind, name, args = t
        if kind == "obj" and name == "tuple" and args:
            return args[i] if i < len(args) else None
        return self._element(t)

    def _index(self, t, index: ast.AST) -> frozenset | None:
        kind, name, args = t
        if kind != "obj" or not args:
            return None
        if name in _SEQS:
            return frozenset({t}) if isinstance(index, ast.Slice) else args[0]
        if name in _MAPS and len(args) == 2:
            return args[1]
        return None

    # -- what a file's code credits ---------------------------------------

    def uses(self, path: Path) -> tuple[set[str], list[tuple]]:
        """The names ``path``'s code refers to (an identifier, an attribute
        or an imported name) and its attribute accesses, each with where
        its receiver can be placed.  A keyword argument names a parameter,
        and strings and comments are not code.  No definition refers to
        itself: a definition's or a module-level assignment's own span
        does not refer to its own name, and an attribute access comes
        with the classes whose same-named member it sits inside, which it
        does not credit.  In an ``__init__`` module neither imports nor
        ``__all__`` refer to anything."""
        tree = self.trees[path]
        spans: dict[str, list[tuple[int, int, str | None]]] = {}
        skipped: set[int] = set()

        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                spans.setdefault(node.name, []).append(
                    (node.lineno, node.end_lineno, owner.get(id(node))))
            elif path.name == "__init__.py" and _is_reexport(node):
                skipped.update(range(node.lineno, node.end_lineno + 1))
        for node in tree.body:
            for name in _bound_names(node):
                spans.setdefault(name, []).append(
                    (node.lineno, node.end_lineno, None))
        names: set[str] = set()
        attrs: list[tuple] = []
        for node, scope in self.nodes[path]:
            if isinstance(node, ast.Call):
                continue
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.name.rpartition(".")[2]
            if node.lineno in skipped:
                continue
            own = [o for a, b, o in spans.get(name, ())
                   if a <= node.lineno <= b]
            if isinstance(node, ast.Attribute):
                attrs.append((name, self.types(node.value, scope),
                              frozenset(own)))
            if not own:
                names.add(name)
        return names, attrs

    def calls(self, paths) -> dict[str, list[tuple[set, int, bool, frozenset | None]]]:
        """For each callee name the calls in ``paths`` make:
        ``(keywords, positional count, any *-unpacking, receiver)``.  A
        ``**`` unpacking names no keyword; a plain call's receiver is the
        empty set, which no class can be."""
        calls: dict[str, list] = {}
        for path in paths:
            for node, scope in self.nodes[path]:
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name, receiver = f.id, frozenset()
                elif isinstance(f, ast.Attribute):
                    name, receiver = f.attr, self.types(f.value, scope)
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    ({k.arg for k in node.keywords if k.arg is not None},
                     len(node.args), starred, receiver))
        return calls


def unreached_in(scan: Scan, definitions, callers) -> set[str]:
    """The qualified names of ``definitions`` no code in ``callers``
    credits: a module-level one by its name, a member of a class ``C`` by
    an attribute access whose receiver can be a ``C``."""
    names: set[str] = set()
    receivers: dict[str, list] = {}
    for path in callers:
        used, attrs = scan.uses(path)
        names |= used
        for attr, types, inside in attrs:
            receivers.setdefault(attr, []).append((types, inside))
    return {qual for qual, name, owner in definitions
            if (name not in names if owner is None else not any(
                owner not in inside and scan.can_be(types, owner)
                for types, inside in receivers.get(name, ())))}


def test_only_code_names_a_caller(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""Module prose: docword."""\n'
        "import imported_mod\n"
        "from pkg import imported_name\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    # comment_word\n"
        "    table = {'dict_key_word': x.attr_name}\n"
        "    g(kw_name=table)\n"
        "    print(f'{fstring_name} total')\n"
        "    raise ValueError('error_word in a message')\n")
    used, attrs = Scan(tmp_path, (".",)).uses(probe)
    for prose in ("docword", "comment_word", "dict_key_word", "error_word",
                  "total", "message", "kw_name"):
        assert prose not in used, prose
    for code in ("imported_mod", "imported_name", "attr_name",
                 "fstring_name", "g", "print", "ValueError"):
        assert code in used, code
    assert attrs == [("attr_name", None, frozenset())]


def test_a_module_binding_is_a_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("REEXPORTED = 1\n")
    mod = pkg / "mod.py"
    mod.write_text("TABLE = {'k': 1}\n"
                   "LIMIT: int = 3\n"
                   "_PRIVATE = 4\n"
                   "A, B = 5, 6\n"
                   "WIDE = dict(\n"
                   "    k=WIDE_PART)\n"
                   "print(LIMIT, A)\n")
    assert public_definitions(pkg / "__init__.py", pkg) == []
    assert [q for q, _, _ in public_definitions(mod, pkg)] == [
        "pkg.mod.TABLE", "pkg.mod.LIMIT", "pkg.mod.A", "pkg.mod.B",
        "pkg.mod.WIDE"]
    used, _ = Scan(tmp_path, ("pkg",)).uses(mod)
    assert {"LIMIT", "A", "print"} <= used
    assert not {"TABLE", "B", "WIDE"} & used


#: one member of class ``A`` per form that places a receiver at ``A``; the
#: probe calls each through its form and no other way
PLACEMENTS = ("by_self", "by_cls", "by_super", "by_name", "by_param",
              "by_override", "by_variable", "by_declared", "by_constructor",
              "by_subclass", "by_return", "by_bound_attribute",
              "by_annotated_attribute", "by_element", "by_items", "by_module")


def test_a_method_is_credited_only_where_its_receiver_can_be_its_class(
        tmp_path):
    members = "".join(f"    def {m}(self):\n        pass\n\n"
                      for m in PLACEMENTS + ("reverse", "anywhere"))
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    mod = pkg / "mod.py"
    mod.write_text(
        f"class A:\n{members}"
        "    def run(self):\n"
        "        self.by_self()\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        cls.by_cls()\n"
        "\n"
        "\n"
        "class Sub(A):\n"
        "    def run(self):\n"
        "        super().by_super()\n"
        "\n"
        "\n"
        f"class B:\n{members}")
    product = tmp_path / "product.py"
    product.write_text(
        "import pkg.mod\n"
        "from pkg.mod import A, Sub\n"
        "\n"
        "\n"
        "def build() -> 'A | None':\n"
        "    return A()\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    annotated: A\n"
        "\n"
        "    def __init__(self):\n"
        "        self.bound = A()\n"
        "\n"
        "    def go(self, x: A, table: dict[str, list[A]]):\n"
        "        x.by_param()\n"
        "        self.bound.by_bound_attribute()\n"
        "        self.annotated.by_annotated_attribute()\n"
        "        table['k'][0].by_element()\n"
        "        for _, a in sorted(table.items()):\n"
        "            a[0].by_items()\n"
        "\n"
        "\n"
        "class Override(Holder):\n"
        "    def go(self, x, table):\n"    # the annotations of Holder.go
        "        x.by_override()\n"
        "\n"
        "\n"
        "def unplaced(u):\n"
        "    u.anywhere()\n"            # a receiver the scan cannot place
        "\n"
        "\n"
        "A.by_name()\n"
        "pkg.mod.A.by_module()\n"
        "y: A = build()\n"
        "y.by_variable()\n"
        "d: A = A()\n"
        "d = unplaced(0)\n"            # an annotation is the name's type
        "d.by_declared()\n"
        "z = A()\n"
        "z.by_constructor()\n"
        "Sub().by_subclass()\n"         # an ancestor's member
        "w = build()\n"
        "w.by_return()\n"
        "sorted([3, 1], reverse=True)\n"   # a keyword names a parameter
        "[].reverse()\n")               # a list is no A
    scan = Scan(tmp_path, ("pkg", "product.py"))
    definitions = public_definitions(mod, pkg)
    got = unreached_in(scan, definitions, [mod, product])
    assert got == {"pkg.mod.A.reverse", "pkg.mod.A.run", "pkg.mod.A.make",
                   "pkg.mod.Sub.run", "pkg.mod.B", "pkg.mod.B.reverse"} | {
        f"pkg.mod.B.{m}" for m in PLACEMENTS}
    # without the caller, a placed receiver credits only its own class
    assert unreached_in(scan, definitions, [mod]) >= {
        f"pkg.mod.A.{m}" for m in PLACEMENTS[3:] + ("anywhere",)}


@pytest.fixture(scope="module")
def scan() -> Scan:
    return Scan(ROOT, SETTER_DIRS)


@pytest.fixture(scope="module")
def unreached(scan) -> set[str]:
    """Qualified names of the public definitions nothing calls."""
    definitions = [d for path in sorted(PACKAGE.rglob("*.py"))
                   for d in public_definitions(path)]
    callers = [p for p in scan.trees
               if p.relative_to(ROOT).parts[0] in CALLER_DIRS]
    return unreached_in(scan, definitions, callers)


def test_every_public_name_has_a_caller_outside_tests(unreached):
    dead = sorted(unreached - set(ALLOWED))
    assert not dead, ("public names the product does not reach (delete "
                      "them, move them to benchmarks/ or tests/, or give "
                      "ALLOWED a reason):\n  " + "\n  ".join(dead))


def test_allowed_entries_are_not_stale(unreached):
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, ("ALLOWED names that are gone or now have a "
                       "caller:\n  " + "\n  ".join(stale))
    assert all(reason.strip() for reason in ALLOWED.values())


def defaulted_parameters(path: Path, package: Path = PACKAGE
                         ) -> list[tuple[str, str, str, int | None,
                                         str | None]]:
    """``(qualified "function(param=)", callee, param, position, owner)``
    of every parameter with a default on a public function or method of a
    public class in ``path``.  The callee is the name a call spells: the
    class name for ``__init__``.  The position is the argument index a
    call passes it at, the bound ``self`` or ``cls`` left out; ``None``
    for a keyword-only parameter.  The owner is the class a call's
    receiver must be able to be, ``None`` for a module-level function or
    an ``__init__``."""
    out = []

    def walk(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    walk(node.body, f"{prefix}.{node.name}", node.name)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if cls is not None and node.name == "__init__":
                callee, owner = cls, None
            elif node.name.startswith("_"):
                continue
            else:
                callee, owner = node.name, cls
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            bound = cls is not None and not static
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(arg.arg, i - bound) for i, arg in
                      enumerate(positional[first:], first)]
            params += [(arg.arg, None) for arg, d in
                       zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out.extend((f"{prefix}.{node.name}({name}=)", callee, name, pos,
                        owner) for name, pos in params)

    walk(ast.parse(path.read_text()).body, _module(path, package), None)
    return out


def _sets(call, param: str, pos: int | None) -> bool:
    keywords, n_args, starred, _ = call
    if param in keywords:
        return True
    return pos is not None and (starred or pos < n_args)


def unset_defaults(scan: Scan, definitions, calls) -> set[str]:
    """The defaulted parameters no call in ``calls`` sets: a method's
    only through a receiver that can be its class."""
    return {qual for qual, callee, param, pos, owner in definitions
            if not any(_sets(c, param, pos) and (
                owner is None or scan.can_be(c[3], owner))
                for c in calls.get(callee, ()))}


def test_a_setter_is_any_call_form(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    mod = pkg / "mod.py"
    mod.write_text(
        "def f(a, b=1, c=2, *, kw=3, bench=4, only_tests=5):\n"
        "    pass\n"
        "\n"
        "\n"
        "def g(x=0, y=0):\n"
        "    pass\n"
        "\n"
        "\n"
        "def _private(z=0):\n"
        "    pass\n"
        "\n"
        "\n"
        "class K:\n"
        "    def __init__(self, size=1, clock=None):\n"
        "        pass\n"
        "\n"
        "    def m(self, first=0, second=0):\n"
        "        pass\n"
        "\n"
        "    @staticmethod\n"
        "    def s(v=0):\n"
        "        pass\n"
        "\n"
        "\n"
        "class J:\n"
        "    def m(self, first=0, second=0):\n"
        "        pass\n")
    (tmp_path / "product.py").write_text(
        "from pkg.mod import J\n"
        "f(0, 1)\n"                  # b by position
        "f(0, kw=2)\n"               # kw by keyword
        "g(*pair)\n"                 # x and y through *
        "K(**opts)\n"                # a ** sets neither size nor clock
        "k.m(1)\n"                   # first by position, self bound
        "K.s(1)\n"                   # a staticmethod binds nothing
        "J().m(0, 1)\n")             # a J's m sets nothing of K's
    (tmp_path / "bench.py").write_text("f(0, 1, 2, bench=1)\n")
    (tmp_path / "test_it.py").write_text(
        "f(0, only_tests=1)\nk.m(0, 1)\n")
    scan = Scan(tmp_path, ("pkg", "product.py", "bench.py", "test_it.py"))
    defs = defaulted_parameters(mod, pkg)
    assert "pkg.mod._private(z=)" not in {d[0] for d in defs}
    setters = scan.calls([tmp_path / "product.py", tmp_path / "bench.py"])
    unread = {"pkg.mod.K.__init__(size=)", "pkg.mod.K.__init__(clock=)"}
    assert unset_defaults(scan, defs, setters) == unread | {
        "pkg.mod.f(only_tests=)", "pkg.mod.K.m(second=)"}
    without_bench = scan.calls([tmp_path / "product.py"])
    assert unset_defaults(scan, defs, without_bench) == unread | {
        "pkg.mod.f(c=)", "pkg.mod.f(bench=)", "pkg.mod.f(only_tests=)",
        "pkg.mod.K.m(second=)"}


@pytest.fixture(scope="module")
def unset(scan) -> set[str]:
    """Defaulted parameters no call in ``SETTER_DIRS`` sets."""
    definitions = [d for path in sorted(PACKAGE.rglob("*.py"))
                   for d in defaulted_parameters(path)]
    return unset_defaults(scan, definitions, scan.calls(scan.trees))


def test_every_default_is_set_by_a_caller(unset):
    constant = sorted(unset - set(ALLOWED_DEFAULTS))
    assert not constant, ("defaults no call under src/, examples/ or "
                          "benchmarks/ sets (inline them, make them "
                          "required, or give ALLOWED_DEFAULTS the caller "
                          "or test seam):\n  " + "\n  ".join(constant))


def test_allowed_defaults_are_not_stale(unset):
    stale = sorted(set(ALLOWED_DEFAULTS) - unset)
    assert not stale, ("ALLOWED_DEFAULTS parameters that are gone or now "
                       "have a setter:\n  " + "\n  ".join(stale))
    assert all(reason.strip() for reason in ALLOWED_DEFAULTS.values())


def declared_dependencies() -> set[str]:
    """Import names of ``pyproject.toml``'s ``[project] dependencies``
    (each imports under its distribution name)."""
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]\s*$", project,
                      re.S | re.M).group(1)
    return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
            for req in re.findall(r'"([^"]+)"', block)}


def imported_modules(path: Path) -> set[str]:
    """Top-level module of every absolute import in ``path``, lazy
    imports inside functions included."""
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops


def test_every_import_is_a_declared_dependency():
    shipped = ({"repro"} | set(sys.stdlib_module_names)
               | declared_dependencies())
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {mod}"
        for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))
        for mod in imported_modules(path) - shipped)
    assert not undeclared, ("the product (src/, examples/) imports a module "
                            "that is neither stdlib nor in [project] "
                            "dependencies:\n  " + "\n  ".join(undeclared))
