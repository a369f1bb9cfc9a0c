"""The product ships only what the product runs: every public name in
``src/repro`` has a caller in the product, every keyword default has a
caller that sets it, and every module ``src/repro`` imports ships with
it.

The product is ``src/`` and ``examples/``: the CLI, the library API and
the service.  A figure bench or a test is no caller; code only they need
lives beside them, in ``benchmarks/`` or ``tests/``.  The scan collects
each public (no leading underscore) function, class and method defined
at module or class level under ``src/repro``, and each public name a
module (other than an ``__init__``) binds by assignment at its top
level, then looks for its name in
the code under ``src/`` and ``examples/``, read as an AST: a caller is
an identifier, an attribute, a keyword argument or an imported name,
including one inside an f-string's braces.  A string never counts: a
docstring, an error message or a dict key that spells a name calls
nothing, and counting its words would keep alive a name only prose
mentions.  Neither does a comment, the name's own definition or
assignment, or an ``__init__`` module's imports and ``__all__``: a
re-export calls nothing.  Reading the AST also gives the
same answer on every Python, where the tokenizer splits an f-string into
parts from 3.12 on but keeps it one string token before.

A name with no caller is surface the product does not run.  Delete it,
with its exports and the tests that check only it, move it beside the
bench or test that runs it, or list it in ``ALLOWED`` with the reason it
stays.  An oracle is no such reason: a reference implementation only
tests call lives in ``tests/oracles.py``, and a model only a figure bench
runs lives in ``benchmarks/``.

A knob lives only if a caller sets it.  Every parameter with a default
on a public function or method under ``src/repro`` must be set by some
call under ``src/``, ``examples/`` or ``benchmarks/`` (``SETTER_DIRS``)
whose callee has that name (the class name for ``__init__``): by
keyword, by position, or through ``*`` unpacking.  A ``**`` unpacking
sets nothing: the scan cannot read which keys a dict holds, and counting
it as setting every parameter of its callee would hide each one a
dispatcher forwards.  A measurement arm counts here, unlike above: it
is a second workload that can need a second value
(``MetricsRegistry(enabled=False)``).  A default no such call sets is
a constant in disguise: inline it, make it required where the one
dispatcher always passes it, or list it in ``ALLOWED_DEFAULTS`` with
the caller the scan cannot see or the test seam it is.

An import under ``src/repro`` names the standard library, ``repro`` or a
package of ``pyproject.toml``'s ``[project] dependencies``; what only the
tests need (networkx, hypothesis) is in the ``test`` extra.
"""

from __future__ import annotations

import ast
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
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def public_definitions(path: Path,
                       package: Path = PACKAGE) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of every public function, class and
    method defined at module or class level in ``path``, and of every
    public name a module other than an ``__init__`` assigns at its top
    level."""
    module = _module(path, package)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, _DEFS):
                if not node.name.startswith("_"):
                    yield f"{prefix}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}")

    body = ast.parse(path.read_text()).body
    names = list(walk(body, module))
    if path.name != "__init__.py":
        names += [(f"{module}.{name}", name) for node in body
                  for name in _bound_names(node) if not name.startswith("_")]
    return names


def _is_reexport(node: ast.AST) -> bool:
    """An import, or an assignment to ``__all__``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _name(node: ast.AST) -> str | None:
    """The name ``node`` refers to in code: an identifier, an attribute,
    a keyword argument or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.keyword):
        return node.arg
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def words_used(path: Path) -> set[str]:
    """Names the code of ``path`` refers to, each definition's or
    module-level assignment's own span for its own name and, in an
    ``__init__`` module, imports and ``__all__`` left out.  Strings and
    comments are not code."""
    tree = ast.parse(path.read_text())
    spans: dict[str, list[tuple[int, int]]] = {}
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            spans.setdefault(node.name, []).append(
                (node.lineno, node.end_lineno))
        elif path.name == "__init__.py" and _is_reexport(node):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    for node in tree.body:
        for name in _bound_names(node):
            spans.setdefault(name, []).append((node.lineno, node.end_lineno))
    used = set()
    for node in ast.walk(tree):
        name = _name(node)
        if name is None or node.lineno in skipped:
            continue
        if not any(a <= node.lineno <= b for a, b in spans.get(name, ())):
            used.add(name)
    return used


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
    used = words_used(probe)
    for prose in ("docword", "comment_word", "dict_key_word", "error_word",
                  "total", "message"):
        assert prose not in used, prose
    for code in ("imported_mod", "imported_name", "attr_name", "kw_name",
                 "fstring_name", "g", "print", "ValueError"):
        assert code in used, code


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
    assert [q for q, _ in public_definitions(mod, pkg)] == [
        "pkg.mod.TABLE", "pkg.mod.LIMIT", "pkg.mod.A", "pkg.mod.B",
        "pkg.mod.WIDE"]
    used = words_used(mod)
    assert {"LIMIT", "A", "print"} <= used
    assert not {"TABLE", "B", "WIDE"} & used


@pytest.fixture(scope="module")
def unreached() -> set[str]:
    """Qualified names of the public definitions nothing calls."""
    used: set[str] = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            used |= words_used(path)
    return {qual for path in sorted(PACKAGE.rglob("*.py"))
            for qual, name in public_definitions(path) if name not in used}


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
                         ) -> list[tuple[str, str, str, int | None]]:
    """``(qualified "function(param=)", callee, param, position)`` of every
    parameter with a default on a public function or method of a public
    class in ``path``.  The callee is the name a call spells: the class
    name for ``__init__``.  The position is the argument index a call
    passes it at, the bound ``self`` or ``cls`` left out; ``None`` for a
    keyword-only parameter."""
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
                callee = cls
            elif node.name.startswith("_"):
                continue
            else:
                callee = node.name
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
            out.extend((f"{prefix}.{node.name}({name}=)", callee, name, pos)
                       for name, pos in params)

    walk(ast.parse(path.read_text()).body, _module(path, package), None)
    return out


def calls_by_callee(paths) -> dict[str, list[tuple[set, int, bool]]]:
    """For each callee name (a plain name or an attribute) the calls in
    ``paths`` make: ``(keywords, positional count, any *-unpacking)``.  A
    ``**`` unpacking names no keyword."""
    calls: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                ({k.arg for k in node.keywords if k.arg is not None},
                 len(node.args), starred))
    return calls


def _sets(call, param: str, pos: int | None) -> bool:
    keywords, n_args, starred = call
    if param in keywords:
        return True
    return pos is not None and (starred or pos < n_args)


def unset_defaults(definitions, calls) -> set[str]:
    """The defaulted parameters no call in ``calls`` sets."""
    return {qual for qual, callee, param, pos in definitions
            if not any(_sets(c, param, pos) for c in calls.get(callee, ()))}


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
        "        pass\n")
    (tmp_path / "product.py").write_text(
        "f(0, 1)\n"                  # b by position
        "f(0, kw=2)\n"               # kw by keyword
        "g(*pair)\n"                 # x and y through *
        "K(**opts)\n"                # a ** sets neither size nor clock
        "k.m(1)\n"                   # first by position, self bound
        "K.s(1)\n")                  # a staticmethod binds nothing
    (tmp_path / "bench.py").write_text("f(0, 1, 2, bench=1)\n")
    (tmp_path / "test_it.py").write_text(
        "f(0, only_tests=1)\nk.m(0, 1)\n")
    defs = defaulted_parameters(mod, pkg)
    assert "pkg.mod._private(z=)" not in {d[0] for d in defs}
    setters = calls_by_callee([tmp_path / "product.py",
                               tmp_path / "bench.py"])
    unread = {"pkg.mod.K.__init__(size=)", "pkg.mod.K.__init__(clock=)"}
    assert unset_defaults(defs, setters) == unread | {
        "pkg.mod.f(only_tests=)", "pkg.mod.K.m(second=)"}
    without_bench = calls_by_callee([tmp_path / "product.py"])
    assert unset_defaults(defs, without_bench) == unread | {
        "pkg.mod.f(c=)", "pkg.mod.f(bench=)", "pkg.mod.f(only_tests=)",
        "pkg.mod.K.m(second=)"}


@pytest.fixture(scope="module")
def unset() -> set[str]:
    """Defaulted parameters no call in ``SETTER_DIRS`` sets."""
    definitions = [d for path in sorted(PACKAGE.rglob("*.py"))
                   for d in defaulted_parameters(path)]
    calls = calls_by_callee(path for d in SETTER_DIRS
                            for path in sorted((ROOT / d).rglob("*.py")))
    return unset_defaults(definitions, calls)


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
        for path in sorted(PACKAGE.rglob("*.py"))
        for mod in imported_modules(path) - shipped)
    assert not undeclared, ("src/ imports a module that is neither stdlib "
                            "nor in [project] dependencies:\n  "
                            + "\n  ".join(undeclared))
