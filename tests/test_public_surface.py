"""The product ships only what the product runs: every public name in
``src/repro`` has a caller in the product, and every module ``src/repro``
imports ships with it.

The product is ``src/`` and ``examples/``: the CLI, the library API and
the service.  A figure bench or a test is no caller; code only they need
lives beside them, in ``benchmarks/`` or ``tests/``.  The scan collects
each public (no leading underscore) function, class and method defined
at module or class level under ``src/repro``, then looks for its name in
the code under ``src/`` and ``examples/``, read as an AST: a caller is
an identifier, an attribute, a keyword argument or an imported name,
including one inside an f-string's braces.  A string never counts: a
docstring, an error message or a dict key that spells a name calls
nothing, and counting its words would keep alive a name only prose
mentions.  Neither does a comment, the name's own definition, or an
``__init__`` module's imports and ``__all__``: a re-export calls
nothing.  Reading the AST also gives the
same answer on every Python, where the tokenizer splits an f-string into
parts from 3.12 on but keeps it one string token before.

A name with no caller is surface the product does not run.  Delete it,
with its exports and the tests that check only it, move it beside the
bench or test that runs it, or list it in ``ALLOWED`` with the reason it
stays.  An oracle is no such reason: a reference implementation only
tests call lives in ``tests/oracles.py``, and a model only a figure bench
runs lives in ``benchmarks/``.

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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path: Path) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of every public function, class and
    method defined at module or class level in ``path``."""
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, _DEFS):
                if not node.name.startswith("_"):
                    yield f"{prefix}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}")

    return list(walk(ast.parse(path.read_text()).body, module))


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
    """Names the code of ``path`` refers to, each definition's own span
    for its own name and, in an ``__init__`` module, imports and
    ``__all__`` left out.  Strings and comments are not code."""
    tree = ast.parse(path.read_text())
    spans: dict[str, list[tuple[int, int]]] = {}
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            spans.setdefault(node.name, []).append(
                (node.lineno, node.end_lineno))
        elif path.name == "__init__.py" and _is_reexport(node):
            skipped.update(range(node.lineno, node.end_lineno + 1))
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
