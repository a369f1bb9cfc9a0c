"""Every guard in one table: what a change deleted stays deleted.

Each change that removed a second implementation of a concept left a
guard that fails if the removed name, file or idiom comes back.  A guard
is one row of ``GUARDS``: one check line, written as the grep that first
held it, with its flags, its pattern and its ``grep -v`` exclusions
copied verbatim.  They keep grep's meaning here:

* without ``-E`` a pattern is a GNU BRE: ``(`` is a literal and ``.``
  any character;
* ``-w`` matches whole words only, and ``--include`` filters on a file's
  base name;
* a count is of matching lines, never of matches;
* an exclusion drops a ``path:lineno:text`` line as grep printed it;
* a ``section`` row counts only inside ``sed -n '/start/,/end/p'``.

The engine reads what a fresh checkout holds (never ``__pycache__/``,
anything git ignores, or this file, which spells every pattern), each
file once.  Unlike a shell ``! grep``, a row never passes by checking
nothing: every path it names must exist, and a section's start anchor
must match a line.
"""

from __future__ import annotations

import fnmatch
import posixpath
import re
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()


class Vacuous(AssertionError):
    """A row would pass without checking anything: a path or anchor is gone."""


@dataclass(frozen=True)
class Guard:
    """One check line: ``pattern`` matches exactly ``count`` lines in ``paths``.

    A row with no pattern forbids a file: ``paths[0]`` must not exist.
    """

    flags: str                  # grep's flags, verbatim; only E and w change a match
    pattern: str | None
    paths: tuple[str, ...]
    sample: str = ""            # a line the pattern matches
    count: int = 0
    include: str | None = None  # --include glob
    exclude: tuple[tuple[str, str], ...] = ()   # (flags, pattern) of each grep -v
    section: tuple[str, str] | None = None      # sed's /start/,/end/ (BREs)
    since: str = ""             # the commit that added the check
    step: str = ""
    id: str = ""


def grep(flags: str, pattern: str, paths: str, sample: str, **kw) -> Guard:
    return Guard(flags, pattern, tuple(paths.split()), sample, **kw)


def absent(path: str) -> Guard:
    return Guard("", None, (path,))


# One entry per guard step: its name, the commit that added it, its rows.
STEPS: list[tuple[str, str, list[Guard]]] = [
    ("No switchable second implementations (oracles live in tests/)", "0053fb5", [
        grep("-rnE", r"USE_VEC|kernel_loop|loop_reference_kernels|rel(iability)?\.enabled|config\.(batching|caching)|(CacheTiers|ReliabilityConfig)\.disabled",
             "src/ tests/ benchmarks/", sample="if config.batching:"),
    ]),
    ("One kernel per workload in src/ (loop and dict oracles only under tests/;"
     " docstrings may cite them)", "317448b", [
        grep("-rnE", r"loop_(bfs|ccomp|kcore|tc|gibbs|dcentr|spath)|dict_(degree|bfs|cc|kcore|triangles|graph_phase)|DictGraphImage",
             "src/ benchmarks/", exclude=(("-v", r"``tests/oracles.py:loop_"),),
             sample="from tests.oracles import loop_bfs"),
    ]),
    ("One serving graph (GraphImage is a CSR; no dict adjacency, no per-value"
     " coercion, no scipy)", "8424027", [
        grep("-rnE", r"out_adj|und_adj|_jsonable|\.arcs\b", "src/repro/query/",
             sample="for w in g.out_adj[v]:"),
        grep("-rnE", r"import scipy|from scipy", "src/ tests/ benchmarks/ examples/",
             sample="import scipy.sparse as sp"),
    ]),
    ("One front door, one shard exchange, no never-set knobs", "b1be933", [
        grep("-rnE", r"_attempt_plain|\bserve_stale\b|mp_start_method|kill_grace_s|_BENCH_TINY",
             "src/ tests/ benchmarks/", sample="serve_stale = True"),
    ]),
    ("One health machine, one wait (ShardHealth is the breaker and the membership"
     " record; no wait_for around a shard exchange)", "2e83279", [
        grep("-rnE", r"\bCircuitBreaker\b|\.breakers\b|eject_after|DEFAULT_EJECT_AFTER|probe_policy|ReplicaSet",
             "src/ tests/ benchmarks/ examples/", sample="self.breakers = {}"),
        grep("-c", r"asyncio.wait_for", "src/repro/cluster/router.py",
             sample="answer = await asyncio.wait_for(fut, timeout)"),
    ]),
    ("One frame transport (a line-framed asyncio.Protocol at both ends of every hop;"
     " an attempt is a future the first answering dial resolves, not an asyncio.wait"
     " loop)", "c01d9f7", [
        grep("-rnE", r"start_server|open_connection|StreamReader|StreamWriter",
             "src/repro/service/ src/repro/cluster/",
             sample="reader, writer = await asyncio.open_connection(host, port)"),
        grep("-n", r"asyncio.wait(", "src/repro/cluster/router.py",
             sample="done, _ = await asyncio.wait(tasks)"),
    ]),
    ("One wire vocabulary (ops and errors are table rows; no req.op chain, one"
     " allow-list check, one split rule)", "69fadda", [
        grep("-nE", r"""req\.op (==|!=|in \()|\.op (==|in) *[("']""",
             "src/repro/service/server.py src/repro/cluster/*.py",
             sample='if req.op == "stats":'),
        grep("-c", r"if kind ==", "src/repro/service/protocol.py",
             sample='    if kind == "busy":'),
        grep("-rc", r"unknown parameter", "src/repro", include="*.py", count=1,
             sample='raise BadRequest(f"unknown parameter {name!r}")'),
        grep("-rnE", r"promote_replicas|demote_replicas|_extra_replicas|_resolve_splits",
             "src/ tests/ benchmarks/", sample="self.promote_replicas(key)"),
    ]),
    ("A commit costs its batch (compaction visits what the retired versions touched,"
     " never a whole map; the full walk is a tests/ oracle)", "dfa6cd9", [
        grep("-nE", r"\.(items|values)\(\)", "src/repro/dynamic/store.py",
             section=("def _compact_locked", "^    def "),
             sample="        for key, kept in self._versions.items():"),
        grep("-rn", r"full_walk_compact", "src/ benchmarks/ examples/",
             sample="from tests.oracles import full_walk_compact"),
    ]),
    ("An answer is encoded once (the router stamps nothing on a shard's answer; one"
     " ok-frame builder, a splice, in service/)", "8c751e8", [
        grep("-n", r'setdefault("shard"', "src/repro/cluster/router.py",
             sample='body.setdefault("shard", self.name)'),
        grep("-rhE", r'^[^#`]*"ok":true', "src/repro/service", include="*.py", count=1,
             sample="_OK_MID = b',\"ok\":true,\"result\":'"),
        grep("-rnE", r'"ok": True, *("result"|$)', "src/repro/service/",
             sample='    return {"ok": True, "result": result}'),
    ]),
    ("No per-access Python in the simulators (the LRU is decided in numpy; the"
     " lru_cache walk and the stateful reference class Cache are tests/oracles.py"
     " oracles)", "7772ee7", [
        grep("-n", r"defaultdict", "src/repro/arch/cache.py",
             sample="from collections import defaultdict"),
        grep("-n", r"lru_cache", "src/repro/arch/cache.py", since="7b5610e",
             sample="from functools import lru_cache"),
        grep("-rn", r"next(iter(", "src/repro/arch src/repro/gpu src/repro/parallel",
             sample="victim = next(iter(ways))"),
    ]),
    ("Primitive costs are spelled once (kernels declare items; the engine alone reads"
     " the tracer's region)", "bc5c7a2", [
        grep("-rnE", r"T\.R_(FIND_VERTEX|PROP_GET|PROP_SET|VERTEX_SCAN|PAYLOAD), *[0-9]",
             "src/repro/workloads/", sample="t.charge(T.R_PROP_GET, 3)"),
        grep("-rn", r"_cur_rid", "src/repro/workloads/", sample="rid = tracer._cur_rid"),
        grep("-nE", r"g\.neighbors\(|scan_vertices\(|neighbor_ids\(",
             "src/repro/workloads/dcentr.py src/repro/workloads/spath.py"
             " src/repro/workloads/kcore.py src/repro/workloads/tc.py",
             since="4f927b7", sample="for w in g.neighbors(v):"),
        grep("-rnE", r"T\.R_(NEIGHBORS|VERTEX_SCAN)", "src/repro/workloads/",
             since="4f927b7", sample="region = T.R_NEIGHBORS"),
    ]),
    ("One copy per job (kernels emit through the generic primitives; no component"
     " relabel, no batch window; one retry loop, in resilience/)", "30c5765", [
        grep("-rnE", r"vertex_finder|prop_reader|prop_writer|eprop_reader|relabel_components|batch_window",
             "src/", sample="find = tracer.vertex_finder(g)"),
        grep("-rn", r"run_with_retries(", "src/", exclude=(("-v", r"^src/repro/resilience/"),),
             sample="out = run_with_retries(cell, policy)"),
    ]),
    ("Degraded serving has one home (a cell's answer never expires; only the router's"
     " last-good cache answers degraded — cli.py may only hand it --stale-cap)",
     "23e1c34", [
        grep("-rnE", r"ttl_s|SchedulerConfig|expirations", "src/",
             sample="cache = LRUCache(capacity, ttl_s=30.0)"),
        grep("-rnE", r"stale_cap_s|degraded=True", "src/",
             exclude=(("-v", r"^src/repro/cluster/router.py:"),
                      ("-v", r"^src/repro/cli.py:.*stale_cap_s=args.stale_cap)$")),
             sample="return Answer(body, degraded=True)"),
        grep("-rn", r"get_stale(", "src/",
             exclude=(("-vE", r"^src/repro/(service/cache|cluster/router)\.py:"),),
             sample="hit = self.cache.get_stale(key)"),
    ]),
    ("Each number is counted once (a report-only counter is a registry child; no"
     " private stats class or op tally, and collectors only for the cache tiers and"
     " the request count)", "999fc20", [
        grep("-rnE", r"SchedulerStats|PoolStats|op_counts", "src/",
             sample="self.stats = SchedulerStats()"),
        grep("-rn", r"bind_metrics",
             "src/repro/service/scheduler.py src/repro/service/pool.py src/repro/tenancy/"
             " src/repro/core/tracestore.py",
             sample="    def bind_metrics(self, registry):"),
        grep("-rn", r"\.register_collector(", "src/",
             exclude=(("-vE", r"^src/repro/service/(cache|server)\.py:"),),
             sample="registry.register_collector(self._collect)"),
    ]),
    ("A static query is one shard's answer (the router walks the ring for it like any"
     " keyed read; no query scatter, partitions or merge, and no process-global trace"
     " store)", "ca6e1f3", [
        grep("-rnE", r"merge_partials|parse_part|_scatter_query|MAX_PARTS|merge_ops|set_default_trace_store",
             "src/", sample="return merge_partials(parts)"),
        grep("-rn", r"partial=", "src/repro/query/", sample="rows = execute(plan, partial=True)"),
    ]),
    ("A cold graph is laid out once (from_edges is one layout pass, never the"
     " primitives; GraphSpec.build hands over its edge array untraced; the GPU model"
     " and the CPU stall model count distinct keys by sorting; the populating loop is"
     " a tests/ oracle)", "484dc1f", [
        grep("-nE", r"\.(add_vertex|add_edges?|_add_arc)\(", "src/repro/core/graph.py",
             section=("def from_edges", "^    def "), sample="            g.add_edge(u, v)"),
        grep("-nE", r"tracer|map\(tuple", "src/repro/datagen/spec.py",
             sample="edges = list(map(tuple, arr))"),
        grep("-rn", r"np\.unique(", "src/repro/gpu/ src/repro/arch/cpu.py",
             sample="lines = np.unique(addrs >> 6)"),
        grep("-rn", r"loop_from_edges", "src/ benchmarks/", sample="g = loop_from_edges(n, edges)"),
    ]),
    ("Nothing in src/ only its own tests call (no property index, no uncalled graph"
     " primitive, no second multicore entry point, no orphan helper)", "30c95f3", [
        absent("src/repro/core/index.py"),
        grep("-rnE", r"def (llc_contention|create_index|del_edges|copy_topology|payload_write|in_degree|scaled_l3_per_core|penalty_fraction|pages_touched|user_instrs|to_csv_string|default_dataset|render_json|ops_as_wire)\b",
             "src/", sample="    def in_degree(self, v):"),
    ]),
    ("A cache-like structure is one CacheConfig level (the DTLB and the ICache report"
     " CacheStats; a replay answers with miss positions, not per-access masks; the"
     " reference hierarchy is a tests/ oracle)", "644d387", [
        absent("src/repro/arch/tlb.py"),
        absent("src/repro/arch/hierarchy.py"),
        grep("-rnE", r"\b(TLBConfig|TLBStats|ICacheStats|mask_of|tlb_miss|l[123]_miss)\b",
             "src/ tests/ benchmarks/ examples/", sample="cfg = TLBConfig(entries=64)"),
        grep("-rn", r"class MemoryHierarchy", "src/", sample="class MemoryHierarchy:"),
    ]),
    ("Every public name has a caller (no repro.io, no def or class of a name only its"
     " own tests called, one Fig. 12 partitioner, the sweep memo on its trace-store"
     " entry; tests/test_public_surface.py is the full scan)", "573eef6", [
        absent("src/repro/io"),
        grep("-rnE", r"^\s*(def|class) (load_csv_graph|save_csv_graph|load_edgelist|save_edgelist|load_properties|save_properties|PropertyStats|sensitivity_rows|forward_sample|markov_blanket|from_csr|coo_to_csr|edge_values|reversed_edges|in_degrees|line_of|page_of|n_branches|backoff_schedule|has_arc|primaries|without_node|children_of|get_global_tracer|cyclic_partition)\b",
             "src/", sample="def load_csv_graph(path):"),
        grep("-rnE", r"\b(PARTITIONERS|_SWEEP_MEMOS|_sweep_memo)\b", "src/",
             sample='PARTITIONERS = {"cyclic": cyclic}'),
    ]),
    ("The product ships no oracle (a reference implementation only tests call lives in"
     " tests/oracles.py, and networkx is a test-only dependency;"
     " tests/test_public_surface.py is the full scan and the import guard)", "ad69db3", [
        grep("-rn", r"networkx", "src/", sample="import networkx as nx"),
        absent("src/repro/bayes/gibbs_sampler.py"),
        absent("src/repro/bayes/elimination.py"),
        absent("src/repro/bayes/moralize.py"),
        grep("-rnE", r"^\s*(def|class) (reference|nx|gibbs_sample|exact_marginals|exact_marginals_brute_force|eliminate_marginal|topological_order|resident_lines|is_proper|validate_components|validate_coloring|moral_edges|moralize|Factor)\b",
             "src/", sample="class Factor:"),
    ]),
    ("A name lives only if code names it (no def of a name only prose kept alive comes"
     " back; the block graph primitives, Snapshot.materialize and SnapshotStore.compact"
     " are tests/oracles.py functions; ClusterProcesses has no kill_shard;"
     " tests/test_public_surface.py's AST scan is the full check)", "07e23df", [
        grep("-rnE", r"^\s*def (access|cell_routing_key|delete_edge|_delete_arc|scan_vertices|neighbor_ids|payload_get|payload_read|extended|compact|materialize|merge|bar|quantile|efficiency|completed|transparent|but|graphbig_row)\b",
             "src/", sample="    def compact(self):"),
        grep("-n", r"def kill_shard", "src/repro/cluster/topology.py",
             section=("^class ClusterProcesses", "^class "), sample="    def kill_shard(self, i):"),
    ]),
    ("The product ships only what the product runs (no live migration, no"
     " admin/dyn_export/dyn_import op; the paper tables and ablation models live in"
     " benchmarks/paper.py and benchmarks/ablations.py; Cache is a tests/oracles.py"
     " oracle; tests/test_public_surface.py counts a caller only in src/ and examples/)",
     "7aca690", [
        absent("src/repro/tenancy/hotspot.py"),
        absent("src/repro/tenancy/migrate.py"),
        absent("src/repro/core/related.py"),
        absent("src/repro/core/usecases.py"),
        absent("src/repro/arch/ndp.py"),
        absent("src/repro/arch/prefetch.py"),
        absent("src/repro/gpu/kernels/bfs_edge.py"),
        absent("src/repro/harness/sensitivity.py"),
        absent("tests/test_rebalance_live.py"),
        grep("-n", r"def add_shard", "src/repro/cluster/router.py",
             sample="    async def add_shard(self, addr):"),
        grep("-rnE", r"^\s*(def|class) (HotspotDetector|RebalanceExecutor|with_node|install_ring|pause_writes|resume_writes|_await_writable|_admin|_forward_target|_forward_blocking|_wrong_shard|export_dataset|import_dataset|export_state|from_state|set_shard_faults|experiment_datasets|paper_note|pivot|traced_neighbors|project_ndp|prefetch_comparison|GPUBfsEdgeCentric|greedy_weighted_partition|Cache|speedup|dyn_query)\b",
             "src/", sample="class HotspotDetector:"),
        grep("-rnE", r'key_route_counts|pause_max_s|_paused_writes|_forwards|spare_addresses|"(admin|dyn_export|dyn_import)"',
             "src/", sample='OPS["admin"] = admin'),
    ]),
    ("A knob lives only if a caller sets it (the sequential branch predictors are"
     " tests/oracles.py oracles; no R-MAT generator, no GENERATORS table, no"
     " make(**kwargs); tests/test_public_surface.py's parameter scan is the full"
     " check)", "5fc9fa9", [
        grep("-rnE", r"class (Bimodal|GShare|AlwaysTaken)Predictor", "src/",
             sample="class GSharePredictor:"),
        absent("src/repro/datagen/rmat.py"),
        grep("-rnw", r"GENERATORS", "src/", sample='GENERATORS = {"rmat": rmat}'),
        grep("-rnE", r"def make\(.*\*\*kwargs", "src/", sample="def make(name, **kwargs):"),
    ]),
    # Bash's errexit ignores a negated command, so a `!` line before a
    # `run: |` block's last command passed whatever it found; this row
    # replaces the check, added in 5fc9fa9, that each such line ends in
    # `|| exit 1`.
    ("No !-negated command in CI (every guard is a row here)", "5fc9fa9", [
        grep("-cE", r"^\s*!", ".github/workflows/", sample="          ! grep -rn USE_VEC src/"),
    ]),
    ("Each thing is said once (a write is the router's walk over a chain of one; each"
     " reliability default has one statement; a subcommand names its handler, and the"
     " endpoint flags, the isolation modes and the machine names are each defined"
     " once)", "after 1ff4248", [
        grep("-rnE", r"retry_budget_ratio|retry_budget_max_tokens|_lat_cursor|_note_latency|def cmd_cluster\b|\b_write_factory\b|\b_query_factory\b|\b_stamp_tenants\b",
             "src/ tests/ benchmarks/ examples/", sample="    def _note_latency(self, elapsed_s):"),
        grep("-nE", r"allow\(|_shed\(|CircuitOpen|ShardUnavailable", "src/repro/cluster/router.py",
             section=("async def _route_write", r"^    async def \|^    def "),
             sample="        if not self.tracker[primary].allow():"),
        grep("-nE", r"handler = \{|\[args\.(cluster_)?command\]", "src/repro/cli.py",
             sample="    return handler[args.command](args)"),
        grep("-rc", r'"process", "inline"', "src/", include="*.py", count=1,
             sample='    choices=("process", "inline"),'),
        grep("-rn", r'"scaled", "test", "paper"', "src/", sample='    choices=("scaled", "test", "paper"),'),
    ]),
    ("A kernel takes only the parameters it names (no **_ catch-all; the parameters no"
     " caller set stay deleted; the harness states each workload's inputs once)",
     "after 9754305", [
        grep("-rnE", r"\*\*_\b", "src/repro/workloads/ src/repro/gpu/kernels/",
             sample="               **_: Any) -> dict[str, Any]:"),
        grep("-nE", r"\b(seed|normalize|victims): ",
             "src/repro/workloads/gcolor.py src/repro/workloads/bcentr.py "
             "src/repro/workloads/dcentr.py src/repro/workloads/gup.py "
             "src/repro/gpu/kernels/gcolor.py src/repro/gpu/kernels/bcentr.py",
             exclude=(("-v", r"gup.py:.*seed: "),),
             sample="    def kernel(self, g, t, *, normalize: bool = False):"),
        grep("-nE", r"^ +(registry|tracer): ", "src/repro/cluster/router.py",
             sample="                 tracer: SpanTracer | None = None):"),
        grep("-rnE", r"\b_gpu_params\b|params\.setdefault|\*\*machine\b|\bbackoff_factor\b",
             "src/ tests/ benchmarks/ examples/",
             sample='        params.setdefault("root", _traversal_root(spec))'),
        grep("-nE", r"region_(seq|instrs) is None", "src/repro/core/trace.py",
             sample="        seq = [] if region_seq is None else list(region_seq)"),
    ]),
    ("A call credits only what its receiver can be (the public members no product"
     " call reached stay deleted, and the CSR and COO carry no edge values)",
     "after 26f9975", [
        grep("-nE", r"def degree\(", "src/repro/core/graph.py",
             sample='    def degree(self) -> int:',
             section=('^class Vertex:', '^class ')),
        grep("-nE", r"def degree\(", "src/repro/formats/csr.py",
             sample='    def degree(self, v: int) -> int:'),
        grep("-nE", r"def has_edge\(", "src/repro/formats/csr.py",
             sample='    def has_edge(self, src: int, dst: int) -> bool:'),
        grep("-nE", r"def reverse\(", "src/repro/formats/csr.py",
             sample='    def reverse(self) -> "CSRGraph":'),
        grep("-nE", r"\bvals\b", "src/repro/formats/ src/repro/gpu/",
             sample='                 vals: np.ndarray | None = None):'),
        grep("-nE", r"def degrees\(", "src/repro/formats/coo.py",
             sample='    def degrees(self) -> np.ndarray:'),
        grep("-nE", r"def keys\(", "src/repro/service/cache.py",
             sample='    def keys(self) -> list[Hashable]:'),
        grep("-nE", r"def discard\(", "src/repro/service/cache.py",
             sample='    def discard(self, key: Hashable) -> None:'),
        grep("-nE", r"def keys\(", "src/repro/core/tracestore.py",
             sample='    def keys(self) -> list[str]:'),
        grep("-nE", r"def tokens\(", "src/repro/tenancy/qos.py",
             sample='    def tokens(self) -> float:'),
        grep("-nE", r"def mpki\(", "src/repro/arch/branch.py",
             sample='    def mpki(self, n_instrs: int) -> float:'),
        grep("-nE", r"def as_dict\(", "src/repro/dynamic/ops.py",
             sample='    def as_dict(self) -> dict[str, Any]:'),
        grep("-nE", r"def m\(", "src/repro/query/exec.py",
             sample='    def m(self) -> int:'),
        grep("-nE", r"def pop\(", "src/repro/workloads/base.py",
             sample='    def pop(self) -> Any:',
             section=('^class TracedHeap', '^class ')),
        grep("-nE", r"def snapshot\(", "src/repro/resilience/netchaos.py",
             sample='    def snapshot(self) -> dict[str, Any]:'),
        grep("-nE", r"def exists\(", "src/repro/resilience/checkpoint.py",
             sample='    def exists(self) -> bool:'),
        grep("-nE", r"def find\(", "src/repro/obs/tracing.py",
             sample='    def find(self, prefix: str) -> list[SpanRecord]:'),
        grep("-nE", r"def tags\(", "src/repro/core/memmodel.py",
             sample='    def tags(self) -> dict[str, int]:'),
        grep("-nE", r"def (n_accesses|reset)\(", "src/repro/core/trace.py",
             sample='    def reset(self) -> None:'),
        grep("-nE", r"def coo\(", "src/repro/datagen/spec.py",
             sample='    def coo(self):'),
        grep("-nE", r"def arcs\(", "src/repro/dynamic/store.py",
             sample='    def arcs(self) -> Iterator[tuple[int, int]]:'),
        grep("-nE", r"def set\(", "src/repro/obs/metrics.py",
             sample='    def set(self, value: float) -> None:'),
        grep("-nE", r"def expired\(self, now", "src/repro/service/protocol.py",
             sample='    def expired(self, now: float | None = None) -> bool:'),
    ]),
    ("The ICache is answered from the code layout (src/ builds no whole line-touch"
     " stream and walks no visit in Python; tests/oracles.py:icache_line_touches"
     " builds the stream its oracle reads)", "after 9f50919", [
        grep("-rn", r"_visit_addrs", "src/repro/arch/",
             sample="        addrs = self._visit_addrs(trace, stack_depth)"),
        grep("-nE", r"for \w+ in (region_seq|seq|visits)\b", "src/repro/arch/icache.py",
             sample="    for rid in region_seq.tolist():"),
    ]),
    ("The serving stack keeps only what something reads (a write carries topology"
     " only and the store keeps no property history; the planner has no cost model,"
     " so a plan is keyed by its text alone)", "after 3fe4465", [
        grep("-rnE", r"\bset[_-]prop\b", "src/",
             sample='            ops.append({"op": "set_prop", "vid": 3})'),
        grep("-rnw", r"_props", "src/", sample="        self._props: dict[int, dict] = {}"),
        grep("-nE", r"def vget\(|^ +props: tuple", "src/repro/dynamic/store.py",
             sample="    def vget(self, vid: int, name: str) -> Any:"),
        grep("-nE", r"def n_(vertices|arcs)\(", "src/repro/dynamic/store.py",
             section=("^class Snapshot:", "^class "),
             sample="    def n_vertices(self) -> int:"),
        grep("-rnE", r"\best_(cost|rows)\b|\btotal_cost\b", "src/",
             sample='            entry["est_cost"] = est["est_cost"]'),
        grep("-rnw", r"_SELECTIVITY", "src/", sample='_SELECTIVITY = {"bfs": 0.9}'),
        grep("-rnw", r"graph_stats", "src/",
             sample="        plan = plan_pipeline(pipeline, graph_stats=stats)"),
        grep("-rnE", r"(plans|_plan_cache)\.(get|put)\(.*version=", "src/",
             sample="        cached = self.plans.get(key, version=token)"),
    ]),
    ("Cell faults are a tests/ fixture (tests/faults.py patches the executor"
     " before the fork; src/ has no injector, no chaos= keyword and no"
     " --chaos-rate / --chaos-seed; netchaos is another item)", "after d61661d", [
        absent("src/repro/resilience/chaos.py"),
        grep("-rnE", r"\b(ChaosSpec|inject_pre_run|corrupt_payload|FaultInjected)\b", "src/",
             sample="from .chaos import ChaosSpec, corrupt_payload, inject_pre_run"),
        grep("-rnE", r"\bchaos=", "src/",
             sample="        record, _ = run_cell_resilient(cell, chaos=self.chaos)"),
        grep("-rnE", r"\bchaos[_-](rate|seed)\b", "src/",
             sample='    m.add_argument("--chaos-rate", type=float, default=0.0,'),
    ]),
]


def _rows() -> list[Guard]:
    return [replace(row, step=step, since=row.since or since, id=f"{n:02d}{letter}")
            for n, (step, since, rows) in enumerate(STEPS, 1)
            for letter, row in zip("abcdefghijklmnopqrstuvwxyz", rows)]


GUARDS = _rows()


# -- the engine ---------------------------------------------------------------

_BRE_TOKEN = re.compile(r"\\(.)|([(){}|+?])")


def bre(pattern: str) -> str:
    """A GNU BRE as a Python regex: ``( ) { } | + ?`` are literals unless escaped."""
    return _BRE_TOKEN.sub(
        lambda m: "\\" + m[2] if m[2] else m[1] if m[1] in "(){}|+?" else m[0], pattern)


def regex(flags: str, pattern: str) -> re.Pattern:
    """grep's reading of ``pattern``: an ERE under ``-E``, else a BRE; ``-w`` takes whole words."""
    rx = pattern if "E" in flags else bre(pattern)
    if "w" in flags:
        rx = rf"(?<!\w)(?:{rx})(?!\w)"
    return re.compile(rx, re.M)


def checkout_files(root: Path) -> list[str]:
    """The files a fresh checkout of ``root`` holds, as posix paths.

    In a git work tree these are the files git tracks or would add;
    elsewhere every file.  ``__pycache__/`` and this file never count.
    """
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=root, capture_output=True, check=True).stdout.decode()
        names = {n for n in out.split("\0") if n and (root / n).is_file()}
    else:
        names = {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
    return sorted(n for n in names if "__pycache__" not in n.split("/") and n != SELF)


class Tree:
    """A checkout's files, each read at most once."""

    def __init__(self, root: Path):
        self.root = root
        self.files = checkout_files(root)
        self._text: dict[str, str] = {}

    def text(self, name: str) -> str:
        if name not in self._text:
            self._text[name] = (self.root / name).read_bytes().decode("utf-8", "replace")
        return self._text[name]

    def under(self, path: str) -> list[str]:
        """The files grep reads for one path: the file, a directory's files, a glob's."""
        head, tail = posixpath.split(path.rstrip("/"))
        if "*" in tail:
            return [f for f in self.files if posixpath.dirname(f) == head
                    and fnmatch.fnmatchcase(posixpath.basename(f), tail)]
        path = path.rstrip("/")
        return [f for f in self.files if f == path or f.startswith(path + "/")]


def sed_range(lines, start: str, end: str) -> list[tuple[int, str]]:
    """``sed -n '/start/,/end/p'``: from each line ``start`` matches through
    the next later line ``end`` matches (or the last line)."""
    first, last = regex("", start), regex("", end)
    out, inside, seen = [], False, False
    for i, line in lines:
        if inside:
            out.append((i, line))
            inside = not last.search(line)
        elif first.search(line):
            out.append((i, line))
            inside = seen = True
    if not seen:
        raise Vacuous(f"no line matches the section anchor /{start}/")
    return out


def offenders(g: Guard, tree: Tree) -> list[str]:
    """What ``g`` counts in ``tree``: the forbidden file, or each matching
    line as grep printed it (``path:lineno:text``) that no exclusion drops."""
    if g.pattern is None:
        parent = posixpath.dirname(g.paths[0])
        if not tree.under(parent):
            raise Vacuous(f"{parent}/ names no file")
        return tree.under(g.paths[0])
    rx, hits = regex(g.flags, g.pattern), []
    # A file with no match is skipped after one search of its whole text:
    # under re.M a line's match is a match of the text, and without \b (a
    # zero-width test, so dropping it only widens the match) re scans fast.
    coarse = re.compile(rx.pattern.replace(r"\b", ""), re.M)
    for path in g.paths:
        names = tree.under(path)
        if not names:
            raise Vacuous(f"{path} names no file")
        for name in names:
            if g.include and not fnmatch.fnmatchcase(posixpath.basename(name), g.include):
                continue
            text = tree.text(name)
            if not g.section and not coarse.search(text):
                continue
            lines = enumerate(text.removesuffix("\n").split("\n"), 1)
            if g.section:
                lines = sed_range(lines, *g.section)
            hits += [f"{name}:{i}:{line}" for i, line in lines if rx.search(line)]
    for flags, pattern in g.exclude:
        drop = regex(flags, pattern)
        hits = [h for h in hits if not drop.search(h)]
    return hits


# -- the guards hold on this checkout ------------------------------------------

IDS = [g.id for g in GUARDS]


@pytest.fixture(scope="module")
def tree() -> Tree:
    return Tree(ROOT)


@pytest.mark.parametrize("g", GUARDS, ids=IDS)
def test_the_checkout_keeps_the_guard(g: Guard, tree: Tree):
    hits = offenders(g, tree)
    assert len(hits) == g.count, (
        f"{g.step} [{g.id}, since {g.since}]: {g.pattern or 'the file'} should count"
        f" {g.count}, counts {len(hits)}:\n  " + "\n  ".join(hits))


# -- each row fails when what it forbids comes back ----------------------------

def make_tree(root: Path, files: dict[str, str | bytes]) -> Tree:
    for name, body in files.items():
        f = root / name
        f.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(body, bytes):
            f.write_bytes(body)
        else:
            f.write_text(body)
    return Tree(root)


def _target(path: str) -> str:
    """The file a planted sample goes to: the one ``path`` names, or a new
    one in the directory it names."""
    head, tail = posixpath.split(path.rstrip("/"))
    if "*" in tail:
        return posixpath.join(head, "planted.py")
    return path if tail.endswith(".py") else posixpath.join(path.rstrip("/"), "planted.py")


def planted(root: Path, g: Guard) -> Tree:
    """A tree holding ``g``'s paths and, in the first, one match more than
    ``g`` allows (for a forbidden file: the file)."""
    if g.pattern is None:
        return make_tree(root, {g.paths[0]: ""})
    lines = [g.section[0].lstrip("^")] if g.section else []
    lines += [g.sample] * (g.count + 1)
    files = {_target(p): "" for p in g.paths[1:]}
    files[_target(g.paths[0])] = "\n".join(lines) + "\n"
    return make_tree(root, files)


@pytest.mark.parametrize("g", GUARDS, ids=IDS)
def test_a_planted_sample_fails_the_guard(g: Guard, tmp_path: Path):
    assert len(offenders(g, planted(tmp_path, g))) == g.count + 1


# -- a row never passes by checking nothing ------------------------------------

def _shell_passes(script: str, cwd: Path) -> bool:
    return subprocess.run(["bash", "-ec", script], cwd=cwd,
                          capture_output=True).returncode == 0


def test_a_missing_directory_fails_where_the_shell_step_passed(tmp_path: Path):
    t = make_tree(tmp_path, {"lib/repro/x.py": "USE_VEC = 1\n"})
    assert _shell_passes('! grep -rnE "USE_VEC" src/', tmp_path)
    with pytest.raises(Vacuous, match="src/"):
        offenders(grep("-rnE", "USE_VEC", "src/", ""), t)
    assert _shell_passes("! test -e src/repro/core/index.py", tmp_path)
    with pytest.raises(Vacuous, match="src/repro/core/"):
        offenders(absent("src/repro/core/index.py"), t)


def test_a_missing_file_fails_where_the_shell_step_passed(tmp_path: Path):
    t = make_tree(tmp_path, {"src/repro/arch/lru.py": "from collections import defaultdict\n"})
    assert _shell_passes('! grep -n "defaultdict" src/repro/arch/cache.py', tmp_path)
    with pytest.raises(Vacuous, match="cache.py"):
        offenders(grep("-n", "defaultdict", "src/repro/arch/cache.py", ""), t)


def test_a_renamed_anchor_fails_where_the_shell_step_passed(tmp_path: Path):
    t = make_tree(tmp_path, {"src/store.py": "    def _compact(self):\n"
                                             "        for k in self.m.items():\n"})
    assert _shell_passes("! sed -n '/def _compact_locked/,/^    def /p' src/store.py"
                         ' | grep -nE "\\.(items|values)\\(\\)"', tmp_path)
    g = grep("-nE", r"\.(items|values)\(\)", "src/store.py", "",
             section=("def _compact_locked", "^    def "))
    with pytest.raises(Vacuous, match="_compact_locked"):
        offenders(g, t)


# -- the translation keeps grep's meaning --------------------------------------

def _row(id_: str) -> Guard:
    return next(g for g in GUARDS if g.id == id_)


def _linenos(hits: list[str]) -> list[int]:
    return [int(h.split(":")[1]) for h in hits]


def test_a_bre_keeps_parens_literal_and_dot_wild(tmp_path: Path):
    t = make_tree(tmp_path, {"src/a.py": "asyncio.wait(x)\nasyncioXwait(y)\n"
                                         "asyncio.wait_for(z)\nnp.unique(a)\nnpXunique(b)\n"
                                         "x = (a|b)\na\n"})
    assert _linenos(offenders(grep("-n", "asyncio.wait(", "src/a.py", ""), t)) == [1, 2]
    assert _linenos(offenders(grep("-rn", r"np\.unique(", "src/", ""), t)) == [4]
    assert _linenos(offenders(grep("-n", "(a|b)", "src/a.py", ""), t)) == [6]
    assert _linenos(offenders(grep("-nE", "(a|b)", "src/a.py", ""), t)) == [
        1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(re.error):
        regex("-E", "asyncio.wait(")


def test_w_matches_whole_words_only(tmp_path: Path):
    t = make_tree(tmp_path, {"src/a.py": "GENERATORS = {}\nGENERATORS_X = {}\n"
                                         "MY_GENERATORS = 1\nx = GENERATORS[k]\n"})
    assert _linenos(offenders(_row("23c"), t)) == [1, 4]
    assert len(offenders(grep("-rn", "GENERATORS", "src/", ""), t)) == 4


def test_include_filters_on_the_base_name(tmp_path: Path):
    t = make_tree(tmp_path, {"src/repro/a.py": "unknown parameter\n",
                             "src/repro/notes.txt": "unknown parameter\n",
                             "src/repro/py/b.pyi": "unknown parameter\n"})
    assert offenders(_row("07c"), t) == ["src/repro/a.py:1:unknown parameter"]


def test_an_exclusion_drops_the_printed_path_lineno_text_line(tmp_path: Path):
    t = make_tree(tmp_path, {
        "src/repro/cli.py": "run(x, stale_cap_s=args.stale_cap)\nstale_cap_s = 1\n"
                            "run(x, stale_cap_s=args.stale_cap) # no\n",
        "src/repro/cluster/router.py": "stale_cap_s = 2\n",
        "src/repro/cluster/routerXpy": "degraded=True\n"})     # a BRE's . is any character
    assert offenders(_row("13b"), t) == [
        "src/repro/cli.py:2:stale_cap_s = 1",
        "src/repro/cli.py:3:run(x, stale_cap_s=args.stale_cap) # no"]
    without_line_2 = replace(_row("13b"), exclude=(("-v", ":2:"),))
    assert _linenos(offenders(without_line_2, t)) == [1, 3, 1, 1]


def test_a_count_is_of_lines_not_matches(tmp_path: Path):
    t = make_tree(tmp_path, {"src/repro/a.py": "unknown parameter, unknown parameter\n"})
    assert len(offenders(_row("07c"), t)) == 1


def test_a_section_is_seds_range(tmp_path: Path):
    t = make_tree(tmp_path, {"src/repro/dynamic/store.py": (
        "x = d.items()\n"
        "    def _compact_locked(self):\n"
        "        for k in d.items():\n"
        "    def next_one(self): d.values()\n"
        "        e.values()\n"
        "    def _compact_locked(self):  # again\n"
        "        f.values()\n")})
    assert _linenos(offenders(_row("08a"), t)) == [3, 4, 7]


def test_a_stale_pyc_or_an_ignored_file_is_never_read(tmp_path: Path):
    t = make_tree(tmp_path, {
        "src/repro/a.py": "x = 1\n",
        "src/repro/__pycache__/graph.cpython-312.pyc": b"\0import networkx\n"})
    assert not _shell_passes('! grep -rn "networkx" src/', tmp_path)
    assert offenders(_row("20a"), t) == []
    make_tree(tmp_path, {"src/repro.egg-info/PKG-INFO": "Requires-Dist: networkx\n",
                         ".gitignore": "*.egg-info/\n"})
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    assert offenders(_row("20a"), Tree(tmp_path)) == []
    (tmp_path / "src/repro/b.py").write_text("import networkx\n")
    assert offenders(_row("20a"), Tree(tmp_path)) == ["src/repro/b.py:1:import networkx"]


def test_only_a_double_backquoted_citation_may_name_a_loop_oracle(tmp_path: Path):
    t = make_tree(tmp_path, {
        "src/repro/bfs.py": "per-vertex loop (``tests/oracles.py:loop_bfs``)\n"
                            "from tests.oracles import loop_bfs  # tests/oracles.py:loop_bfs\n",
        "benchmarks/b.py": "x = 1\n"})
    assert _linenos(offenders(_row("02a"), t)) == [2]
