"""Logical validation + the physical planner.

The planner turns a parsed :class:`~repro.query.ast.Pipeline` into a
:class:`PhysicalPlan`: a ``scan`` op, a **graph phase** (kernel stages
and row-wise relational stages over the full vertex table), and a
**table phase** (the first aggregate and everything after it, operating
on a materialized table).

Planner passes, in order:

1. **validate** every stage against the catalog (unknown stage, wrong
   arg shape, bad value -> typed :class:`~repro.core.errors.PlanError`);
2. **implicit columns** — a stage referencing ``degree``/``out_degree``/
   ``in_degree`` before any ``degree`` stage gets one inserted (the
   example query ``... | topk degree 10`` needs no explicit degree
   stage);
3. **fusion** — ``bfs | filter level<=N`` folds into a bounded
   expansion ``bfs depth<=N``; ``kcore | filter core>=K`` folds into
   the peeling threshold;
4. **phase split + ordering rules** — kernels must precede the first
   aggregate; ``count`` is terminal.

Everything here is pure and deterministic: a plan depends on the query
text alone, so the same pipeline produces byte-identical plans on every
node and at every version of a dynamic source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import PlanError
from .ast import Arg, Pipeline, Stage

#: Bump when plan semantics change: part of the content address, so an
#: upgraded node never reuses a stale cached plan shape.
PLANNER_VERSION = 1

#: Columns the ``degree`` kernel materializes implicitly on reference.
DEGREE_COLUMNS = ("degree", "out_degree", "in_degree")

#: Kernel stage -> the columns it adds to the vertex table.
KERNEL_COLUMNS: dict[str, tuple[str, ...]] = {
    "bfs": ("level", "parent"),
    "cc": ("comp",),
    "kcore": ("core",),
    "triangles": ("tri",),
    "degree": DEGREE_COLUMNS,
}

#: Stages that collapse or reorder the table (the graph/table phase
#: boundary sits at the first of these).
AGGREGATES = ("topk", "sample", "limit", "count")

#: Relational stages allowed in either phase.
RELATIONAL = ("filter", "project") + AGGREGATES

#: Every plannable stage name (for the unknown-stage error message).
STAGES = tuple(sorted(set(KERNEL_COLUMNS) | set(RELATIONAL)))

_SOURCE_ARGS = ("scale", "seed", "version", "dynamic")


@dataclass(frozen=True)
class SourceInfo:
    """The resolved ``from`` stage: which graph, in which mode."""

    dataset: str
    scale: float = 0.05
    seed: int = 0
    dynamic: bool = False
    version: "int | None" = None      # pinned snapshot (implies dynamic)

    def identity(self) -> tuple:
        return (self.dataset, self.scale, self.seed)


def _bad(stage: Stage, message: str) -> PlanError:
    return PlanError(f"stage '{stage.name}': {message}")


def _int_value(stage: Stage, arg: Arg, what: str, *,
               minimum: "int | None" = None) -> int:
    v = arg.value
    if isinstance(v, bool) or not isinstance(v, int):
        raise _bad(stage, f"{what} must be an integer, got "
                          f"{arg.render()!r}")
    if minimum is not None and v < minimum:
        raise _bad(stage, f"{what} must be >= {minimum}, got {v}")
    return v


def _named_only(stage: Stage, allowed: "dict[str, tuple[str, ...]]",
                n_positional: int = 0) -> None:
    """Shape check: at most ``n_positional`` positionals, named args
    restricted to ``allowed`` (name -> accepted comparators)."""
    pos = stage.positionals()
    if len(pos) > n_positional:
        raise _bad(stage, f"takes {n_positional} positional argument(s), "
                          f"got {len(pos)}")
    seen = set()
    for arg in stage.args:
        if arg.positional:
            continue
        if arg.name not in allowed:
            raise _bad(stage, f"unknown argument {arg.name!r}; choose "
                              f"from {', '.join(sorted(allowed))}")
        if arg.cmp not in allowed[arg.name]:
            raise _bad(stage, f"argument {arg.name!r} accepts "
                              f"{' / '.join(allowed[arg.name])}, got "
                              f"{arg.cmp!r}")
        if arg.name in seen:
            raise _bad(stage, f"argument {arg.name!r} given twice")
        seen.add(arg.name)


def resolve_source(source: Stage) -> SourceInfo:
    """Validate the ``from`` stage into a :class:`SourceInfo`."""
    from ..datagen.registry import REGISTRY
    pos = source.positionals()
    if len(pos) != 1 or not isinstance(pos[0].value, str):
        raise _bad(source, "needs exactly one dataset name")
    _named_only(source, {"scale": ("=",), "seed": ("=",),
                         "version": ("=",), "dynamic": ("=",)},
                n_positional=1)
    dataset = pos[0].value
    if dataset not in REGISTRY:
        raise PlanError(f"unknown dataset {dataset!r}; choose from "
                        f"{', '.join(sorted(REGISTRY))}")
    scale, seed, version, dynamic = 0.05, 0, None, False
    arg = source.named("scale")
    if arg is not None:
        if isinstance(arg.value, bool) \
                or not isinstance(arg.value, (int, float)):
            raise _bad(source, f"scale must be a number, got "
                               f"{arg.render()!r}")
        scale = float(arg.value)
        if not (scale > 0 and math.isfinite(scale)):
            raise _bad(source, f"scale must be > 0, got {scale!r}")
    arg = source.named("seed")
    if arg is not None:
        seed = _int_value(source, arg, "seed")
    arg = source.named("version")
    if arg is not None:
        version = _int_value(source, arg, "version", minimum=0)
        dynamic = True
    arg = source.named("dynamic")
    if arg is not None:
        if not isinstance(arg.value, bool):
            raise _bad(source, f"dynamic must be true/false, got "
                               f"{arg.render()!r}")
        dynamic = dynamic or arg.value
    return SourceInfo(dataset=dataset, scale=scale, seed=seed,
                      dynamic=dynamic, version=version)


def source_info(pipeline: Pipeline) -> SourceInfo:
    """The source of a parsed pipeline (routing needs only this)."""
    return resolve_source(pipeline.source)


# -- physical ops ------------------------------------------------------------

def _op(kind: str, **params: Any) -> dict[str, Any]:
    out = {"kind": kind}
    out.update(params)
    return out


@dataclass
class PhysicalPlan:
    """An executable plan: scan + graph phase + table phase.

    ``graph_ops`` are row-independent (kernels annotate the full vertex
    table; filters/projects drop rows/columns).  ``table_ops`` start at
    the first aggregate.
    """

    source: SourceInfo
    scan: dict[str, Any]
    graph_ops: list[dict[str, Any]] = field(default_factory=list)
    table_ops: list[dict[str, Any]] = field(default_factory=list)
    columns: tuple[str, ...] = ("id",)      # visible at plan end
    fused: int = 0

    @property
    def ops(self) -> list[dict[str, Any]]:
        return [self.scan, *self.graph_ops, *self.table_ops]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready plan (the ``explain`` payload body)."""
        stages = [{k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in op.items()} for op in self.ops]
        return {"planner": PLANNER_VERSION,
                "source": {"dataset": self.source.dataset,
                           "scale": self.source.scale,
                           "seed": self.source.seed,
                           "dynamic": self.source.dynamic,
                           "version": self.source.version},
                "stages": stages,
                "columns": list(self.columns),
                "fused_stages": self.fused}


# -- the planner -------------------------------------------------------------

def _plan_kernel(stage: Stage) -> dict[str, Any]:
    if stage.name == "bfs":
        _named_only(stage, {"root": ("=",), "depth": ("<=", "<")})
        root_arg = stage.named("root")
        root = 0 if root_arg is None \
            else _int_value(stage, root_arg, "root", minimum=0)
        depth = None
        arg = stage.named("depth")
        if arg is not None:
            bound = _int_value(stage, arg, "depth", minimum=0)
            depth = bound - 1 if arg.cmp == "<" else bound
            if depth < 0:
                raise _bad(stage, "depth<1 excludes even the root")
        return _op("bfs", root=root, depth=depth)
    if stage.name == "kcore":
        _named_only(stage, {"k": (">=", "=")})
        arg = stage.named("k")
        k = None if arg is None \
            else _int_value(stage, arg, "k", minimum=0)
        return _op("kcore", k=k)
    _named_only(stage, {})
    return _op(stage.name)


def _plan_relational(stage: Stage, visible: list[str]) -> dict[str, Any]:
    if stage.name == "filter":
        named = [a for a in stage.args if not a.positional]
        if len(named) != 1 or stage.positionals():
            raise _bad(stage, "takes exactly one '<column> <cmp> "
                              "<value>' predicate")
        pred = named[0]
        if isinstance(pred.value, tuple):
            raise _bad(stage, "predicate value cannot be a list")
        if pred.cmp not in ("=", "!=") \
                and not isinstance(pred.value, (int, float)):
            # every column is numeric: ordering it against text is a
            # TypeError in either phase's comparison, not an empty table
            raise _bad(stage, f"{pred.render()!r} orders a numeric "
                              f"column against text; '{pred.cmp}' needs "
                              "a number")
        return _op("filter", column=pred.name, cmp=pred.cmp,
                   value=pred.value)
    if stage.name == "project":
        pos = stage.positionals()
        _named_only(stage, {}, n_positional=1)
        if len(pos) != 1:
            raise _bad(stage, "takes exactly one column list")
        value = pos[0].value
        cols = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(c, str) for c in cols):
            raise _bad(stage, f"column names must be identifiers, got "
                              f"{pos[0].render()!r}")
        return _op("project", columns=tuple(cols))
    if stage.name == "topk":
        pos = stage.positionals()
        _named_only(stage, {}, n_positional=2)
        if len(pos) != 2 or not isinstance(pos[0].value, str):
            raise _bad(stage, "takes '<column> <k>'")
        k = _int_value(stage, pos[1], "k", minimum=1)
        return _op("topk", column=pos[0].value, k=k)
    if stage.name == "sample":
        pos = stage.positionals()
        _named_only(stage, {"seed": ("=",)}, n_positional=1)
        if len(pos) != 1:
            raise _bad(stage, "takes '<k> [seed=N]'")
        k = _int_value(stage, pos[0], "k", minimum=1)
        arg = stage.named("seed")
        seed = 0 if arg is None else _int_value(stage, arg, "seed")
        return _op("sample", k=k, seed=seed)
    if stage.name == "limit":
        pos = stage.positionals()
        _named_only(stage, {}, n_positional=1)
        if len(pos) != 1:
            raise _bad(stage, "takes '<k>'")
        return _op("limit", k=_int_value(stage, pos[0], "k", minimum=1))
    _named_only(stage, {})
    return _op("count")


def _fuse(ops: list[dict[str, Any]]) -> tuple[list[dict[str, Any]], int]:
    """Fold kernel-adjacent filters into the kernel's own bound."""
    out: list[dict[str, Any]] = []
    fused = 0
    for op in ops:
        prev = out[-1] if out else None
        if prev is not None and op["kind"] == "filter" \
                and not isinstance(op["value"], bool) \
                and isinstance(op["value"], int):
            if prev["kind"] == "bfs" and op["column"] == "level" \
                    and op["cmp"] in ("<=", "<"):
                bound = op["value"] - 1 if op["cmp"] == "<" \
                    else op["value"]
                if bound < 0:
                    bound = -1        # empty result, still a valid bound
                prev["depth"] = bound if prev["depth"] is None \
                    else min(prev["depth"], bound)
                fused += 1
                continue
            if prev["kind"] == "kcore" and op["column"] == "core" \
                    and op["cmp"] in (">=", ">"):
                bound = op["value"] + 1 if op["cmp"] == ">" \
                    else op["value"]
                prev["k"] = bound if prev["k"] is None \
                    else max(prev["k"], bound)
                fused += 1
                continue
        out.append(op)
    return out, fused


def plan_pipeline(pipeline: Pipeline) -> PhysicalPlan:
    """Plan a parsed pipeline; raises :class:`PlanError` on anything the
    executor cannot run."""
    source = resolve_source(pipeline.source)
    scan = _op("scan", dataset=source.dataset, scale=source.scale,
               seed=source.seed,
               mode="dynamic" if source.dynamic else "static",
               version=source.version)

    visible: list[str] = ["id"]
    graph_ops: list[dict[str, Any]] = []
    table_ops: list[dict[str, Any]] = []
    aggregated = False
    counted = False

    def materialize_degrees() -> None:
        if "degree" not in visible:
            graph_ops.append(_op("degree"))
            visible.extend(DEGREE_COLUMNS)

    def check_column(stage: Stage, column: str) -> None:
        if column in visible:
            return
        if column in DEGREE_COLUMNS and not aggregated:
            materialize_degrees()
            return
        hint = ""
        for kernel, cols in KERNEL_COLUMNS.items():
            if column in cols:
                hint = f" (produced by the '{kernel}' stage)"
                break
        raise _bad(stage, f"unknown column {column!r}{hint}; visible "
                          f"columns: {', '.join(visible)}")

    for stage in pipeline.stages:
        if counted:
            raise _bad(stage, "'count' is terminal; nothing may follow")
        if stage.name in KERNEL_COLUMNS:
            if aggregated:
                raise _bad(stage, "graph kernels must run before the "
                                  "first aggregate (topk/sample/limit/"
                                  "count)")
            op = _plan_kernel(stage)
            already = [c for c in KERNEL_COLUMNS[stage.name]
                       if c in visible]
            if already:
                raise _bad(stage, f"column(s) {', '.join(already)} "
                                  "already materialized")
            graph_ops.append(op)
            visible.extend(KERNEL_COLUMNS[stage.name])
            continue
        if stage.name not in RELATIONAL:
            raise PlanError(f"unknown stage {stage.name!r}; choose from "
                            f"{', '.join(STAGES)}")
        op = _plan_relational(stage, visible)
        kind = op["kind"]
        if kind == "filter":
            check_column(stage, op["column"])
        elif kind == "topk":
            check_column(stage, op["column"])
        elif kind == "project":
            for c in op["columns"]:
                check_column(stage, c)
            visible = ["id"] + [c for c in op["columns"] if c != "id"]
            op["columns"] = tuple(visible)
        elif kind == "count":
            counted = True
            visible = ["count"]
        if kind in AGGREGATES:
            aggregated = True
        (table_ops if aggregated else graph_ops).append(op)

    graph_ops, fused = _fuse(graph_ops)
    return PhysicalPlan(source=source, scan=scan, graph_ops=graph_ops,
                        table_ops=table_ops, columns=tuple(visible),
                        fused=fused)


def render_plan(plan_dict: dict[str, Any]) -> str:
    """Human-readable plan tree (the CLI's ``--explain`` output)."""
    lines = []
    src = plan_dict["source"]
    mode = "dynamic" if src["dynamic"] else "static"
    pin = f" version={src['version']}" if src["version"] is not None \
        else ""
    lines.append(f"plan (planner v{plan_dict['planner']}):")
    for depth, stage in enumerate(plan_dict["stages"]):
        params = {k: v for k, v in stage.items()
                  if k != "kind" and v is not None}
        if stage["kind"] == "scan":
            label = (f"scan[{src['dataset']} scale={src['scale']:g} "
                     f"seed={src['seed']} {mode}{pin}]")
        else:
            body = " ".join(f"{k}={v}" for k, v in params.items())
            label = f"{stage['kind']}[{body}]" if body \
                else stage["kind"]
        indent = "  " * depth + ("└─ " if depth else "")
        lines.append(f"{indent}{label}")
    if plan_dict.get("fused_stages"):
        lines.append(f"({plan_dict['fused_stages']} filter stage(s) "
                     "fused into kernel bounds)")
    return "\n".join(lines)
