"""Mutation operations: the typed write vocabulary of a dynamic graph.

One :class:`MutOp` is one logical change — add/delete a vertex or
add/delete an edge.  A batch of them is what a ``mutate`` wire request
carries and what a :class:`~repro.dynamic.store.SnapshotStore` commit
applies atomically (one commit = one new snapshot version, never a
half-applied batch).

Ops travel the wire as flat JSON dicts (``{"op": "add_edge", "src": 3,
"dst": 7}``) — the same self-describing record discipline every other
frame uses — and :func:`parse_ops` is the single validation point both
the service and the store trust.  :func:`churn_ops` generates the
deterministic random edge-churn batches the load generator and the
mutation benchmark drive traffic with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..core.errors import BadRequest

#: The write vocabulary: topology only.  Properties stay static in this
#: layer — none of the incremental kernels or query stages read them.
OP_KINDS = ("add_vertex", "del_vertex", "add_edge", "del_edge")

#: Hard cap on one batch — a mutate frame is a delta, not a bulk load
#: (bulk loads belong in dataset generation, where they are versioned as
#: the base).
MAX_BATCH_OPS = 10_000


@dataclass(frozen=True)
class MutOp:
    """One validated mutation operation."""

    kind: str                       # one of OP_KINDS
    src: int = -1                   # vertex id (vertex ops) or arc src
    dst: int = -1                   # arc dst (edge ops only)


def _as_vid(raw: Any, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise BadRequest(f"mutation field {field!r} must be an integer "
                         f"vertex id, got {raw!r}")
    if raw < 0:
        raise BadRequest(f"mutation field {field!r} must be >= 0, "
                         f"got {raw}")
    return raw


def parse_op(raw: Any) -> MutOp:
    """Validate one wire-shaped op dict into a :class:`MutOp`."""
    if not isinstance(raw, dict):
        raise BadRequest(f"mutation op must be an object, got "
                         f"{type(raw).__name__}")
    kind = raw.get("op")
    if kind not in OP_KINDS:
        raise BadRequest(f"unknown mutation op {kind!r}; choose from "
                         f"{', '.join(OP_KINDS)}")
    if kind in ("add_vertex", "del_vertex"):
        return MutOp(kind, src=_as_vid(raw.get("vid"), "vid"))
    return MutOp(kind, src=_as_vid(raw.get("src"), "src"),
                 dst=_as_vid(raw.get("dst"), "dst"))


def parse_ops(raw: Any) -> list[MutOp]:
    """Validate a wire batch (the ``ops`` param of a ``mutate``
    request)."""
    if not isinstance(raw, (list, tuple)):
        raise BadRequest(f"'ops' must be a list of mutation objects, "
                         f"got {type(raw).__name__}")
    if not raw:
        raise BadRequest("'ops' is empty — a mutate request must carry "
                         "at least one operation")
    if len(raw) > MAX_BATCH_OPS:
        raise BadRequest(f"batch of {len(raw)} ops exceeds "
                         f"{MAX_BATCH_OPS}")
    return [parse_op(item) for item in raw]


def single_op(kind: str, params: dict[str, Any]) -> MutOp:
    """Build the one-op batch behind the flat wire ops (``add_edge`` as
    its own request, etc.) from request params."""
    raw = {"op": kind}
    for field in ("vid", "src", "dst"):
        if field in params:
            raw[field] = params[field]
    return parse_op(raw)


def churn_ops(rng: random.Random, n_vertices: int,
              size: int) -> list[dict[str, Any]]:
    """One deterministic edge-churn batch, wire-shaped.

    Roughly 70% edge inserts between random resident vertices and 30%
    deletes of random pairs (which mostly no-op).  Vertex id 0 is never
    deleted so a BFS rooted there stays meaningful across any schedule.
    """
    if n_vertices < 2:
        raise ValueError("churn needs at least 2 vertices")
    ops: list[dict[str, Any]] = []
    for _ in range(size):
        kind = "add_edge" if rng.random() < 0.70 else "del_edge"
        src = rng.randrange(n_vertices)
        dst = rng.randrange(n_vertices)
        if src == dst:
            dst = (dst + 1) % n_vertices
        ops.append({"op": kind, "src": src, "dst": dst})
    return ops
