"""Distributed execution: the scatter-gather merge.

The router fans a query out as ``N`` part-requests — the same DSL text
plus ``part=[i, N]`` — and each shard answers with a *partial* table
(its vertex partition's rows, with the first aggregate applied in its
partial form).  :func:`merge_partials` reassembles the exact single-node
answer:

* ``count``  — partial counts sum;
* ``topk``   — local top-k lists union, then the final top-k re-ranks
  (value descending, id ascending): a global winner is a winner in its
  own partition, so the union always contains the true top-k;
* ``sample`` — the bottom-k-by-splitmix64-hash union re-ranks by the
  same hash, recomputed from the ids alone;
* ``limit``  — partials ship their first ``k`` id-ascending rows; the
  merged, id-sorted union's first ``k`` equal the single-node answer;
* component labels need no repair: every shard runs ``cc`` over the
  whole graph and labels a component by its minimum id, so two shards
  agree on every label.

Partials may overlap when a failed part was reassigned to a surviving
shard and the original answer arrived late — merge dedupes by vertex
id, so reassignment is idempotent.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import QueryError
from .exec import MAX_RESULT_ROWS, apply_table_op, run_table_phase
from .plan import PhysicalPlan


def merge_partials(plan: PhysicalPlan,
                   partials: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-shard partial tables into the final answer.

    Raises :class:`~repro.core.errors.QueryError` on structurally
    inconsistent partials (mismatched columns, nothing to merge) — that
    is a coordination bug surfaced typed, never a silent wrong answer.
    """
    partials = [p for p in partials if p]
    if not partials:
        raise QueryError("no partial results to merge")
    first_op = plan.table_ops[0] if plan.table_ops else None

    if first_op is not None and first_op["kind"] == "count":
        total = 0
        for p in partials:
            try:
                total += int(p["rows"][0][0])
            except (KeyError, IndexError, TypeError, ValueError):
                raise QueryError(
                    f"malformed partial count {p!r}") from None
        return {"columns": ["count"], "rows": [[total]]}

    columns = partials[0].get("columns")
    if not columns:
        raise QueryError(f"malformed partial table {partials[0]!r}")
    for p in partials[1:]:
        if p.get("columns") != columns:
            raise QueryError(
                f"shards returned mismatched columns: {columns} vs "
                f"{p.get('columns')}")

    # concat, dedupe by vertex id (reassignment overlap), restore the
    # global id-ascending materialization order
    seen: set[int] = set()
    rows: list[list[Any]] = []
    merged = sorted((r for p in partials for r in p["rows"]),
                    key=lambda r: r[0])
    for r in merged:
        if r[0] in seen:
            continue
        seen.add(r[0])
        rows.append(r)
    table = {"columns": columns, "rows": rows}
    if first_op is not None:
        table = apply_table_op(table, first_op)        # final form
        table = run_table_phase(table, plan.table_ops[1:])
    if len(table["rows"]) > MAX_RESULT_ROWS:
        raise QueryError(
            f"merged result of {len(table['rows'])} rows exceeds "
            f"{MAX_RESULT_ROWS}; add a topk/limit/sample/count stage")
    return table
