"""Pipeline query language: DSL -> AST -> plan -> execution.

The smallest language that multiplies scenario coverage: a ``|``-chained
pipeline in the Storm mold, composing the existing graph kernels with
relational stages over one shared vertex table::

    from twitter | bfs root=42 depth<=3 | topk degree 10

* :mod:`~repro.query.parse` — hand-written lexer + recursive-descent
  parser producing the typed AST of :mod:`~repro.query.ast`
  (``parse -> unparse -> parse`` is the identity, property-tested);
* :mod:`~repro.query.plan` — logical validation + the physical
  planner (implicit column materialization, filter fusion, graph/table
  phase split), a plan depending on the query text alone;
* :mod:`~repro.query.exec` — the executor: numpy kernels over a graph
  image, then relational table ops over the materialized rows;
* :mod:`~repro.query.engine` — the per-service facade: content-addressed
  plan cache, and graph/kernel and result caches (version-keyed, so
  dynamic-graph commits invalidate);
* :mod:`~repro.query.templates` — the loadgen's query-template pool.
"""

from .ast import Arg, Pipeline, Stage
from .engine import PLANNER_VERSION, QueryEngine
from .parse import parse, unparse
from .plan import PhysicalPlan, plan_pipeline, source_info
from .templates import query_template_pool

__all__ = [
    "Arg", "PLANNER_VERSION", "PhysicalPlan", "Pipeline", "QueryEngine",
    "Stage", "parse", "plan_pipeline",
    "query_template_pool", "source_info", "unparse",
]
