"""Pipeline query language: DSL -> AST -> plan -> local/distributed
execution.

The smallest language that multiplies scenario coverage: a ``|``-chained
pipeline in the Storm mold, composing the existing graph kernels with
relational stages over one shared vertex table::

    from twitter | bfs root=42 depth<=3 | topk degree 10

* :mod:`~repro.query.parse` — hand-written lexer + recursive-descent
  parser producing the typed AST of :mod:`~repro.query.ast`
  (``parse -> unparse -> parse`` is the identity, property-tested);
* :mod:`~repro.query.plan` — logical validation + the cost-aware
  physical planner (implicit column materialization, filter fusion,
  graph/table phase split, per-stage cost estimates for ``explain``);
* :mod:`~repro.query.exec` — the executor: numpy/python kernels over a
  graph image, relational table ops shared verbatim by the single-node
  tail and the router's distributed merge;
* :mod:`~repro.query.engine` — the per-service facade: content-addressed
  plan cache (version-keyed, so dynamic-graph commits invalidate),
  graph/kernel caches, wire-param validation;
* :mod:`~repro.query.dist` — the scatter-gather merge of per-shard
  partial tables (topk merge, count sum, id-ordered concat);
* :mod:`~repro.query.templates` — the loadgen's query-template pool.
"""

from .ast import Arg, Pipeline, Stage
from .dist import merge_partials
from .engine import PLANNER_VERSION, QueryEngine
from .parse import parse, unparse
from .plan import PhysicalPlan, plan_pipeline, source_info
from .templates import query_template_pool

__all__ = [
    "Arg", "PLANNER_VERSION", "PhysicalPlan", "Pipeline", "QueryEngine",
    "Stage", "merge_partials", "parse", "plan_pipeline",
    "query_template_pool", "source_info", "unparse",
]
