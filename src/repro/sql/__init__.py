"""The SQL frontend over the curated store.

Data Tamer lands flattened records in an internal RDBMS; this package gives
that landing zone — and the curated entity state around it — a real
relational query surface:

* :mod:`repro.sql.lexer` / :mod:`repro.sql.parser` — a hand-rolled lexer
  and recursive-descent parser for ``SELECT ... FROM ... [JOIN] [WHERE]
  [GROUP BY] [ORDER BY] [LIMIT]`` (plus ``DISTINCT``, aggregates and
  ``EXPLAIN``), producing a canonically-renderable AST;
* :mod:`repro.sql.catalog` — a :class:`SqlContext` pinning one immutable
  snapshot of the system and serving the virtual-table catalog
  (``entities``, ``instances``, ``sources``, ``global_attributes``,
  ``mappings``, ``clusters``, ``curation_status``) as column stores,
  captured one column at a time, with lazily built per-column equality
  indexes and total-order ranks;
* :mod:`repro.sql.planner` — the binder + logical planner: names resolve
  against the catalog (global-schema attribute names resolve to source
  attributes through the integrator's mappings), equality/range conjuncts
  are classified for pushdown, and the plan renders to stable ``EXPLAIN``
  text;
* :mod:`repro.sql.executor` — the columnar plan evaluator: indexed
  scans, boolean-mask predicates, index-probe joins, deterministic
  grouping/ordering over group codes and ranks, per-query pushdown/scan
  counters on the observability hub.

Entry points: :func:`run_sql` (and :meth:`repro.query.engine.QueryEngine
.sql`, the serve tier's ``sql`` op and :meth:`repro.serve.client
.QueryClient.sql` built on it).
"""

from .catalog import SqlContext, SqlMetadata, VIRTUAL_TABLES
from .executor import SqlResult, SqlStats, run_sql
from .lexer import tokenize_sql
from .nodes import SelectStatement
from .parser import parse_sql
from .planner import plan_statement

__all__ = [
    "SelectStatement",
    "SqlContext",
    "SqlMetadata",
    "SqlResult",
    "SqlStats",
    "VIRTUAL_TABLES",
    "parse_sql",
    "plan_statement",
    "run_sql",
    "tokenize_sql",
]
