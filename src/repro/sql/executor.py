"""The plan evaluator.

:func:`run_sql` parses, plans and executes one statement against a
:class:`~repro.sql.catalog.SqlContext`, returning a :class:`SqlResult`
(columns + row tuples + :class:`SqlStats`).  ``EXPLAIN`` statements return
the plan's stable text rendering instead of executing.

Execution is columnar.  The relation between operators is a *frame*: one
int64 position array per table binding, all of one length, row ``k`` of the
relation being the ``k``-th position of every binding.  Scans intersect the
positions their pushed conjuncts select, predicates evaluate to boolean
masks over the frame, joins expand it by probing the right side's
:class:`~repro.sql.catalog.EqualityIndex`, ``GROUP BY``/``DISTINCT`` bucket
by that index's group codes, ``ORDER BY`` sorts frame rows by the columns'
:class:`~repro.sql.catalog.ColumnOrder` ranks, and row tuples are built
only for the rows that survive ``LIMIT``.

Evaluation semantics are deliberately two-valued and deterministic:

* ``=`` / ``!=`` are Python equality over non-null values — the same
  relation the equality indexes and join probes use, so the indexed path
  is bit-identical to the scan path;
* range comparisons match only when both sides are non-null and share a
  type class, ordered by :func:`repro.sql.ordering.sort_key`;
* any comparison against NULL is false (``IS [NOT] NULL`` is the null
  test), and ``NOT`` is plain boolean negation;
* GROUP BY / DISTINCT bucket by Python equality with the first-seen value
  as the group's representative; ORDER BY is a stable sort under the
  shared total order, NULLs last ascending.

Every query increments pushdown/scan counters on the telemetry hub, so
"did the index path actually serve this WHERE clause" is observable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SqlError
from ..obs import TelemetryHub, default_hub
from .catalog import ColumnData, SqlContext, VirtualTable
from .nodes import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Star,
)
from .ordering import group_key, sort_key
from .parser import parse_sql
from .planner import BoundColumn, QueryPlan, ScanPlan, plan_statement


@dataclass
class SqlStats:
    """Execution counters for one query (mirrored onto the obs hub)."""

    #: WHERE conjuncts served by an equality index or a column-order range.
    pushdowns: int = 0
    #: Rows fetched and predicate-evaluated across all scans.
    rows_scanned: int = 0
    #: Rows never fetched thanks to pushdown (table size - candidates).
    rows_pruned: int = 0
    #: Rows produced before projection-stage operators.
    rows_joined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "pushdowns": self.pushdowns,
            "rows_scanned": self.rows_scanned,
            "rows_pruned": self.rows_pruned,
            "rows_joined": self.rows_joined,
        }


@dataclass(frozen=True)
class SqlResult:
    """One executed (or explained) query."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    stats: SqlStats
    explain: Optional[Tuple[str, ...]] = None
    canonical: str = ""

    def as_payload(self) -> Dict[str, Any]:
        """The JSON-friendly shape the serve tier returns."""
        return {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "stats": self.stats.as_dict(),
            "explain": list(self.explain) if self.explain is not None else None,
            "canonical": self.canonical,
        }


def run_sql(
    context: SqlContext,
    query: str,
    hub: Optional[TelemetryHub] = None,
) -> SqlResult:
    """Parse, plan and execute ``query`` against ``context``."""
    statement = parse_sql(query)
    plan = plan_statement(statement, context)
    canonical = statement.render()
    if plan.explain:
        lines = tuple(plan.explain_lines())
        return SqlResult(
            columns=("plan",),
            rows=tuple((line,) for line in lines),
            stats=SqlStats(),
            explain=lines,
            canonical=canonical,
        )
    executor = _Executor(plan, context)
    columns, rows = executor.run()
    _record_stats(executor.stats, hub)
    return SqlResult(
        columns=columns,
        rows=rows,
        stats=executor.stats,
        canonical=canonical,
    )


#: hub → its four SQL counters, resolved once per hub.
_HUB_COUNTERS: "weakref.WeakKeyDictionary[TelemetryHub, Tuple]" = (
    weakref.WeakKeyDictionary()
)


def _record_stats(stats: SqlStats, hub: Optional[TelemetryHub]) -> None:
    hub = hub or default_hub()
    counters = _HUB_COUNTERS.get(hub)
    if counters is None:
        registry = hub.registry
        counters = (
            registry.counter("sql_queries_total", "SQL statements executed"),
            registry.counter(
                "sql_pushdown_conjuncts_total",
                "WHERE conjuncts served by an index instead of a scan",
            ),
            registry.counter("sql_rows_scanned_total", "rows fetched by SQL scans"),
            registry.counter(
                "sql_rows_pruned_total", "rows skipped by SQL index pushdown"
            ),
        )
        _HUB_COUNTERS[hub] = counters
    queries, pushdowns, scanned, pruned = counters
    queries.inc()
    pushdowns.inc(stats.pushdowns)
    scanned.inc(stats.rows_scanned)
    pruned.inc(stats.rows_pruned)


#: The relation between operators: binding → row positions (equal lengths).
_Frame = Dict[str, np.ndarray]

_NO_ROWS = np.empty(0, dtype=np.int64)


class _Executor:
    def __init__(self, plan: QueryPlan, context: SqlContext):
        self._plan = plan
        self._context = context
        self._resolution = plan.resolution_map()
        # binding → the columns the statement names; the scan captures them
        # through SqlContext.table, the per-snapshot build point that traces
        # charge to context build (VirtualTable.column alone would capture
        # the same columns lazily, but inside execution time)
        needed: Dict[str, Dict[str, None]] = {}
        for _ref, bound in plan.resolution:
            needed.setdefault(bound.binding, {})[bound.column] = None
        self._needed = needed
        #: table name → the table its scan captured (no repeated lookups)
        self._tables: Dict[str, VirtualTable] = {}
        self.stats = SqlStats()

    def run(self) -> Tuple[Tuple[str, ...], Tuple[Tuple[Any, ...], ...]]:
        plan = self._plan
        frame: _Frame = {plan.base.binding: self._scan(plan.base)}
        for step in plan.joins:
            frame = self._join(frame, step)
        size = len(frame[plan.base.binding])
        if plan.residual:
            keep = self._all(plan.residual, frame, size)
            frame = {binding: rows[keep] for binding, rows in frame.items()}
            size = len(frame[plan.base.binding])
        self.stats.rows_joined = size
        names = tuple(item.name for item in plan.items)
        if plan.aggregate:
            output = self._aggregate(frame, size)
            if plan.distinct:
                output = _distinct_rows(output)
            output = _sort_output(output, names, plan)
            if plan.limit is not None:
                output = output[: plan.limit]
            return names, tuple(output)
        rows = self._distinct(frame, size) if plan.distinct else np.arange(size)
        if plan.order_by:
            rows = self._order(rows, frame, names)
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return names, self._project(rows, frame)

    # -- scans -------------------------------------------------------------

    def _scan(self, scan: ScanPlan) -> np.ndarray:
        """One table's candidate positions, pushed conjuncts served first."""
        table = self._context.table(
            scan.table, tuple(self._needed.get(scan.binding, ()))
        )
        self._tables[scan.table] = table
        positions: Optional[np.ndarray] = None
        mask: Optional[np.ndarray] = None
        for column, value in scan.eq:
            self.stats.pushdowns += 1
            matches = (
                _NO_ROWS
                if value is None  # `col = NULL` never matches
                else self._context.equality_index(scan.table, column).lookup(value)
            )
            positions = (
                matches
                if positions is None
                else np.intersect1d(positions, matches, assume_unique=True)
            )
        for column, op, value in scan.ranges:
            self.stats.pushdowns += 1
            if value is None:
                matches_mask = np.zeros(table.row_count, dtype=bool)
            else:
                order = self._context.sorted_column(scan.table, column)
                matches_mask = order.range_mask(op, value)
            mask = matches_mask if mask is None else (mask & matches_mask)
        if mask is not None:
            positions = (
                np.flatnonzero(mask) if positions is None else positions[mask[positions]]
            )
        if positions is None:
            positions = np.arange(table.row_count)
        else:
            self.stats.rows_pruned += table.row_count - len(positions)
        self.stats.rows_scanned += len(positions)
        if scan.residual:
            keep = self._all(scan.residual, {scan.binding: positions}, len(positions))
            positions = positions[keep]
        return positions

    def _join(self, frame: _Frame, step) -> _Frame:
        """Probe the right column's index per left row, preserving input order.

        Matches come in ascending right-position order, as the right scan
        produced them; NULL keys never match.
        """
        right = self._scan(step.scan)
        table = self._tables[step.scan.table]
        right_index = self._context.equality_index(step.scan.table, step.right.column)
        left_index = self._context.equality_index(step.left.table, step.left.column)
        left_codes = left_index.codes[frame[step.left.binding]]
        # translate each distinct left group key into the right column's code
        translate = np.full(len(left_index.keys), -1, dtype=np.int64)
        for code in np.unique(left_codes).tolist():
            translate[code] = right_index.code_for_key(left_index.keys[code])
        probe, matches = right_index.expand(translate[left_codes])
        if len(right) != table.row_count:
            member = np.zeros(table.row_count, dtype=bool)
            member[right] = True
            keep = member[matches]
            probe, matches = probe[keep], matches[keep]
        joined = {binding: rows[probe] for binding, rows in frame.items()}
        joined[step.scan.binding] = matches
        return joined

    # -- predicate masks -----------------------------------------------------

    def _all(self, exprs, frame: _Frame, size: int) -> np.ndarray:
        mask = np.ones(size, dtype=bool)
        for expr in exprs:
            mask &= self._mask(expr, frame, size)
        return mask

    def _mask(self, expr: Expr, frame: _Frame, size: int) -> np.ndarray:
        """The predicate's truth value per frame row."""
        if isinstance(expr, Literal):
            return np.full(size, bool(expr.value))
        if isinstance(expr, ColumnRef):
            return self._column(expr).truthy[self._rows(expr, frame)]
        if isinstance(expr, Comparison):
            return self._comparison(expr, frame, size)
        if isinstance(expr, IsNull):
            nulls = self._nulls(expr.expr, frame, size)
            return ~nulls if expr.negated else nulls
        if isinstance(expr, InList):
            return self._in_list(expr, frame, size)
        if isinstance(expr, Not):
            return ~self._mask(expr.expr, frame, size)
        if isinstance(expr, And):
            return self._all(expr.terms, frame, size)
        if isinstance(expr, Or):
            mask = np.zeros(size, dtype=bool)
            for term in expr.terms:
                mask |= self._mask(term, frame, size)
            return mask
        raise SqlError(f"cannot evaluate expression: {expr!r}")

    def _comparison(self, expr: Comparison, frame: _Frame, size: int) -> np.ndarray:
        op, left, right = expr.op, expr.left, expr.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right, op = right, left, _MIRROR[op]
        if isinstance(left, Literal) and isinstance(right, Literal):
            return np.full(size, _compare(op, left.value, right.value))
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            value = right.value
            if value is None:
                return np.zeros(size, dtype=bool)
            rows = self._rows(left, frame)
            bound = self._resolution[left]
            if op in ("=", "!="):
                index = self._context.equality_index(bound.table, bound.column)
                equal = index.codes[rows] == index.code(value)
                if op == "=":
                    return equal
                return ~(equal | self._column(left).nulls[rows])
            order = self._context.sorted_column(bound.table, bound.column)
            return order.range_mask(op, value, rows)
        # column vs column: a per-element kernel over the gathered values
        left_values = self._values(left, frame, size)
        right_values = self._values(right, frame, size)
        return np.fromiter(
            (_compare(op, a, b) for a, b in zip(left_values, right_values)),
            dtype=bool,
            count=size,
        )

    def _nulls(self, expr: Expr, frame: _Frame, size: int) -> np.ndarray:
        if isinstance(expr, Literal):
            return np.full(size, expr.value is None)
        if isinstance(expr, ColumnRef):
            return self._column(expr).nulls[self._rows(expr, frame)]
        raise SqlError(f"cannot evaluate expression: {expr!r}")

    def _in_list(self, expr: InList, frame: _Frame, size: int) -> np.ndarray:
        inner = expr.expr
        if isinstance(inner, Literal):
            value = inner.value
            hit = value is not None and (
                any(value == candidate for candidate in expr.values) != expr.negated
            )
            return np.full(size, hit)
        if not isinstance(inner, ColumnRef):
            raise SqlError(f"cannot evaluate expression: {inner!r}")
        bound = self._resolution[inner]
        rows = self._rows(inner, frame)
        index = self._context.equality_index(bound.table, bound.column)
        codes = [index.code(value) for value in expr.values]
        contained = np.isin(index.codes[rows], [code for code in codes if code >= 0])
        if not expr.negated:
            return contained
        return ~(contained | self._column(inner).nulls[rows])

    # -- column access -------------------------------------------------------

    def _column(self, ref: ColumnRef) -> ColumnData:
        bound = self._resolution[ref]
        return self._tables[bound.table].column(bound.column)

    def _rows(self, ref: ColumnRef, frame: _Frame) -> np.ndarray:
        return frame[self._resolution[ref].binding]

    def _values(self, expr: Expr, frame: _Frame, size: int) -> List[Any]:
        """The expression's value per frame row, as Python objects."""
        if isinstance(expr, Literal):
            return [expr.value] * size
        if isinstance(expr, ColumnRef):
            return self._column(expr).values[self._rows(expr, frame)].tolist()
        raise SqlError(f"cannot evaluate expression: {expr!r}")

    def _bound_values(self, bound: BoundColumn, rows: np.ndarray) -> np.ndarray:
        return self._tables[bound.table].column(bound.column).values[rows]

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, frame: _Frame, size: int) -> List[Tuple[Any, ...]]:
        plan = self._plan
        if plan.group_by:
            codes = None
            for col in plan.group_by:
                column_codes = self._context.equality_index(
                    col.table, col.column
                ).codes[frame[col.binding]]
                codes = column_codes if codes is None else _pair_codes(codes, column_codes)
            group_of, first = _first_seen_groups(codes)
        elif size:
            group_of, first = np.zeros(size, dtype=np.int64), np.zeros(1, dtype=np.int64)
        else:
            group_of, first = _NO_ROWS, None  # one row over an empty input
        groups = 1 if first is None else len(first)
        # frame rows regrouped: each group's rows contiguous, in frame order
        by_group = np.argsort(group_of, kind="stable")
        counts = np.bincount(group_of, minlength=groups)
        evaluators: List[Callable[[int], Any]] = []
        for item in plan.items:
            expr = item.expr
            if isinstance(expr, FuncCall):
                evaluators.append(
                    self._aggregate_evaluator(expr, frame, group_of, by_group, counts)
                )
            elif isinstance(expr, Literal):
                evaluators.append(lambda _g, value=expr.value: value)
            elif first is None:
                evaluators.append(lambda _g: None)
            else:
                bound = self._resolution[expr]
                values = self._bound_values(bound, frame[bound.binding][first])
                evaluators.append(values.__getitem__)
        return [
            tuple(evaluate(group) for evaluate in evaluators)
            for group in range(groups)
        ]

    def _aggregate_evaluator(
        self, call: FuncCall, frame: _Frame, group_of, by_group, counts
    ) -> Callable[[int], Any]:
        """``group → value`` for one aggregate; errors raise when evaluated.

        Raising lazily means the first failing (group, item) in output
        order names the error, as a row-at-a-time evaluation would.
        """
        name = call.name
        if isinstance(call.arg, Star):
            if name != "count":
                def unsupported(_group):
                    raise SqlError(f"{name.upper()}(*) is not supported")
                return unsupported
            return lambda group: int(counts[group])
        bound = self._resolution[call.arg]
        rows = frame[bound.binding][by_group]
        column = self._tables[bound.table].column(bound.column)
        present = ~column.nulls[rows]
        rows = rows[present]
        present_group = group_of[by_group][present]
        present_counts = np.bincount(present_group, minlength=len(counts))
        starts = np.concatenate(([0], np.cumsum(present_counts)))
        if call.distinct:
            if name != "count":
                def distinct_only(_group):
                    raise SqlError("DISTINCT is only supported inside COUNT")
                return distinct_only
            codes = self._context.equality_index(bound.table, bound.column).codes[rows]
            span = int(codes.max()) + 1 if len(codes) else 1
            pairs = np.unique(present_group * span + codes)
            distinct = np.bincount(pairs // span, minlength=len(counts))
            return lambda group: int(distinct[group])
        if name == "count":
            return lambda group: int(present_counts[group])
        if name in ("min", "max"):
            rank = self._context.sorted_column(bound.table, bound.column).rank[rows]
            # a stable sort by (group, ±rank) starts each group with its
            # first least (greatest) value — what min()/max() return
            pick = np.lexsort((rank if name == "min" else -rank, present_group))
            chosen = np.full(len(counts), -1, dtype=np.int64)
            found = present_counts > 0
            chosen[found] = rows[pick[starts[:-1][found]]]
            values = column.values

            def extreme(group):
                position = chosen[group]
                return None if position < 0 else values[position]
            return extreme
        values = column.values[rows].tolist()
        numeric = column.numeric

        def total(group):
            segment = values[starts[group] : starts[group + 1]]
            if not segment:
                return None
            if not numeric:
                for value in segment:
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise SqlError(
                            f"{name.upper()} requires numeric values, "
                            f"got {value!r}"
                        )
            result = sum(segment)
            return result if name == "sum" else result / len(segment)
        return total

    # -- distinct / ordering / projection --------------------------------------

    def _distinct(self, frame: _Frame, size: int) -> np.ndarray:
        """Frame rows holding each distinct output row's first occurrence."""
        codes = np.zeros(size, dtype=np.int64)
        for item in self._plan.items:
            if isinstance(item.expr, ColumnRef):
                bound = self._resolution[item.expr]
                column_codes = self._context.equality_index(
                    bound.table, bound.column
                ).codes[frame[bound.binding]]
                codes = _pair_codes(codes, column_codes)
        _, first = np.unique(codes, return_index=True)
        return np.sort(first)

    def _order(self, rows: np.ndarray, frame: _Frame, names) -> np.ndarray:
        """``rows`` stably sorted by the ORDER BY keys (ranks, ± direction)."""
        keys = []
        for spec in self._plan.order_by:
            if spec.kind == "input":
                bound = spec.column
            else:
                expr = self._plan.items[names.index(spec.output)].expr
                if not isinstance(expr, ColumnRef):
                    continue  # a literal output column: every row ties
                bound = self._resolution[expr]
            rank = self._context.sorted_column(bound.table, bound.column).rank[
                frame[bound.binding][rows]
            ]
            keys.append(-rank if spec.descending else rank)
        if not keys:
            return rows
        limit = self._plan.limit
        if limit is not None and limit < len(rows):
            # only rows whose leading key is within the limit-th smallest can
            # make the cut; the stable sort then runs over those alone
            if limit == 0:
                return rows[:0]
            bound_key = np.partition(keys[0], limit - 1)[limit - 1]
            within = keys[0] <= bound_key
            rows = rows[within]
            keys = [key[within] for key in keys]
        return rows[np.lexsort(keys[::-1])]

    def _project(self, rows: np.ndarray, frame: _Frame) -> Tuple[Tuple[Any, ...], ...]:
        columns = []
        for item in self._plan.items:
            expr = item.expr
            if isinstance(expr, Literal):
                columns.append([expr.value] * len(rows))
            elif isinstance(expr, ColumnRef):
                bound = self._resolution[expr]
                columns.append(
                    self._bound_values(bound, frame[bound.binding][rows]).tolist()
                )
            else:
                raise SqlError(f"cannot evaluate expression: {expr!r}")
        return tuple(zip(*columns))


# -- pure helpers -----------------------------------------------------------

#: A range operator seen from the other operand (``5 < col`` is ``col > 5``).
_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    left_key = sort_key(left)
    right_key = sort_key(right)
    if left_key[1] != right_key[1]:
        return False  # cross-class ranges never match
    if op == "<":
        return left_key < right_key
    if op == "<=":
        return left_key <= right_key
    if op == ">":
        return left_key > right_key
    if op == ">=":
        return left_key >= right_key
    raise SqlError(f"unknown operator {op!r}")  # pragma: no cover


def _pair_codes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dense codes of the (left, right) code pairs (equal pair ⇔ equal code)."""
    if not len(left):
        return left
    span = int(right.max()) + 1
    return np.unique(left * span + right, return_inverse=True)[1].astype(np.int64)


def _first_seen_groups(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(group per row, first row per group)``, groups numbered first-seen."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[by_first] = np.arange(len(first))
    return renumber[inverse.reshape(-1)], first[by_first]


def _distinct_rows(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen: Dict[Tuple, None] = {}
    output: List[Tuple[Any, ...]] = []
    for row in rows:
        key = tuple(group_key(value) for value in row)
        if key in seen:
            continue
        seen[key] = None
        output.append(row)
    return output


def _sort_output(
    output: List[Tuple[Any, ...]], names: Tuple[str, ...], plan: QueryPlan
) -> List[Tuple[Any, ...]]:
    """Aggregate output rows, stably sorted by output columns."""
    ordered = list(output)
    for spec in reversed(plan.order_by):
        index = names.index(spec.output)
        ordered.sort(key=lambda row: sort_key(row[index]), reverse=spec.descending)
    return ordered
