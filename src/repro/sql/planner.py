"""The binder + logical planner.

:func:`plan_statement` turns a parsed :class:`~repro.sql.nodes
.SelectStatement` into a :class:`QueryPlan` bound against one
:class:`~repro.sql.catalog.SqlContext`:

* every column reference resolves to a ``(binding, table, column)``
  triple — unqualified names search all FROM/JOIN bindings (ambiguity is
  an error), and names that are not physical columns resolve through the
  integrator's source-attribute → global-attribute mappings;
* the WHERE clause decomposes into top-level AND conjuncts, each
  classified per scan: ``column = literal`` becomes an equality-index
  probe, ``column <op> literal`` (range) becomes a column-order bisect,
  anything else referencing a single binding stays a scan-level residual,
  and multi-binding conjuncts filter after the join;
* the plan renders to stable, indented ``EXPLAIN`` text via
  :meth:`QueryPlan.explain_lines`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SqlError
from .catalog import SqlContext
from .nodes import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    SelectStatement,
    Star,
    render_literal,
)

#: Range operators eligible for column-order pushdown.
RANGE_OPERATORS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class BoundColumn:
    """A column reference resolved against the catalog."""

    binding: str  # query-level table binding (alias or table name)
    table: str  # physical virtual-table name
    column: str  # physical column name

    def render(self) -> str:
        return f"{self.binding}.{self.column}"


@dataclass(frozen=True)
class ScanPlan:
    """One virtual-table access with its pushed-down and residual conjuncts."""

    binding: str
    table: str
    eq: Tuple[Tuple[str, Any], ...] = ()  # (column, literal)
    ranges: Tuple[Tuple[str, str, Any], ...] = ()  # (column, op, literal)
    residual: Tuple[Expr, ...] = ()  # single-binding conjuncts, post-fetch

    def render(self) -> str:
        parts = [f"Scan[{self.table}"]
        if self.binding != self.table:
            parts[0] += f" AS {self.binding}"
        for column, value in self.eq:
            parts.append(f"eq: {column} = {render_literal(value)}")
        for column, op, value in self.ranges:
            parts.append(f"range: {column} {op} {render_literal(value)}")
        for expr in self.residual:
            parts.append(f"residual: {expr.render()}")
        return "; ".join(parts) + "]"


@dataclass(frozen=True)
class JoinStep:
    """One hash join: probe earlier rows against a new scan."""

    scan: ScanPlan
    left: BoundColumn  # column from an earlier binding
    right: BoundColumn  # column of scan.binding

    def render(self) -> str:
        return f"Join[{self.left.render()} = {self.right.render()}]"


@dataclass(frozen=True)
class OutputColumn:
    """One output column: name plus the (unbound) expression producing it."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class OrderSpec:
    """One resolved ORDER BY key.

    ``kind`` is ``"output"`` (sort by the output column called ``output``)
    or ``"input"`` (sort by a bound input column, pre-projection —
    non-aggregate queries only).
    """

    kind: str
    descending: bool
    output: Optional[str] = None
    column: Optional[BoundColumn] = None

    def render(self) -> str:
        target = self.output if self.kind == "output" else self.column.render()
        return f"{target} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class QueryPlan:
    """A fully bound, executable (and explainable) logical plan."""

    statement: SelectStatement
    base: ScanPlan
    joins: Tuple[JoinStep, ...]
    residual: Tuple[Expr, ...]  # post-join conjuncts
    items: Tuple[OutputColumn, ...]
    aggregate: bool
    group_by: Tuple[BoundColumn, ...]
    order_by: Tuple[OrderSpec, ...]
    distinct: bool
    limit: Optional[int]
    explain: bool
    #: ColumnRef (as written) → BoundColumn, for expression evaluation.
    resolution: Tuple[Tuple[ColumnRef, BoundColumn], ...]

    def resolution_map(self) -> Dict[ColumnRef, BoundColumn]:
        return dict(self.resolution)

    @property
    def pushdown_count(self) -> int:
        """How many WHERE conjuncts the plan serves from indexes."""
        total = len(self.base.eq) + len(self.base.ranges)
        for step in self.joins:
            total += len(step.scan.eq) + len(step.scan.ranges)
        return total

    def explain_lines(self) -> List[str]:
        """The stable EXPLAIN rendering: one node per line, two-space indent.

        Operators nest top-down in execution-output order (the last stage
        first), scans deepest; the format is pinned by tests, so treat any
        change as a compatibility break.
        """
        stages: List[str] = []
        if self.limit is not None:
            stages.append(f"Limit[{self.limit}]")
        if self.order_by:
            keys = ", ".join(spec.render() for spec in self.order_by)
            stages.append(f"Sort[{keys}]")
        if self.distinct:
            stages.append("Distinct")
        names = ", ".join(item.name for item in self.items)
        if self.aggregate:
            groups = ", ".join(col.render() for col in self.group_by)
            aggs = ", ".join(
                f"{item.expr.render()} AS {item.name}"
                for item in self.items
                if isinstance(item.expr, FuncCall)
            )
            stages.append(f"Aggregate[groups: {groups or '-'}; aggs: {aggs or '-'}]")
        stages.append(f"Project[{names}]")
        if self.residual:
            rendered = " AND ".join(expr.render() for expr in self.residual)
            stages.append(f"Filter[{rendered}]")
        lines: List[str] = []
        depth = 0
        for stage in stages:
            lines.append("  " * depth + stage)
            depth += 1
        for step in reversed(self.joins):
            lines.append("  " * depth + step.render())
            depth += 1
            lines.append("  " * depth + step.scan.render())
        lines.append("  " * depth + self.base.render())
        return lines


def plan_statement(statement: SelectStatement, context: SqlContext) -> QueryPlan:
    """Bind and plan one statement against the context's catalog."""
    return _Planner(statement, context).plan()


class _Planner:
    def __init__(self, statement: SelectStatement, context: SqlContext):
        self._statement = statement
        self._context = context
        #: binding name -> physical table name, in FROM/JOIN order.
        self._bindings: Dict[str, str] = {}
        self._resolution: Dict[ColumnRef, BoundColumn] = {}

    # -- binding -----------------------------------------------------------

    def _add_binding(self, ref) -> str:
        table_name = ref.name
        if table_name not in self._context.table_names():
            known = ", ".join(self._context.table_names())
            raise SqlError(
                f"unknown table {table_name!r} (known tables: {known})"
            )
        binding = ref.binding
        if binding in self._bindings:
            raise SqlError(f"duplicate table binding {binding!r}")
        self._bindings[binding] = table_name
        return binding

    def _bind_column(self, ref: ColumnRef) -> BoundColumn:
        cached = self._resolution.get(ref)
        if cached is not None:
            return cached
        if ref.table is not None:
            table_name = self._bindings.get(ref.table)
            if table_name is None:
                raise SqlError(f"unknown table binding {ref.table!r}")
            column = self._context.resolve_column(table_name, ref.name)
            if column is None:
                raise SqlError(
                    f"table {table_name!r} has no column {ref.name!r}"
                )
            bound = BoundColumn(binding=ref.table, table=table_name, column=column)
        else:
            matches: List[BoundColumn] = []
            for binding, table_name in self._bindings.items():
                column = self._context.resolve_column(table_name, ref.name)
                if column is not None:
                    matches.append(
                        BoundColumn(
                            binding=binding, table=table_name, column=column
                        )
                    )
            if not matches:
                raise SqlError(f"unknown column {ref.name!r}")
            if len(matches) > 1:
                spellings = ", ".join(m.render() for m in matches)
                raise SqlError(
                    f"ambiguous column {ref.name!r} (candidates: {spellings})"
                )
            bound = matches[0]
        self._resolution[ref] = bound
        return bound

    def _bind_expr(self, expr: Expr) -> None:
        """Walk an expression, binding every column reference in it."""
        if isinstance(expr, ColumnRef):
            self._bind_column(expr)
        elif isinstance(expr, FuncCall):
            if isinstance(expr.arg, ColumnRef):
                self._bind_column(expr.arg)
            elif isinstance(expr.arg, Star) and expr.name != "count":
                raise SqlError(f"{expr.name.upper()}(*) is not supported")
        elif isinstance(expr, (And,)) or hasattr(expr, "terms"):
            for term in expr.terms:  # type: ignore[attr-defined]
                self._bind_expr(term)
        elif hasattr(expr, "expr"):
            self._bind_expr(expr.expr)  # type: ignore[attr-defined]
        elif isinstance(expr, Comparison):
            self._bind_expr(expr.left)
            self._bind_expr(expr.right)

    # -- planning ----------------------------------------------------------

    def plan(self) -> QueryPlan:
        statement = self._statement
        base_binding = self._add_binding(statement.source)
        join_specs: List[Tuple[str, BoundColumn, BoundColumn]] = []
        for join in statement.joins:
            binding = self._add_binding(join.table)
            left = self._bind_column(join.left)
            right = self._bind_column(join.right)
            if right.binding == binding and left.binding != binding:
                pass
            elif left.binding == binding and right.binding != binding:
                left, right = right, left
            else:
                raise SqlError(
                    "JOIN condition must relate the joined table to an "
                    f"earlier one: {join.render()}"
                )
            join_specs.append((binding, left, right))

        # WHERE decomposition: per-binding pushdown vs post-join residual.
        eq: Dict[str, List[Tuple[str, Any]]] = {b: [] for b in self._bindings}
        ranges: Dict[str, List[Tuple[str, str, Any]]] = {
            b: [] for b in self._bindings
        }
        scan_residual: Dict[str, List[Expr]] = {b: [] for b in self._bindings}
        residual: List[Expr] = []
        for conjunct in _conjuncts(statement.where):
            self._bind_expr(conjunct)
            self._classify(conjunct, eq, ranges, scan_residual, residual)

        def scan_for(binding: str) -> ScanPlan:
            return ScanPlan(
                binding=binding,
                table=self._bindings[binding],
                eq=tuple(eq[binding]),
                ranges=tuple(ranges[binding]),
                residual=tuple(scan_residual[binding]),
            )

        base = scan_for(base_binding)
        joins = tuple(
            JoinStep(scan=scan_for(binding), left=left, right=right)
            for binding, left, right in join_specs
        )

        items = self._plan_items()
        aggregate = bool(statement.group_by) or any(
            isinstance(item.expr, FuncCall) for item in items
        )
        group_by = tuple(self._bind_column(col) for col in statement.group_by)
        if aggregate:
            self._check_aggregate_items(items, group_by)
        order_by = tuple(
            self._plan_order_item(item, items, aggregate)
            for item in statement.order_by
        )
        return QueryPlan(
            statement=statement,
            base=base,
            joins=joins,
            residual=tuple(residual),
            items=items,
            aggregate=aggregate,
            group_by=group_by,
            order_by=order_by,
            distinct=statement.distinct,
            limit=statement.limit,
            explain=statement.explain,
            resolution=tuple(
                sorted(self._resolution.items(), key=lambda p: p[0].render())
            ),
        )

    def _classify(self, conjunct, eq, ranges, scan_residual, residual) -> None:
        bindings = _bindings_of(conjunct, self._resolution)
        if len(bindings) != 1:
            residual.append(conjunct)
            return
        binding = next(iter(bindings))
        if isinstance(conjunct, Comparison):
            column, value = _pushable_sides(conjunct, self._resolution)
            if column is not None:
                if conjunct.op == "=":
                    eq[binding].append((column, value))
                    return
                if conjunct.op in RANGE_OPERATORS:
                    op = conjunct.op
                    if not isinstance(conjunct.left, ColumnRef):
                        op = _flip(op)  # literal <op> column
                    ranges[binding].append((column, op, value))
                    return
        scan_residual[binding].append(conjunct)

    def _plan_items(self) -> Tuple[OutputColumn, ...]:
        outputs: List[OutputColumn] = []
        for item in self._statement.items:
            if isinstance(item.expr, Star):
                outputs.extend(self._expand_star(item.expr))
                continue
            self._bind_expr(item.expr)
            if item.alias:
                name = item.alias
            elif isinstance(item.expr, ColumnRef):
                name = item.expr.name
            else:
                name = item.expr.render()
            outputs.append(OutputColumn(name=name, expr=item.expr))
        if not outputs:
            raise SqlError("empty select list")
        # Duplicate output names across bindings get qualified for clarity.
        seen: Dict[str, int] = {}
        for output in outputs:
            seen[output.name] = seen.get(output.name, 0) + 1
        deduped: List[OutputColumn] = []
        for output in outputs:
            name = output.name
            if seen[name] > 1 and isinstance(output.expr, ColumnRef):
                bound = self._resolution[output.expr]
                name = f"{bound.binding}.{bound.column}"
            deduped.append(OutputColumn(name=name, expr=output.expr))
        return tuple(deduped)

    def _expand_star(self, star: Star) -> List[OutputColumn]:
        if star.table is not None:
            if star.table not in self._bindings:
                raise SqlError(f"unknown table binding {star.table!r}")
            bindings = [star.table]
        else:
            bindings = list(self._bindings)
        outputs: List[OutputColumn] = []
        multiple = len(self._bindings) > 1
        for binding in bindings:
            table = self._context.table(self._bindings[binding])
            for column in table.column_names:
                ref = ColumnRef(name=column, table=binding)
                self._bind_column(ref)
                name = f"{binding}.{column}" if multiple else column
                outputs.append(OutputColumn(name=name, expr=ref))
        return outputs

    def _check_aggregate_items(
        self,
        items: Tuple[OutputColumn, ...],
        group_by: Tuple[BoundColumn, ...],
    ) -> None:
        grouped = set(group_by)
        for item in items:
            if isinstance(item.expr, FuncCall):
                continue
            if isinstance(item.expr, Literal):
                continue
            if not isinstance(item.expr, ColumnRef):
                raise SqlError(
                    f"non-aggregate output {item.name!r} in aggregate query"
                )
            if self._resolution[item.expr] not in grouped:
                raise SqlError(
                    f"column {item.expr.render()!r} must appear in GROUP BY"
                )

    def _plan_order_item(
        self,
        item: OrderItem,
        items: Tuple[OutputColumn, ...],
        aggregate: bool,
    ) -> OrderSpec:
        expr = item.expr
        # 1. a name matching an output column sorts the output
        if isinstance(expr, ColumnRef) and expr.table is None:
            for output in items:
                if output.name == expr.name:
                    return OrderSpec(
                        kind="output",
                        descending=item.descending,
                        output=output.name,
                    )
        # 2. an aggregate expression matching an output sorts that output
        if isinstance(expr, FuncCall):
            for output in items:
                if output.expr == expr:
                    return OrderSpec(
                        kind="output",
                        descending=item.descending,
                        output=output.name,
                    )
            raise SqlError(
                f"ORDER BY aggregate {expr.render()!r} must appear in SELECT"
            )
        if not isinstance(expr, ColumnRef):
            raise SqlError("ORDER BY supports columns and aggregates only")
        if aggregate:
            raise SqlError(
                f"ORDER BY {expr.render()!r} must name an output column "
                "in an aggregate query"
            )
        if self._statement.distinct:
            raise SqlError(
                f"ORDER BY {expr.render()!r} must name an output column "
                "when DISTINCT is used"
            )
        return OrderSpec(
            kind="input",
            descending=item.descending,
            column=self._bind_column(expr),
        )


# -- helpers ---------------------------------------------------------------


def _conjuncts(where: Optional[Expr]) -> List[Expr]:
    if where is None:
        return []
    if isinstance(where, And):
        return list(where.terms)
    return [where]


def _bindings_of(expr: Expr, resolution: Dict[ColumnRef, BoundColumn]) -> set:
    """The set of table bindings an expression's columns touch."""
    found: set = set()
    _collect_bindings(expr, resolution, found)
    return found


def _collect_bindings(expr, resolution, found) -> None:
    if isinstance(expr, ColumnRef):
        found.add(resolution[expr].binding)
        return
    if isinstance(expr, Comparison):
        _collect_bindings(expr.left, resolution, found)
        _collect_bindings(expr.right, resolution, found)
        return
    if isinstance(expr, FuncCall):
        if isinstance(expr.arg, ColumnRef):
            found.add(resolution[expr.arg].binding)
        return
    terms = getattr(expr, "terms", None)
    if terms is not None:
        for term in terms:
            _collect_bindings(term, resolution, found)
        return
    inner = getattr(expr, "expr", None)
    if inner is not None:
        _collect_bindings(inner, resolution, found)


def _pushable_sides(
    comparison: Comparison, resolution: Dict[ColumnRef, BoundColumn]
) -> Tuple[Optional[str], Any]:
    """``(physical column, literal)`` when one side is a column, one a literal."""
    left, right = comparison.left, comparison.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return resolution[left].column, right.value
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return resolution[right].column, left.value
    return None, None


def _flip(op: str) -> str:
    """Mirror a range operator across its operands (``5 < col`` → ``col > 5``)."""
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
