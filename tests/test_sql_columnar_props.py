"""Property test: the columnar executor against a row-at-a-time reference.

:class:`_RowExecutor` below is the SQL frontend's earlier evaluator — one
row dict per binding, a recursive ``_eval`` per row per expression — kept
here as the reference.  Its tables are built straight from the snapshot
(not through :class:`~repro.sql.SqlContext`), and its pushed conjuncts are
evaluated per row instead of through indexes.  Hypothesis draws small
entity tables whose attributes mix the executor's traps (``True``/``1``/
``1.0``/``"1"``, NaN, NULL, missing attributes, ints beyond 2**53) and
random ``AND``/``OR``/``NOT``/``IN``/``IS NULL``/range/column-vs-column
predicates, joins (onto clusters, onto themselves, and to or from an
``instances`` metadata table that is often empty) and ``GROUP BY``
queries; both executors must return the
same columns, the same rows (canonical JSON, so ``1``/``1.0``/``True``
stay distinct), the same :class:`~repro.sql.SqlStats` — or the same error.
"""

import json
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.entity.consolidation import ConsolidatedEntity
from repro.errors import SqlError
from repro.query.snapshot import EntitySnapshot
from repro.sql import SqlContext, SqlMetadata, parse_sql, plan_statement
from repro.sql.executor import SqlStats, _Executor
from repro.sql.nodes import (
    And,
    ColumnRef,
    Comparison,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Star,
)
from repro.sql.ordering import group_key, sort_key

ATTRIBUTES = ("a", "b", "c")
COLUMNS = ATTRIBUTES + ("size", "entity_id")
BIG = 2**53 + 1
#: attribute values: every type class, the equality traps, NaN, big ints
VALUES = (
    0, 1, 2, 5, 1.0, 2.5, True, False, "1", "a", "b", None, None,
    float("nan"), BIG, 2**53, float(2**53),
)
#: SQL literals (no NaN, no negatives: the dialect has neither)
LITERALS = (0, 1, 2, 3, 1.0, 2.5, True, False, "1", "a", "b", None, BIG, 2**53)
OPS = ("=", "!=", "<", "<=", ">", ">=")


# -- the reference: row-at-a-time evaluation ---------------------------------


def _reference_tables(snapshot, metadata) -> Dict[str, List[Dict[str, Any]]]:
    entities = snapshot.entities
    names = sorted(
        {
            name
            for entity in entities
            for name in entity.attributes
            if name not in ("entity_id", "size", "source_count", "sources")
        }
    )
    entity_rows = []
    cluster_rows = []
    for entity in entities:
        row = {
            "entity_id": str(entity.entity_id),
            "size": int(entity.size),
            "source_count": len(set(entity.source_ids)),
            "sources": ",".join(sorted(set(entity.source_ids))),
        }
        for name in names:
            row[name] = entity.attributes.get(name)
        entity_rows.append(row)
        for index, record_id in enumerate(entity.member_record_ids):
            cluster_rows.append(
                {
                    "entity_id": str(entity.entity_id),
                    "record_id": str(record_id),
                    "member_index": index,
                    "cluster_size": entity.size,
                }
            )
    return {
        "entities": entity_rows,
        "clusters": cluster_rows,
        "instances": list(metadata.instances),
    }


def _compare(op, left, right):
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    left_key, right_key = sort_key(left), sort_key(right)
    if left_key[1] != right_key[1]:
        return False
    return {
        "<": left_key < right_key,
        "<=": left_key <= right_key,
        ">": left_key > right_key,
        ">=": left_key >= right_key,
    }[op]


class _RowExecutor:
    """The row-dict evaluator the columnar executor replaced."""

    def __init__(self, plan, tables):
        self._plan = plan
        self._tables = tables
        self._resolution = plan.resolution_map()
        self.stats = SqlStats()

    def run(self):
        plan = self._plan
        rows = [{plan.base.binding: row} for row in self._scan(plan.base)]
        for step in plan.joins:
            rows = self._join(rows, step)
        if plan.residual:
            rows = [
                row
                for row in rows
                if all(bool(self._eval(expr, row)) for expr in plan.residual)
            ]
        self.stats.rows_joined = len(rows)
        if plan.aggregate:
            output = self._aggregate(rows)
        else:
            output = [
                tuple(self._eval(item.expr, row) for item in plan.items)
                for row in rows
            ]
        names = tuple(item.name for item in plan.items)
        if plan.distinct:
            output = _distinct_rows(output)
        output = self._sort(output, names, rows if not plan.aggregate else None)
        if plan.limit is not None:
            output = output[: plan.limit]
        return names, tuple(output)

    def _scan(self, scan):
        all_rows = self._tables[scan.table]
        pushed = [(column, "=", value) for column, value in scan.eq]
        pushed += list(scan.ranges)
        self.stats.pushdowns += len(pushed)
        if pushed:
            candidates = [
                row
                for row in all_rows
                if all(_compare(op, row.get(col), value) for col, op, value in pushed)
            ]
            self.stats.rows_pruned += len(all_rows) - len(candidates)
        else:
            candidates = all_rows
        self.stats.rows_scanned += len(candidates)
        return [
            row
            for row in candidates
            if all(
                bool(self._eval(expr, {scan.binding: row})) for expr in scan.residual
            )
        ]

    def _join(self, rows, step):
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for row in self._scan(step.scan):
            value = row.get(step.right.column)
            if value is not None:
                buckets.setdefault(group_key(value), []).append(row)
        joined = []
        for row in rows:
            value = row[step.left.binding].get(step.left.column)
            if value is None:
                continue
            for match in buckets.get(group_key(value), ()):
                merged = dict(row)
                merged[step.scan.binding] = match
                joined.append(merged)
        return joined

    def _eval(self, expr, row):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            bound = self._resolution[expr]
            table_row = row.get(bound.binding)
            return None if table_row is None else table_row.get(bound.column)
        if isinstance(expr, Comparison):
            return _compare(
                expr.op, self._eval(expr.left, row), self._eval(expr.right, row)
            )
        if isinstance(expr, IsNull):
            value = self._eval(expr.expr, row)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, InList):
            value = self._eval(expr.expr, row)
            if value is None:
                return False
            contained = any(value == candidate for candidate in expr.values)
            return (not contained) if expr.negated else contained
        if isinstance(expr, Not):
            return not bool(self._eval(expr.expr, row))
        if isinstance(expr, And):
            return all(bool(self._eval(term, row)) for term in expr.terms)
        if isinstance(expr, Or):
            return any(bool(self._eval(term, row)) for term in expr.terms)
        raise SqlError(f"cannot evaluate expression: {expr!r}")

    def _aggregate(self, rows):
        plan = self._plan
        groups: Dict[Tuple, Dict[str, Any]] = {}
        order: List[Tuple] = []
        for row in rows:
            key = tuple(
                group_key(row[col.binding].get(col.column)) for col in plan.group_by
            )
            bucket = groups.get(key)
            if bucket is None:
                bucket = {"rows": [], "representative": row}
                groups[key] = bucket
                order.append(key)
            bucket["rows"].append(row)
        if not plan.group_by and not order:
            groups[()] = {"rows": [], "representative": None}
            order.append(())
        output = []
        for key in order:
            bucket = groups[key]
            values = []
            for item in plan.items:
                if isinstance(item.expr, FuncCall):
                    values.append(self._aggregate_value(item.expr, bucket["rows"]))
                elif isinstance(item.expr, Literal):
                    values.append(item.expr.value)
                else:
                    representative = bucket["representative"]
                    values.append(
                        None
                        if representative is None
                        else self._eval(item.expr, representative)
                    )
            output.append(tuple(values))
        return output

    def _aggregate_value(self, call, rows):
        name = call.name
        if isinstance(call.arg, Star):
            return len(rows)
        values = [self._eval(call.arg, row) for row in rows]
        values = [value for value in values if value is not None]
        if call.distinct:
            seen: Dict[Any, None] = {}
            for value in values:
                seen.setdefault(group_key(value), None)
            if name == "count":
                return len(seen)
            raise SqlError("DISTINCT is only supported inside COUNT")
        if name == "count":
            return len(values)
        if not values:
            return None
        if name in ("sum", "avg"):
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SqlError(
                        f"{name.upper()} requires numeric values, got {value!r}"
                    )
            total = sum(values)
            return total if name == "sum" else total / len(values)
        if name == "min":
            return min(values, key=sort_key)
        return max(values, key=sort_key)

    def _sort(self, output, names, input_rows):
        plan = self._plan
        if not plan.order_by:
            return output
        if any(spec.kind == "input" for spec in plan.order_by):
            paired = list(zip(output, input_rows))
            for spec in reversed(plan.order_by):
                if spec.kind == "output":
                    index = names.index(spec.output)
                    paired.sort(
                        key=lambda pair: sort_key(pair[0][index]),
                        reverse=spec.descending,
                    )
                else:
                    column = spec.column
                    paired.sort(
                        key=lambda pair: sort_key(
                            pair[1][column.binding].get(column.column)
                        ),
                        reverse=spec.descending,
                    )
            return [pair[0] for pair in paired]
        ordered = list(output)
        for spec in reversed(plan.order_by):
            index = names.index(spec.output)
            ordered.sort(key=lambda row: sort_key(row[index]), reverse=spec.descending)
        return ordered


def _distinct_rows(rows):
    seen: Dict[Tuple, None] = {}
    output = []
    for row in rows:
        key = tuple(group_key(value) for value in row)
        if key not in seen:
            seen[key] = None
            output.append(row)
    return output


# -- strategies --------------------------------------------------------------


@st.composite
def snapshots(draw):
    entities = []
    for i in range(draw(st.integers(0, 40))):
        attributes = {
            name: draw(st.sampled_from(VALUES))
            for name in ATTRIBUTES
            if draw(st.integers(0, 9))  # one in ten entities lacks it
        }
        members = draw(st.integers(1, 3))
        entities.append(
            ConsolidatedEntity(
                entity_id=f"e{i:02d}",
                member_record_ids=[f"e{i:02d}-r{j}" for j in range(members)],
                source_ids=["s1"],
                attributes=attributes,
            )
        )
    # every attribute exists as a column, even if no entity drew it
    entities.append(
        ConsolidatedEntity(
            entity_id="z",
            member_record_ids=["z-r0"],
            source_ids=["s2"],
            attributes={name: None for name in ATTRIBUTES},
        )
    )
    return EntitySnapshot(entities=tuple(entities), version=1)


@st.composite
def instance_metadata(draw, snapshot):
    """``instances`` rows mentioning the snapshot's entities — often none."""
    mentions = st.sampled_from(
        [str(entity.entity_id) for entity in snapshot.entities] + ["nobody", None]
    )
    count = draw(st.one_of(st.just(0), st.integers(1, 12)))
    rows = tuple(
        {
            "instance_id": f"i{i}",
            "document_id": "d1",
            "source_id": "web",
            "entity": draw(mentions),
            "entity_type": "show",
            "char_start": i,
            "char_end": i + 4,
            "text_feed": "feed",
        }
        for i in range(count)
    )
    return SqlMetadata(instances=rows)


def _columns(binding: Optional[str]):
    return st.sampled_from(COLUMNS).map(lambda name: ColumnRef(name, binding))


def _literals():
    return st.sampled_from(LITERALS).map(Literal)


def predicates(bindings=(None,)):
    columns = st.one_of(*(_columns(binding) for binding in bindings))
    operands = st.one_of(columns, _literals())
    leaves = st.one_of(
        st.builds(Comparison, st.sampled_from(OPS), columns, _literals()),
        st.builds(Comparison, st.sampled_from(OPS), _literals(), columns),
        st.builds(Comparison, st.sampled_from(OPS), columns, columns),
        st.builds(Comparison, st.sampled_from(OPS), _literals(), _literals()),
        st.builds(IsNull, operands, st.booleans()),
        st.builds(
            InList,
            columns,
            st.lists(st.sampled_from(LITERALS), min_size=1, max_size=4).map(tuple),
            st.booleans(),
        ),
        columns,
        st.sampled_from((True, False)).map(Literal),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda t: And(tuple(t))),
            st.lists(inner, min_size=2, max_size=3).map(lambda t: Or(tuple(t))),
        ),
        max_leaves=6,
    )


def _where(conjuncts) -> str:
    if not conjuncts:
        return ""
    rendered = []
    for conjunct in conjuncts:
        text = conjunct.render()
        rendered.append(f"({text})" if isinstance(conjunct, Or) else text)
    return " WHERE " + " AND ".join(rendered)


def _order_by(keys) -> str:
    if not keys:
        return ""
    return " ORDER BY " + ", ".join(
        f"{name} DESC" if descending else name for name, descending in keys
    )


def _limit(limit) -> str:
    return "" if limit is None else f" LIMIT {limit}"


order_keys = st.lists(
    st.tuples(st.sampled_from(COLUMNS), st.booleans()), max_size=3, unique_by=lambda k: k[0]
)
limits = st.one_of(st.none(), st.integers(0, 12))


@st.composite
def select_queries(draw):
    names = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    distinct = draw(st.booleans())
    keys = draw(order_keys)
    if distinct:
        keys = [key for key in keys if key[0] in names]
    where = _where(draw(st.lists(predicates(), max_size=3)))
    return (
        f"SELECT {'DISTINCT ' if distinct else ''}{', '.join(names)} FROM entities"
        f"{where}{_order_by(keys)}{_limit(draw(limits))}"
    )


@st.composite
def join_queries(draw):
    kind = draw(st.sampled_from(("clusters", "self", "instances", "from_instances")))
    base = "entities e"
    if kind == "clusters":
        on = "JOIN clusters c ON e.entity_id = c.entity_id"
        items = "e.entity_id AS i, e.a AS x, c.record_id AS y"
        conjuncts = draw(st.lists(predicates(("e",)), max_size=2))
    elif kind == "self":
        left, right = draw(st.sampled_from(ATTRIBUTES)), draw(st.sampled_from(ATTRIBUTES))
        on = f"JOIN entities c ON e.{left} = c.{right}"
        items = "e.entity_id AS i, e.b AS x, c.entity_id AS y"
        conjuncts = draw(st.lists(predicates(("e", "c")), max_size=2))
    else:
        # the metadata table is empty whenever the world drew no instances
        if kind == "instances":
            on = "JOIN instances c ON e.entity_id = c.entity"
        else:
            base = "instances c"
            on = "JOIN entities e ON c.entity = e.entity_id"
        items = "e.entity_id AS i, e.c AS x, c.instance_id AS y"
        conjuncts = draw(st.lists(predicates(("e",)), max_size=2))
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(("i", "x", "y")), st.booleans()),
            max_size=3,
            unique_by=lambda k: k[0],
        )
    )
    return (
        f"SELECT {items} FROM {base} {on}{_where(conjuncts)}"
        f"{_order_by(keys)}{_limit(draw(limits))}"
    )


@st.composite
def group_queries(draw):
    group = draw(st.lists(st.sampled_from(COLUMNS), min_size=0, max_size=2, unique=True))
    aggregates = draw(
        st.lists(
            st.one_of(
                st.just("COUNT(*)"),
                st.builds(
                    lambda f, c: f"{f}({c})",
                    st.sampled_from(("COUNT", "MIN", "MAX", "SUM", "AVG")),
                    st.sampled_from(COLUMNS),
                ),
                st.builds(lambda c: f"COUNT(DISTINCT {c})", st.sampled_from(COLUMNS)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    items = list(group) + [f"{agg} AS g{i}" for i, agg in enumerate(aggregates)]
    names = list(group) + [f"g{i}" for i in range(len(aggregates))]
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.booleans()),
            max_size=2,
            unique_by=lambda k: k[0],
        )
    )
    group_by = f" GROUP BY {', '.join(group)}" if group else ""
    where = _where(draw(st.lists(predicates(), max_size=2)))
    return (
        f"SELECT {', '.join(items)} FROM entities{where}{group_by}"
        f"{_order_by(keys)}{_limit(draw(limits))}"
    )


# -- the property ----------------------------------------------------------


def _outcome(run):
    try:
        columns, rows, stats = run()
    except SqlError as exc:
        return ("error", str(exc))
    return (
        columns,
        json.dumps([list(row) for row in rows], separators=(",", ":")),
        stats,
    )


def _both(snapshot, query, metadata=SqlMetadata()):
    context = SqlContext(snapshot, metadata)
    plan = plan_statement(parse_sql(query), context)

    def columnar():
        executor = _Executor(plan, context)
        columns, rows = executor.run()
        return columns, rows, executor.stats.as_dict()

    def reference():
        executor = _RowExecutor(plan, _reference_tables(snapshot, metadata))
        columns, rows = executor.run()
        return columns, rows, executor.stats.as_dict()

    return _outcome(columnar), _outcome(reference)


PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestColumnarMatchesRowReference:
    @PROPERTY
    @given(snapshot=snapshots(), query=select_queries())
    def test_selects(self, snapshot, query):
        got, want = _both(snapshot, query)
        assert got == want, query

    @PROPERTY
    @given(data=st.data(), snapshot=snapshots(), query=join_queries())
    def test_joins(self, data, snapshot, query):
        metadata = data.draw(instance_metadata(snapshot))
        got, want = _both(snapshot, query, metadata)
        assert got == want, query

    @PROPERTY
    @given(snapshot=snapshots(), query=group_queries())
    def test_group_by(self, snapshot, query):
        got, want = _both(snapshot, query)
        assert got == want, query


@pytest.mark.parametrize(
    "query",
    [
        "SELECT a FROM entities WHERE a = 1 ORDER BY entity_id",
        "SELECT a, COUNT(*) FROM entities GROUP BY a ORDER BY a",
        "SELECT e.entity_id, c.entity_id FROM entities e JOIN entities c "
        "ON e.a = c.b ORDER BY e.entity_id",
        "SELECT DISTINCT a FROM entities ORDER BY a DESC",
        "SELECT b FROM entities WHERE b > 2 OR b IS NULL ORDER BY b LIMIT 4",
    ],
)
def test_equality_traps_fixed_table(query):
    """``True``/``1``/``1.0``/``"1"``, NaN and big ints side by side."""
    values = (True, 1, 1.0, "1", float("nan"), BIG, float(2**53), None, 2**53)
    entities = tuple(
        ConsolidatedEntity(
            entity_id=f"t{i}",
            member_record_ids=[f"t{i}-r0"],
            source_ids=["s1"],
            attributes={"a": value, "b": values[(i * 5) % len(values)]},
        )
        for i, value in enumerate(values * 2)
    )
    got, want = _both(EntitySnapshot(entities=entities, version=1), query)
    assert got == want
