"""Randomized SQL corpus checked bit-identically against a Python oracle.

Every query is generated as a structured *spec*, rendered to SQL text for
the engine, and independently evaluated by a plain-Python oracle that
reimplements the documented semantics (two-valued NULL logic, the shared
total order, first-seen grouping, stable multi-key sorts) without touching
any ``repro.sql`` machinery.  Engine rows must match oracle rows byte-for-
byte under canonical JSON.

Two worlds run the same generators: the base 60-entity world, and a wide
600-entity world whose extra columns hold the executor's traps — one
column mixing ``True``/``1``/``1.0``/``"1"``, NaN, an all-NULL column, an
attribute missing on some entities, and ints beyond 2**53.
"""

import json
import math
import random

import pytest

from repro.entity.consolidation import ConsolidatedEntity
from repro.query.snapshot import EntitySnapshot
from repro.sql import SqlContext, run_sql

SEED = 20260808
N_ENTITIES = 60
N_WIDE_ENTITIES = 600

GENRES = ("drama", "comedy", "scifi", "news", None)


# -- dataset ----------------------------------------------------------------


def _build_dataset(rng, n_entities=N_ENTITIES, extra=None):
    """Plain row dicts (the oracle's world) + the matching entities.

    ``extra(rng)`` (the wide world) returns further attributes per entity;
    one it leaves out is NULL in the oracle row, absent on the entity.
    """
    entity_rows = []
    cluster_rows = []
    entities = []
    extra_names = () if extra is None else _WIDE_COLUMNS
    for i in range(n_entities):
        members = 1 + rng.randrange(3)
        sources = sorted({f"s{rng.randrange(4)}" for _ in range(members)})
        attributes = {
            "name": f"show {rng.randrange(40):03d}",
            "year": None if rng.random() < 0.15 else 1980 + rng.randrange(45),
            "rating": None if rng.random() < 0.2 else round(rng.uniform(1, 10), 1),
            "genre": rng.choice(GENRES),
            "code": (
                rng.randrange(100)
                if rng.random() < 0.5
                else f"c{rng.randrange(100)}"
            ),
        }
        if extra is not None:
            attributes.update(extra(rng))
        entity_id = f"e{i:03d}"
        member_ids = [f"{entity_id}-r{j}" for j in range(members)]
        entities.append(
            ConsolidatedEntity(
                entity_id=entity_id,
                member_record_ids=member_ids,
                source_ids=list(sources),
                attributes=dict(attributes),
            )
        )
        row = {
            "entity_id": entity_id,
            "size": members,
            "source_count": len(sources),
            "sources": ",".join(sources),
        }
        row.update(attributes)
        for name in extra_names:
            row.setdefault(name, None)
        entity_rows.append(row)
        for j, record_id in enumerate(member_ids):
            cluster_rows.append(
                {
                    "entity_id": entity_id,
                    "record_id": record_id,
                    "member_index": j,
                    "cluster_size": members,
                }
            )
    return entity_rows, cluster_rows, entities


#: The wide world's extra columns (see ``_wide_attributes``).
_WIDE_COLUMNS = ("flag", "x", "empty", "sparse", "big")
_FLAGS = (True, 1, 1.0, "1", False, 0, None)
_BIG = (2**53, 2**53 + 1, float(2**53), 2**60, -(2**60), 2**63 + 7, 3)


def _wide_attributes(rng):
    attributes = {
        "flag": rng.choice(_FLAGS),
        "x": rng.choice((float("nan"), 1.0, 2.5, 7.0, 9.0, None, 4, 3.5)),
        "empty": None,
        "big": rng.choice(_BIG),
    }
    if rng.random() < 0.6:  # absent on the other entities
        attributes["sparse"] = rng.randrange(5)
    return attributes


# -- oracle semantics (independent reimplementation) ------------------------


def _sort_key(value):
    if value is None:
        return (1, 0, 0)
    if isinstance(value, bool):
        return (0, 0, int(value))
    if isinstance(value, float) and math.isnan(value):
        return (0, 0, math.inf, 1)  # after every other number
    if isinstance(value, (int, float)):
        return (0, 0, value)
    if isinstance(value, str):
        return (0, 1, value)
    return (0, 2, repr(value))


def _cmp(op, left, right):
    if left is None or right is None:
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    lk, rk = _sort_key(left), _sort_key(right)
    if lk[1] != rk[1]:
        return False
    if op == "<":
        return lk < rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return lk > rk
    return lk >= rk


def _matches(row, conjunct):
    column, op, operand = conjunct
    value = row[column]
    if op == "IS NULL":
        return value is None
    if op == "IS NOT NULL":
        return value is not None
    if op == "IN":
        if value is None:
            return False
        return any(value == candidate for candidate in operand)
    return _cmp(op, value, operand)


def _filter(rows, conjuncts):
    return [
        row
        for row in rows
        if all(_matches(row, conjunct) for conjunct in conjuncts)
    ]


def _order(tuples, names, order_by):
    ordered = list(tuples)
    for name, descending in reversed(order_by):
        index = names.index(name)
        ordered.sort(key=lambda t: _sort_key(t[index]), reverse=descending)
    return ordered


def _distinct(tuples):
    seen = set()
    out = []
    for t in tuples:
        if t in seen:
            continue
        seen.add(t)
        out.append(t)
    return out


def _aggregate_value(func, column, rows):
    if func == "count_star":
        return len(rows)
    values = [row[column] for row in rows if row[column] is not None]
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "min":
        return min(values, key=_sort_key)
    if func == "max":
        return max(values, key=_sort_key)
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    raise AssertionError(func)


# -- spec → SQL text --------------------------------------------------------


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _conjunct_sql(conjunct, qualify=None):
    column, op, operand = conjunct
    name = f"{qualify}.{column}" if qualify else column
    if op in ("IS NULL", "IS NOT NULL"):
        return f"{name} {op}"
    if op == "IN":
        return f"{name} IN ({', '.join(_literal(v) for v in operand)})"
    return f"{name} {op} {_literal(operand)}"


def _order_sql(order_by):
    return ", ".join(
        f"{name} DESC" if descending else name for name, descending in order_by
    )


# -- corpus generation ------------------------------------------------------

_COLUMNS = ("entity_id", "name", "year", "rating", "genre", "code",
            "size", "source_count", "sources")
_OPS = ("=", "=", "!=", "<", "<=", ">", ">=", "IS NULL", "IS NOT NULL", "IN")


def _literal_ok(value):
    """SQL has no NaN or negative-number literal."""
    if value is None:
        return False
    if isinstance(value, float) and math.isnan(value):
        return False
    return not (isinstance(value, (int, float)) and value < 0)


def _random_operand(rng, rows, column):
    pool = [row[column] for row in rows if _literal_ok(row[column])]
    if pool and rng.random() < 0.7:
        return rng.choice(pool)
    return rng.choice(
        [rng.randrange(2050), "zzz", round(rng.uniform(0, 12), 1), "c13"]
    )


def _random_conjunct(rng, rows, columns=_COLUMNS):
    column = rng.choice(columns)
    op = rng.choice(_OPS)
    if op in ("IS NULL", "IS NOT NULL"):
        return (column, op, None)
    if op == "IN":
        values = [
            _random_operand(rng, rows, column)
            for _ in range(1 + rng.randrange(4))
        ]
        if rng.random() < 0.2:
            values.append(None)
        return (column, op, tuple(values))
    return (column, op, _random_operand(rng, rows, column))


def _random_order_by(rng, names):
    count = rng.randrange(min(2, len(names))) + 1
    picked = rng.sample(list(names), count)
    return [(name, rng.random() < 0.5) for name in picked]


def _maybe_limit(rng):
    return rng.randrange(20) if rng.random() < 0.4 else None


# -- the corpus test --------------------------------------------------------


_AGG_POOL = (
    ("count_star", None),
    ("count", "rating"),
    ("count", "year"),
    ("min", "name"),
    ("min", "rating"),
    ("max", "year"),
    ("max", "code"),
    ("sum", "year"),
    ("avg", "rating"),
)


def _world(n_entities, extra, columns, **shapes):
    rng = random.Random(SEED)
    entity_rows, cluster_rows, entities = _build_dataset(rng, n_entities, extra)
    snapshot = EntitySnapshot(entities=tuple(entities), version=1)
    world = {
        "entities": entity_rows,
        "clusters": cluster_rows,
        "context": SqlContext(snapshot),
        "columns": columns,
    }
    world.update(shapes)
    return world


@pytest.fixture(scope="module")
def world():
    return _world(
        N_ENTITIES,
        None,
        _COLUMNS,
        distinct_columns=["name", "year", "genre", "size"],
        group_columns=("genre", "year", "name", "size"),
        agg_pool=_AGG_POOL,
        join_where_columns=("name", "year", "rating", "genre", "code"),
    )


def _check(context, query, expected_names, expected_tuples):
    result = run_sql(context, query)
    assert result.columns == tuple(expected_names), query
    got = json.dumps(
        [list(row) for row in result.rows],
        sort_keys=True, separators=(",", ":"),
    )
    want = json.dumps(
        [list(row) for row in expected_tuples],
        sort_keys=True, separators=(",", ":"),
    )
    assert got == want, query


class TestRandomizedCorpus:
    def test_simple_selects(self, world):
        rng = random.Random(SEED + 1)
        rows = world["entities"]
        for _ in range(60):
            names = rng.sample(world["columns"], 1 + rng.randrange(4))
            conjuncts = [
                _random_conjunct(rng, rows, world["columns"])
                for _ in range(rng.randrange(3))
            ]
            order_by = (
                _random_order_by(rng, names) if rng.random() < 0.7 else []
            )
            limit = _maybe_limit(rng)

            query = f"SELECT {', '.join(names)} FROM entities"
            if conjuncts:
                query += " WHERE " + " AND ".join(
                    _conjunct_sql(c) for c in conjuncts
                )
            if order_by:
                query += " ORDER BY " + _order_sql(order_by)
            if limit is not None:
                query += f" LIMIT {limit}"

            expected = [
                tuple(row[name] for name in names)
                for row in _filter(rows, conjuncts)
            ]
            expected = _order(expected, names, order_by)
            if limit is not None:
                expected = expected[:limit]
            _check(world["context"], query, names, expected)

    def test_distinct_selects(self, world):
        rng = random.Random(SEED + 2)
        rows = world["entities"]
        for _ in range(25):
            names = rng.sample(world["distinct_columns"], 1 + rng.randrange(2))
            conjuncts = [
                _random_conjunct(rng, rows, world["columns"])
                for _ in range(rng.randrange(2))
            ]
            order_by = _random_order_by(rng, names)
            limit = _maybe_limit(rng)

            query = f"SELECT DISTINCT {', '.join(names)} FROM entities"
            if conjuncts:
                query += " WHERE " + " AND ".join(
                    _conjunct_sql(c) for c in conjuncts
                )
            query += " ORDER BY " + _order_sql(order_by)
            if limit is not None:
                query += f" LIMIT {limit}"

            expected = [
                tuple(row[name] for name in names)
                for row in _filter(rows, conjuncts)
            ]
            expected = _distinct(expected)
            expected = _order(expected, names, order_by)
            if limit is not None:
                expected = expected[:limit]
            _check(world["context"], query, names, expected)

    def test_aggregate_selects(self, world):
        rng = random.Random(SEED + 3)
        rows = world["entities"]
        for _ in range(30):
            group = rng.choice(world["group_columns"])
            aggs = rng.sample(list(world["agg_pool"]), 1 + rng.randrange(3))
            conjuncts = [
                _random_conjunct(rng, rows, world["columns"])
                for _ in range(rng.randrange(2))
            ]
            names = [group] + [f"a{i}" for i in range(len(aggs))]
            order_by = _random_order_by(rng, names)
            limit = _maybe_limit(rng)

            rendered_aggs = []
            for i, (func, column) in enumerate(aggs):
                inner = "*" if func == "count_star" else column
                fname = "COUNT" if func == "count_star" else func.upper()
                rendered_aggs.append(f"{fname}({inner}) AS a{i}")
            query = (
                f"SELECT {group}, {', '.join(rendered_aggs)} FROM entities"
            )
            if conjuncts:
                query += " WHERE " + " AND ".join(
                    _conjunct_sql(c) for c in conjuncts
                )
            query += f" GROUP BY {group}"
            query += " ORDER BY " + _order_sql(order_by)
            if limit is not None:
                query += f" LIMIT {limit}"

            filtered = _filter(rows, conjuncts)
            groups = {}
            group_order = []
            for row in filtered:
                key = row[group]
                if key not in groups:
                    groups[key] = []
                    group_order.append(key)
                groups[key].append(row)
            expected = []
            for key in group_order:
                bucket = groups[key]
                values = [key]
                for func, column in aggs:
                    values.append(_aggregate_value(func, column, bucket))
                expected.append(tuple(values))
            expected = _order(expected, names, order_by)
            if limit is not None:
                expected = expected[:limit]
            _check(world["context"], query, names, expected)

    def test_join_selects(self, world):
        rng = random.Random(SEED + 4)
        entity_rows = world["entities"]
        cluster_rows = world["clusters"]
        entity_where_cols = world["join_where_columns"]
        cluster_where_cols = ("cluster_size", "member_index")
        for _ in range(25):
            entity_cols = rng.sample(("name", "year", "genre"),
                                     1 + rng.randrange(2))
            cluster_cols = rng.sample(("record_id", "member_index"),
                                      1 + rng.randrange(2))
            names = [f"n{i}" for i in range(len(entity_cols) + len(cluster_cols))]
            e_conjuncts = [
                _random_conjunct(rng, entity_rows, entity_where_cols)
                for _ in range(rng.randrange(2))
            ]
            c_conjuncts = [
                _random_conjunct(rng, cluster_rows, cluster_where_cols)
                for _ in range(rng.randrange(2))
            ]
            order_by = _random_order_by(rng, names)
            limit = _maybe_limit(rng)

            items = [
                f"e.{col} AS n{i}" for i, col in enumerate(entity_cols)
            ] + [
                f"c.{col} AS n{i + len(entity_cols)}"
                for i, col in enumerate(cluster_cols)
            ]
            query = (
                f"SELECT {', '.join(items)} FROM entities e "
                "JOIN clusters c ON e.entity_id = c.entity_id"
            )
            where_parts = [_conjunct_sql(c, "e") for c in e_conjuncts] + [
                _conjunct_sql(c, "c") for c in c_conjuncts
            ]
            if where_parts:
                query += " WHERE " + " AND ".join(where_parts)
            query += " ORDER BY " + _order_sql(order_by)
            if limit is not None:
                query += f" LIMIT {limit}"

            left = _filter(entity_rows, e_conjuncts)
            right = _filter(cluster_rows, c_conjuncts)
            buckets = {}
            for row in right:
                buckets.setdefault(row["entity_id"], []).append(row)
            expected = []
            for erow in left:
                for crow in buckets.get(erow["entity_id"], ()):
                    expected.append(
                        tuple(erow[col] for col in entity_cols)
                        + tuple(crow[col] for col in cluster_cols)
                    )
            expected = _order(expected, names, order_by)
            if limit is not None:
                expected = expected[:limit]
            _check(world["context"], query, names, expected)


class TestWideCorpus(TestRandomizedCorpus):
    """The same generators over the wide world and its trap columns."""

    @pytest.fixture(scope="class")
    def world(self):
        return _world(
            N_WIDE_ENTITIES,
            _wide_attributes,
            _COLUMNS + _WIDE_COLUMNS,
            distinct_columns=["name", "genre", "flag", "x", "big", "sparse"],
            group_columns=("genre", "flag", "x", "empty", "sparse", "big"),
            agg_pool=_AGG_POOL
            + (
                ("min", "x"),
                ("max", "x"),
                ("avg", "x"),
                ("min", "big"),
                ("max", "big"),
                ("sum", "big"),
                ("min", "flag"),
                ("max", "flag"),
                ("count", "empty"),
                ("sum", "empty"),
                ("count", "sparse"),
                ("sum", "sparse"),
            ),
            join_where_columns=(
                "name", "year", "genre", "flag", "x", "empty", "sparse", "big",
            ),
        )
