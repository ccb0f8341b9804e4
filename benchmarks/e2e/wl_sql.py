"""``sql_mixed``: the SQL frontend in process, with ``serve/`` bypassed.

One thread runs a seeded mix of six query classes through
``QueryEngine.sql`` against a 30 000-entity synthetic snapshot (built the way
``bench_sql.py`` builds it) plus a small seeded ``SqlMetadata`` so both sides
of every join have rows.  Every query carries its own literals, so lexing,
parsing and planning run every time.
"""

from __future__ import annotations

import random
import time
from statistics import median

from repro.entity.consolidation import ConsolidatedEntity
from repro.query.engine import QueryEngine
from repro.sql import SqlMetadata

from harness import Measurement, digest
from workload import Oracle, Workload

YEARS = 70
GENRES = ("drama", "comedy", "musical", "revue", "opera", None)
ATTRIBUTES = ("name", "year", "rating", "genre")
N_SOURCES = 7
#: class → queries per block of ten: every block carries the exact mix (in a
#: seeded order), so a run cut anywhere has done the same share of each class
MIX = (
    ("point", 4),
    ("range", 2),
    ("residual", 1),
    ("join", 1),
    ("group", 1),
    ("scan", 1),
)
#: queries per class whose rows the oracle compares with the scan twin
TWINS_PER_CLASS = 3
#: leading queries run in set-up (three blocks: every spelling of every class)
WARMUP_QUERIES = 30


def _entity_rows(rng, n_entities):
    """(entity_id, source, attributes) per entity, as bench_sql.py shapes them."""
    rows = []
    for i in range(n_entities):
        rows.append(
            (
                f"e{i}",
                f"s{i % N_SOURCES}",
                {
                    "name": f"show {i % (n_entities // 3 or 1)}",
                    "year": 1920 + rng.randrange(YEARS)
                    if rng.random() > 0.05
                    else None,
                    "rating": round(rng.uniform(1.0, 9.9), 1),
                    "genre": rng.choice(GENRES),
                },
            )
        )
    return rows


def _metadata() -> SqlMetadata:
    sources = tuple(
        {
            "source_id": f"s{i}",
            "kind": "structured" if i % 2 else "unstructured",
            "description": f"synthetic source {i}",
            "collection": "curated",
            "records_loaded": 1000 + i,
            "attribute_count": len(ATTRIBUTES),
            "sequence": i,
        }
        for i in range(N_SOURCES)
    )
    mappings = tuple(
        {
            "source_id": f"s{i}",
            "source_attribute": attribute.upper(),
            "global_attribute": attribute,
            "decision": "auto_accept",
            "score": 0.9,
            "expert_consulted": False,
            "is_mapped": True,
        }
        for i in range(N_SOURCES)
        for attribute in ATTRIBUTES
    )
    global_attributes = tuple(
        {
            "name": attribute,
            "inferred_type": "string",
            "source_of_origin": "s0",
            "alias_count": 1,
            "non_null_count": 10,
            "null_count": 0,
            "distinct_count": 5,
        }
        for attribute in ATTRIBUTES
    )
    return SqlMetadata(
        sources=sources, mappings=mappings, global_attributes=global_attributes
    )


def _query(rng, query_class, n_names, variant):
    """(shape with a ``{where}`` hole, condition) for one query of a class.

    ``variant`` alternates a class's two spellings so their shares are exact.
    """
    year = 1920 + rng.randrange(YEARS)
    limit = 20 + rng.randrange(20)
    rating = round(rng.uniform(5.0, 8.0), 1)
    if query_class == "point":
        if variant % 2:
            condition = f"year = {year}"
        else:
            condition = f"name = 'show {rng.randrange(n_names)}'"
        shape = (
            "SELECT name, rating FROM entities WHERE {where} "
            f"ORDER BY rating DESC LIMIT {limit}"
        )
    elif query_class == "range":
        low = 1920 + rng.randrange(YEARS - 5)
        condition = f"year >= {low} AND year < {low + 3}"
        shape = f"SELECT name FROM entities WHERE {{where}} ORDER BY name LIMIT {limit}"
    elif query_class == "residual":
        if variant % 2:
            condition = f"year IN ({year}, {year + 1})"
        else:
            condition = f"year IS NULL AND rating > {rating}"
        shape = f"SELECT name FROM entities WHERE {{where}} ORDER BY name LIMIT {limit}"
    elif query_class == "join":
        if variant % 3:
            condition = f"e.year = {year}"
            shape = (
                "SELECT e.name, c.record_id FROM entities e JOIN clusters c "
                "ON e.entity_id = c.entity_id WHERE {where} "
                f"ORDER BY e.name LIMIT {limit}"
            )
        else:
            condition = f"m.global_attribute = '{rng.choice(ATTRIBUTES)}'"
            shape = (
                "SELECT m.source_attribute, s.kind FROM mappings m JOIN sources s "
                "ON m.source_id = s.source_id WHERE {where} "
                f"ORDER BY m.source_id LIMIT {limit}"
            )
    elif query_class == "group":
        condition = f"rating > {rating}"
        shape = (
            "SELECT genre, COUNT(*), AVG(rating) FROM entities WHERE {where} "
            "GROUP BY genre ORDER BY genre"
        )
    else:  # scan: OR FALSE keeps the predicate out of the pushdown classifier
        condition = f"(rating > {rating}) OR FALSE"
        shape = (
            "SELECT name, rating FROM entities WHERE {where} "
            f"ORDER BY rating DESC LIMIT {limit}"
        )
    return shape, condition


class SqlMixed(Workload):
    name = "sql_mixed"
    sizes = {
        "full": {"entities": 30_000, "queries": 4_000},
        "toy": {"entities": 1_500, "queries": 600},
    }
    min_queries = 200

    def make_inputs(self, seed, size):
        rng = random.Random(seed)
        rows = _entity_rows(rng, size["entities"])
        block = [name for name, count in MIX for _ in range(count)]
        n_names = size["entities"] // 3 or 1
        queries, issued = [], {}
        while len(queries) < size["queries"]:
            rng.shuffle(block)
            for query_class in block:
                variant = issued[query_class] = issued.get(query_class, 0) + 1
                queries.append(
                    (query_class,) + _query(rng, query_class, n_names, variant)
                )
        return {
            "rows": rows,
            "queries": queries,
            "digest": digest(rows, queries),
        }

    def setup(self, inputs):
        entities = [
            ConsolidatedEntity(
                entity_id=entity_id,
                member_record_ids=[f"{entity_id}-r0"],
                source_ids=[source],
                attributes=attributes,
            )
            for entity_id, source, attributes in inputs["rows"]
        ]
        state = {"engine": QueryEngine(entities, watermark=1), "metadata": _metadata()}
        # the warm-up blocks build the memoised SqlContext, its virtual tables
        # and every lazy per-column index before anything is timed
        begin = time.perf_counter()
        for _class, shape, condition in inputs["queries"][:WARMUP_QUERIES]:
            self._sql(state, shape.format(where=condition))
        state["context_build_s"] = time.perf_counter() - begin
        return state

    @staticmethod
    def _sql(state, text):
        return state["engine"].sql(text, metadata=state["metadata"])

    def run(self, state, inputs, seconds, tracer):
        latencies, classes, kept = [], [], {}
        t0 = time.perf_counter()
        timed = inputs["queries"][WARMUP_QUERIES:]
        for op_id, (query_class, shape, condition) in enumerate(timed):
            enough = len(latencies) >= self.min_queries
            if enough and time.perf_counter() - t0 >= seconds:
                break
            text = shape.format(where=condition)
            begin = time.perf_counter()
            with tracer.span("sql", "sql.query", op_id=op_id):
                result = self._sql(state, text)
            latencies.append((time.perf_counter() - begin) * 1e3)
            classes.append(query_class)
            twins = kept.setdefault(query_class, [])
            if len(twins) < TWINS_PER_CLASS:
                twins.append((shape, condition, result.columns, result.rows))
        t1 = time.perf_counter()
        layer = {"sql.context_build_s": state["context_build_s"]}
        for query_class, _ in MIX:
            samples = [ms for ms, c in zip(latencies, classes) if c == query_class]
            if samples:
                layer[f"sql.{query_class}_p50_ms"] = median(samples)
        return Measurement(
            throughput=len(latencies) / (t1 - t0),
            latencies_ms=latencies,
            attempted=len(latencies),
            failed=0,
            t0=t0,
            t1=t1,
            raw={"kept": kept, "layer": layer},
        )

    def check(self, state, inputs, measurement):
        checked = wrong = 0
        for twins in measurement.raw["kept"].values():
            for shape, condition, columns, rows in twins:
                twin = self._sql(state, shape.format(where=f"({condition}) OR FALSE"))
                checked += 1
                wrong += (twin.columns, twin.rows) != (columns, rows)
        return [Oracle("rows_equal_scan_twin", checked, wrong)]

    def corrupt(self, measurement):
        twins = next(iter(measurement.raw["kept"].values()))
        shape, condition, columns, rows = twins[0]
        twins[0] = (shape, condition, columns, rows[1:])

    def teardown(self, state):
        pass
