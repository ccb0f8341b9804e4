"""Predicate-pushdown benchmark for the SQL frontend.

The same equality and range probes run twice against one pinned entity
snapshot: once as written (the planner pushes the WHERE conjunct into the
HashIndex / sorted-column machinery) and once defeated (``... OR FALSE``
keeps the predicate out of the pushdown classifier, forcing a full scan
with a residual filter).  Both spellings are asserted row-identical before
any timing is reported, and the indexed side must show ``pushdowns > 0``
and fewer scanned rows — the speedup is never bought with a wrong answer
or a silently un-pushed plan.

Reported: p50/mean per-query latency for the indexed and scan paths, the
speedup factor, and the obs-hub SQL counters accumulated over the run.
Results land in ``benchmarks/results/sql_pushdown.{txt,json}``; sizes
honour ``BENCH_SCALE`` (non-1.0 scales write ``_smoke`` files).

Script mode (the CI sql-perf-smoke gate)::

    BENCH_SCALE=0.25 PYTHONPATH=src python benchmarks/bench_sql.py \\
        --require-pushdown-win --min-speedup 1.0
"""

import argparse
import json
import random
import time

from conftest import scaled, write_json, write_report

from repro.entity.consolidation import ConsolidatedEntity
from repro.obs import TelemetryHub
from repro.query.engine import QueryEngine

#: Entities in the benchmarked snapshot.
ENTITIES = scaled(30_000, floor=3_000)
#: Distinct probe values timed per path (each is one query execution).
PROBES = scaled(60, floor=12)
#: Years span — every equality probe selects ~ENTITIES/YEARS rows.
YEARS = 70
GENRES = ("drama", "comedy", "musical", "revue", "opera", None)


def _build_engine():
    rng = random.Random(20260808)
    entities = []
    for i in range(ENTITIES):
        attributes = {
            "name": f"show {i % (ENTITIES // 3 or 1)}",
            "year": 1920 + rng.randrange(YEARS) if rng.random() > 0.05 else None,
            "rating": round(rng.uniform(1.0, 9.9), 1),
            "genre": rng.choice(GENRES),
        }
        entities.append(
            ConsolidatedEntity(
                entity_id=f"e{i}",
                member_record_ids=[f"e{i}-r0"],
                source_ids=[f"s{i % 7}"],
                attributes=attributes,
            )
        )
    return QueryEngine(entities, watermark=1)


def _probe_queries():
    """(label, indexed spelling, scan-twin spelling) per probe value.

    ``OR FALSE`` never changes which rows match, but it defeats conjunct
    classification, so the planner cannot push the comparison down — the
    twin is the exact same query answered by the full-scan path.
    """
    rng = random.Random(7)
    probes = []
    for _ in range(PROBES):
        year = 1920 + rng.randrange(YEARS)
        probes.append((
            "eq",
            f"year = {year}",
            "SELECT name, rating FROM entities "
            "WHERE {where} ORDER BY rating DESC LIMIT 25",
        ))
        low = 1920 + rng.randrange(YEARS - 5)
        probes.append((
            "range",
            f"year >= {low} AND year < {low + 3}",
            "SELECT name FROM entities WHERE {where} ORDER BY name LIMIT 25",
        ))
    return [
        (label, shape.format(where=cond), shape.format(where=f"({cond}) OR FALSE"))
        for label, cond, shape in probes
    ]


def _canonical_rows(result):
    return json.dumps(
        [list(row) for row in result.rows], separators=(",", ":"), default=str
    )


def _run_probes(engine, hub):
    """Time every probe on both paths; equivalence is asserted per probe."""
    probes = _probe_queries()
    # warm the memoised SqlContext and its lazy per-column structures (the
    # equality index and column order of every column the probes filter or
    # sort on) so no one-off build is billed to the first probe of a path
    engine.sql(
        "SELECT name, rating FROM entities WHERE year = 1920 "
        "ORDER BY rating DESC LIMIT 1",
        hub=hub,
    )
    engine.sql(
        "SELECT name FROM entities WHERE year >= 1920 ORDER BY name LIMIT 1",
        hub=hub,
    )

    indexed_s, scan_s = [], []
    indexed_scanned = scan_scanned = 0
    pushed_queries = 0
    for _label, indexed_sql, scan_sql in probes:
        begin = time.perf_counter()
        fast = engine.sql(indexed_sql, hub=hub)
        indexed_s.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        slow = engine.sql(scan_sql, hub=hub)
        scan_s.append(time.perf_counter() - begin)
        assert fast.columns == slow.columns, indexed_sql
        assert _canonical_rows(fast) == _canonical_rows(slow), indexed_sql
        assert fast.stats.pushdowns > 0, indexed_sql
        assert slow.stats.pushdowns == 0, scan_sql
        assert fast.stats.rows_scanned < slow.stats.rows_scanned, indexed_sql
        indexed_scanned += fast.stats.rows_scanned
        scan_scanned += slow.stats.rows_scanned
        pushed_queries += 1
    return {
        "indexed_seconds": indexed_s,
        "scan_seconds": scan_s,
        "indexed_rows_scanned": indexed_scanned,
        "scan_rows_scanned": scan_scanned,
        "pushed_queries": pushed_queries,
    }


def _p50(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _summarise(raw, hub):
    indexed_p50 = _p50(raw["indexed_seconds"])
    scan_p50 = _p50(raw["scan_seconds"])
    counters = {
        name: hub.registry.counter(name).value
        for name in (
            "sql_queries_total",
            "sql_pushdown_conjuncts_total",
            "sql_rows_scanned_total",
            "sql_rows_pruned_total",
        )
    }
    return {
        "entities": ENTITIES,
        "probes_per_path": len(raw["indexed_seconds"]),
        "indexed_p50_ms": indexed_p50 * 1e3,
        "indexed_mean_ms": 1e3
        * sum(raw["indexed_seconds"])
        / len(raw["indexed_seconds"]),
        "scan_p50_ms": scan_p50 * 1e3,
        "scan_mean_ms": 1e3 * sum(raw["scan_seconds"]) / len(raw["scan_seconds"]),
        "speedup_p50": scan_p50 / indexed_p50 if indexed_p50 > 0 else float("inf"),
        "indexed_rows_scanned": raw["indexed_rows_scanned"],
        "scan_rows_scanned": raw["scan_rows_scanned"],
        "hub_counters": counters,
    }


def _render(stats):
    counters = stats["hub_counters"]
    return [
        "SQL frontend — indexed pushdown vs forced full scan "
        f"({stats['entities']} entities, {stats['probes_per_path']} probes "
        "per path, rows asserted identical per probe)",
        f"{'path':>10}{'p50_ms':>10}{'mean_ms':>10}{'rows_scanned':>14}",
        f"{'indexed':>10}{stats['indexed_p50_ms']:>10.3f}"
        f"{stats['indexed_mean_ms']:>10.3f}{stats['indexed_rows_scanned']:>14}",
        f"{'scan':>10}{stats['scan_p50_ms']:>10.3f}"
        f"{stats['scan_mean_ms']:>10.3f}{stats['scan_rows_scanned']:>14}",
        f"speedup at p50: {stats['speedup_p50']:.2f}x",
        f"hub counters: queries={counters['sql_queries_total']:.0f} "
        f"pushdowns={counters['sql_pushdown_conjuncts_total']:.0f} "
        f"scanned={counters['sql_rows_scanned_total']:.0f} "
        f"pruned={counters['sql_rows_pruned_total']:.0f}",
    ]


def _run():
    hub = TelemetryHub(tracing=False)
    engine = _build_engine()
    raw = _run_probes(engine, hub)
    return _summarise(raw, hub)


def test_sql_pushdown_beats_full_scan(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_report("sql_pushdown", _render(stats))
    write_json("sql_pushdown", stats)
    # every probe's indexed plan actually pushed its conjunct down and the
    # hub saw it; the speed gate itself belongs to script mode (the CI
    # sql-perf-smoke job) — timing assertions don't belong in bench-smoke
    assert stats["hub_counters"]["sql_pushdown_conjuncts_total"] > 0
    assert stats["indexed_rows_scanned"] < stats["scan_rows_scanned"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require-pushdown-win",
        action="store_true",
        help="fail (exit 1) if indexed probes are not faster than their "
        "full-scan twins — the CI sql-perf-smoke gate",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="with --require-pushdown-win: required scan-p50 / indexed-p50 "
        "factor (default 1.0: merely not slower)",
    )
    args = parser.parse_args(argv)

    stats = _run()
    lines = _render(stats)
    for line in lines:
        print(line)
    write_report("sql_pushdown", lines)
    write_json("sql_pushdown", stats)
    if stats["hub_counters"]["sql_pushdown_conjuncts_total"] <= 0:
        print("FAIL: no conjunct was pushed down — the gate measured nothing")
        return 1
    if args.require_pushdown_win and stats["speedup_p50"] < args.min_speedup:
        print(
            f"FAIL: indexed p50 {stats['indexed_p50_ms']:.3f}ms is not "
            f"{args.min_speedup:.2f}x faster than full-scan p50 "
            f"{stats['scan_p50_ms']:.3f}ms"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
