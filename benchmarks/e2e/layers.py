"""Where the traced run draws the repo's layer boundaries.

``SHIMS`` lists the public entry points a traced run wraps (layer = the
module the entry point lives in, except the ``core`` facade whose glue is
charged to the layer it fronts).  ``per_layer_metrics`` turns the recorded
spans and counts into the per-layer metrics named in ``BENCHMARK.json``: a
metric ``<span name>_s`` is the total (inclusive) duration of the spans with
that name inside the timed region, ``<layer>.self_share`` is the layer's self
time over all attributed self time, and a layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import repro.entity.consolidation as consolidation_module
import repro.serve.ops as serve_ops_module
import repro.sql as sql_package
import repro.sql.executor as sql_executor_module
import repro.stream.delta_curation as delta_curation_module
from repro.cleaning.rules import RuleEngine
from repro.cleaning.transforms import TransformEngine
from repro.entity.consolidation import EntityConsolidator
from repro.entity.kernel import ScoringKernel
from repro.exec.executor import ShardedExecutor
from repro.exec.pool import PersistentWorkerPool
from repro.ingest.flatten import Flattener
from repro.ml.linear import LogisticRegression
from repro.query.engine import QueryEngine
from repro.schema.integrator import SchemaIntegrator
from repro.serve.views import FusionIndex, ServeView
from repro.sql.catalog import SqlContext
from repro.storage.document_store import Collection
from repro.storage.persistence import ChangelogWriter
from repro.stream.delta_curation import DeltaCurator
from repro.stream.delta_schema import DeltaIntegrator
from repro.stream.engine import StreamingTamer
from repro.stream.operators import DeltaOperator
from repro.text.parser import DomainParser

from harness import (
    Measurement,
    Tracer,
    covered_seconds,
    inclusive_seconds,
    layer_self_seconds,
)

LAYERS = (
    "ingest",
    "text",
    "schema",
    "storage",
    "entity",
    "ml",
    "exec",
    "stream",
    "query",
    "sql",
    "serve",
)


# -- count hooks: public arguments, return values and properties only --------


def _after_clean(tracer, args, _result):
    tracer.count("ingest.records")


def _after_parse(tracer, args, parsed):
    tracer.count("text.docs")
    tracer.count("text.fragments", len(parsed.fragments))
    tracer.count("text.mentions", len(parsed.mentions))


def _after_integrate(tracer, args, report):
    tracer.count("schema.sources")
    tracer.count("schema.attrs_mapped", sum(m.is_mapped for m in report.mappings))
    tracer.count(
        "schema.escalations", sum(m.expert_consulted for m in report.mappings)
    )


def _after_write(tracer, args, _result):
    tracer.count("storage.docs_inserted")


def _after_changelog_append(tracer, args, _result):
    tracer.count("storage.changelog_events")


def _after_consolidate(tracer, args, _entities):
    report = args[0].last_report
    tracer.count("entity.candidate_pairs", report.candidate_pairs)
    tracer.count("entity.pruned_pairs", report.pruned_pairs)
    tracer.count("entity.matched_pairs", report.matched_pairs)


def _after_featurize(tracer, args, features):
    kernel = args[0]
    tracer.count("entity.pairs_featurized", len(features))
    # memo counters are cumulative per kernel; streaming kernels live on
    hits, misses = tracer.seen.get(id(kernel), (0, 0))
    tracer.count("entity.memo_hits", kernel.memo_hits - hits)
    tracer.count("entity.memo_misses", kernel.memo_misses - misses)
    tracer.seen[id(kernel)] = (kernel.memo_hits, kernel.memo_misses)


def _after_fanout(tracer, args, _results):
    timings = [t.total_seconds for t in args[0].last_shard_timings]
    if len(timings) > 1 and sum(timings) > 0:
        tracer.count("exec.skew_sum", max(timings) / (sum(timings) / len(timings)))
        tracer.count("exec.skewed_fanouts")


def _after_apply_batch(tracer, args, _reports):
    batch = args[1]
    tracer.count("stream.batches")
    tracer.count("stream.raw_events", batch.raw_event_count)
    tracer.count("stream.coalesced_events", len(batch))


def _after_entities(tracer, args, _entities):
    stats = args[0].last_stats
    if stats is not None and tracer.seen.get("curator_stats") is not stats:
        tracer.seen["curator_stats"] = stats
        tracer.count("stream.pairs_featurized", stats.pairs_featurized)
        tracer.count("stream.merges_reused", stats.merges_reused)
        tracer.count("stream.merges_computed", stats.merges_computed)


def _after_schema_refresh(tracer, args, _none):
    stats = args[0].last_stats
    if stats is not None and tracer.seen.get("schema_stats") is not stats:
        tracer.seen["schema_stats"] = stats
        tracer.count("stream.schema_pairs_scored", stats.pairs_scored)
        tracer.count("stream.schema_pairs_reused", stats.pairs_reused)


def _after_run_sql(tracer, args, result):
    tracer.count("sql.queries")
    tracer.count("sql.pushed_queries", result.stats.pushdowns > 0)
    tracer.count("sql.rows_scanned", result.stats.rows_scanned)
    tracer.count("sql.rows_joined", result.stats.rows_joined)
    tracer.count("sql.rows_returned", len(result.rows))


def _operator_span_name(operator) -> str:
    return f"stream.{operator.name}_op"


#: (owner, attribute, layer, span name, count hook)
SHIMS = [
    (RuleEngine, "clean_record", "ingest", "ingest.clean", _after_clean),
    (TransformEngine, "transform_record", "ingest", "ingest.clean", None),
    (Flattener, "flatten", "ingest", "ingest.flatten", None),
    (DomainParser, "parse", "text", "text.parse", _after_parse),
    (
        SchemaIntegrator,
        "integrate_source",
        "schema",
        "schema.integrate",
        _after_integrate,
    ),
    (SchemaIntegrator, "integrate_profiles", "schema", "schema.cascade", None),
    (Collection, "insert", "storage", "storage.insert", _after_write),
    (Collection, "update", "storage", "storage.insert", _after_write),
    (Collection, "delete", "storage", "storage.insert", _after_write),
    (
        ChangelogWriter,
        "append",
        "storage",
        "storage.changelog_append",
        _after_changelog_append,
    ),
    (
        EntityConsolidator,
        "consolidate",
        "entity",
        "entity.consolidate",
        _after_consolidate,
    ),
    (EntityConsolidator, "candidate_pairs", "entity", "entity.block", None),
    (
        ScoringKernel,
        "features_for_pairs",
        "entity",
        "entity.featurize",
        _after_featurize,
    ),
    (consolidation_module, "cluster_pairs", "entity", "entity.cluster", None),
    (consolidation_module, "merge_clusters", "entity", "entity.merge", None),
    (delta_curation_module, "cluster_pairs", "entity", "entity.cluster", None),
    (delta_curation_module, "merge_clusters", "entity", "entity.merge", None),
    (LogisticRegression, "predict_proba", "ml", "ml.predict", None),
    (ShardedExecutor, "map_shards", "exec", "exec.fanout", _after_fanout),
    (PersistentWorkerPool, "sync_records", "exec", "exec.sync", None),
    (StreamingTamer, "apply_delta", "stream", "stream.apply", None),
    (StreamingTamer, "apply_batch", "stream", "stream.batch", _after_apply_batch),
    (DeltaOperator, "apply", "stream", _operator_span_name, None),
    (DeltaCurator, "entities", "stream", "stream.entity_op", _after_entities),
    (DeltaIntegrator, "refresh", "stream", "stream.schema_op", _after_schema_refresh),
    (StreamingTamer, "query_engine", "stream", "stream.publish", None),
    (QueryEngine, "find_equal", "query", "query.find_equal", None),
    (QueryEngine, "search", "query", "query.search", None),
    (QueryEngine, "lookup_show", "query", "query.lookup_show", None),
    (FusionIndex, "fuse", "query", "query.fuse", None),
    (ServeView, "top_k", "query", "query.topk", None),
    (sql_package, "run_sql", "sql", "sql.run", _after_run_sql),
    (serve_ops_module, "run_sql", "sql", "sql.run", _after_run_sql),
    (sql_executor_module, "parse_sql", "sql", "sql.parse", None),
    (sql_executor_module, "plan_statement", "sql", "sql.plan", None),
    (SqlContext, "table", "sql", "sql.context_build", None),
    (SqlContext, "equality_index", "sql", "sql.context_build", None),
    (SqlContext, "sorted_column", "sql", "sql.context_build", None),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    names: Iterable[str], tracer: Tracer, measurement: Measurement
) -> Dict[str, float]:
    """Every per-layer metric in ``names`` (0 for a layer never entered).

    Span- and count-derived values come first; ``measurement.raw["layer"]``
    (what only the workload can know: pool totals, backlog, per-class
    latencies, ...) is laid over them.
    """
    spans = tracer.clipped(measurement.t0, measurement.t1)
    wall = measurement.t1 - measurement.t0
    seconds = inclusive_seconds(spans)
    counts = tracer.counts
    values: Dict[str, float] = {name: 0.0 for name in names}

    def put(name: str, value: float) -> None:
        if name not in values:
            raise KeyError(f"per-layer metric {name!r} is not in BENCHMARK.json")
        values[name] = float(value)

    for name in values:
        if name.endswith("_s") and name[:-2] in seconds:
            values[name] = seconds[name[:-2]]
        elif name in counts:
            values[name] = float(counts[name])

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    put("text.mentions_per_doc", _ratio(c("text.mentions"), c("text.docs")))
    put(
        "entity.pruned_share",
        _ratio(c("entity.pruned_pairs"), c("entity.candidate_pairs")),
    )
    put(
        "entity.memo_hit_share",
        _ratio(
            c("entity.memo_hits"),
            c("entity.memo_hits") + c("entity.memo_misses"),
        ),
    )
    put("exec.shard_skew", _ratio(c("exec.skew_sum"), c("exec.skewed_fanouts")))
    raw_events = c("stream.raw_events")
    put("stream.events_per_batch", _ratio(raw_events, c("stream.batches")))
    put(
        "stream.coalesced_share",
        _ratio(raw_events - c("stream.coalesced_events"), raw_events),
    )
    put(
        "stream.pairs_featurized_per_event",
        _ratio(c("stream.pairs_featurized"), raw_events),
    )
    put(
        "stream.merges_reused_share",
        _ratio(
            c("stream.merges_reused"),
            c("stream.merges_reused") + c("stream.merges_computed"),
        ),
    )
    put(
        "stream.pairs_reused_share",
        _ratio(
            c("stream.schema_pairs_reused"),
            c("stream.schema_pairs_reused") + c("stream.schema_pairs_scored"),
        ),
    )
    put("sql.pushdown_share", _ratio(c("sql.pushed_queries"), c("sql.queries")))
    put(
        "sql.rows_scanned_per_row",
        _ratio(c("sql.rows_scanned"), c("sql.rows_returned")),
    )
    put(
        "sql.execute_s",
        max(
            0.0,
            seconds.get("sql.run", 0.0)
            - seconds.get("sql.parse", 0.0)
            - seconds.get("sql.plan", 0.0),
        ),
    )
    self_seconds = layer_self_seconds(spans)
    attributed = sum(self_seconds.get(layer, 0.0) for layer in LAYERS)
    for layer in LAYERS:
        put(f"{layer}.self_share", _ratio(self_seconds.get(layer, 0.0), attributed))
    put("harness.unattributed_share", max(0.0, 1.0 - covered_seconds(spans) / wall))
    put("harness.spans", len(spans))
    put(
        "harness.failed_share", _ratio(measurement.failed, measurement.attempted)
    )
    for name, value in measurement.raw.get("layer", {}).items():
        put(name, value)
    return values


def span_summary(tracer: Tracer, measurement: Measurement) -> List[dict]:
    """Per span name: layer, count, inclusive seconds (the committed summary)."""
    spans = tracer.clipped(measurement.t0, measurement.t1)
    rows: Dict[str, dict] = {}
    for _id, _parent, _op, layer, name, start, end in spans:
        row = rows.setdefault(
            name, {"name": name, "layer": layer, "count": 0, "seconds": 0.0}
        )
        row["count"] += 1
        row["seconds"] += end - start
    return sorted(rows.values(), key=lambda row: row["name"])
