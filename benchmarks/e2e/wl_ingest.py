"""``ingest_text_heavy``: Fig. 2 schema bootstrap plus web-text ingestion.

Every iteration loads FTABLES sources through ``ingest_structured_source``
(cleaning, schema integration, curated store) and web documents through
``ingest_text_documents(integrate_schema=True)`` (domain parser, instance and
entity collections, indexes) into an empty ``DataTamer``, then answers the
Table IV top-k and twenty Table VI fusions.  Nothing is consolidated, so
``entity/`` never runs.
"""

from __future__ import annotations

from repro.ingest import DictSource

from harness import Tracer, digest
from inputs import build_tamer, fixed_size_sources, web_documents
from workload import Oracle, Workload, run_batch


def _ingest_from_empty(inputs, size, tracer, op_id=None):
    """One iteration; returns what the oracle compares across iterations."""
    tamer = build_tamer()
    try:
        with tracer.span("ingest", "ingest.structured", op_id=op_id):
            for source_id, rows in inputs["sources"]:
                tamer.ingest_structured_source(DictSource(source_id, rows))
        with tracer.span("ingest", "ingest.text", op_id=op_id):
            tamer.ingest_text_documents(inputs["documents"], integrate_schema=True)
        with tracer.span("query", "query.topk", op_id=op_id):
            top = tamer.top_discussed_shows(10)
        shows = [row.entity for row in top]
        fused = []
        for show in (shows * size["fuse_calls"])[: size["fuse_calls"]]:
            with tracer.span("query", "query.fuse", op_id=op_id):
                fused.append(tamer.fuse_show(show).attribute_count())
        counts = {
            name: stats.count for name, stats in tamer.collection_stats().items()
        }
        return {
            "counts": counts,
            "top": [(row.entity, row.mentions) for row in top],
            "fused": fused,
        }
    finally:
        tamer.close()


class IngestTextHeavy(Workload):
    name = "ingest_text_heavy"
    sizes = {
        "full": {"sources": 40, "rows": 55, "documents": 2500, "fuse_calls": 20},
        "toy": {"sources": 6, "rows": 12, "documents": 120, "fuse_calls": 4},
    }

    def make_inputs(self, seed, size):
        inputs = {
            "size": size,
            "sources": fixed_size_sources(seed + 1, size["sources"], size["rows"]),
            "documents": web_documents(seed + 2, size["documents"]),
        }
        inputs["records"] = size["sources"] * size["rows"] + size["documents"]
        inputs["digest"] = digest(inputs["sources"], inputs["documents"])
        return inputs

    def setup(self, inputs):
        # the untimed warm-up iteration doubles as the reference output
        return {"reference": _ingest_from_empty(inputs, inputs["size"], Tracer())}

    def run(self, state, inputs, seconds, tracer):
        return run_batch(
            seconds,
            inputs["records"],
            lambda i: _ingest_from_empty(inputs, inputs["size"], tracer, op_id=i),
        )

    def check(self, state, inputs, measurement):
        outputs = measurement.raw["outputs"]
        wrong = sum(output != state["reference"] for output in outputs)
        return [
            Oracle("counts_and_topk_identical_across_iterations", len(outputs), wrong)
        ]

    def corrupt(self, measurement):
        last = measurement.raw["outputs"][-1]
        last["top"] = last["top"][1:]

    def teardown(self, state):
        pass

    def separation(self, layer, seconds):
        problems = []
        if layer["entity.self_share"] != 0:
            problems.append(f"entity self time {layer['entity.self_share']:.3f} != 0")
        loaded = sum(
            layer[f"{name}.self_share"]
            for name in ("text", "ingest", "schema", "storage")
        )
        if loaded < 0.80:
            problems.append(
                f"text+ingest+schema+storage self time {loaded:.2f} < 0.80 of the run"
            )
        return problems
