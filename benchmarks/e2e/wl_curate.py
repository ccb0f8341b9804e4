"""``curate_dup_heavy`` and ``curate_pool2``: the Fig. 1 batch run.

Both curate the same duplicate-rich inputs — FTABLES sources, a
``DedupCorpusGenerator`` record set, a little web text — into consolidated
entities.  ``curate_dup_heavy`` does it sequentially from an empty
``DataTamer`` every iteration, so ``entity/`` carries the run;
``curate_pool2`` re-consolidates one loaded system through the persistent
2-worker process pool, so the same ``entity/`` work is reached through
``exec/`` (warm contexts, record deltas, IPC) instead.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import ExecConfig, TamerConfig
from repro.ingest import DictSource

from harness import Tracer, digest
from inputs import (
    build_tamer,
    dedup_records,
    fixed_size_sources,
    train_model,
    training_pairs,
    web_documents,
)
from workload import Oracle, Workload, run_batch

KEY_ATTRIBUTE = "name"


def _load(tamer, inputs, tracer, op_id):
    """Ingest every input into ``tamer`` (structured first, then text)."""
    with tracer.span("ingest", "ingest.structured", op_id=op_id):
        for source_id, rows in inputs["sources"]:
            tamer.ingest_structured_source(DictSource(source_id, rows))
        tamer.ingest_structured_records("dedup", inputs["records"])
    with tracer.span("ingest", "ingest.text", op_id=op_id):
        tamer.ingest_text_documents(inputs["documents"])


def _consolidate(tamer, tracer, op_id):
    with tracer.span("entity", "entity.consolidate_curated", op_id=op_id):
        return tamer.consolidate_curated(key_attribute=KEY_ATTRIBUTE)


def _entity_digest(entities) -> str:
    return digest(
        [
            (e.entity_id, e.member_record_ids, e.source_ids, e.attributes)
            for e in entities
        ]
    )


def _train(inputs):
    """(model, seconds it took to train): ``ml.train_s`` is set-up time."""
    begin = time.perf_counter()
    model = train_model(inputs["pairs"])
    return model, time.perf_counter() - begin


def _curate_from_empty(inputs, model, tracer, op_id=None, config=None):
    """The whole Fig. 1 run on a fresh system: (entities, curated records)."""
    tamer = build_tamer(config)
    try:
        tamer.set_dedup_model(model)
        _load(tamer, inputs, tracer, op_id)
        entities = _consolidate(tamer, tracer, op_id)
        return entities, tamer.curated_collection.count()
    finally:
        tamer.close()


class CurateWorkload(Workload):
    sizes = {
        "full": {"entities": 450, "sources": 20, "rows": 55, "documents": 150},
        "toy": {"entities": 40, "sources": 6, "rows": 12, "documents": 20},
    }

    def make_inputs(self, seed, size):
        pairs = training_pairs(seed + 1)
        inputs = {
            "pairs": pairs,
            "records": dedup_records(seed + 2, size["entities"]),
            "sources": fixed_size_sources(seed + 3, size["sources"], size["rows"]),
            "documents": web_documents(seed + 4, size["documents"]),
        }
        inputs["digest"] = digest(
            [
                (p.record_a.as_dict(), p.record_b.as_dict(), p.is_duplicate)
                for p in pairs
            ],
            inputs["records"],
            inputs["sources"],
            inputs["documents"],
        )
        return inputs

    def _identical(self, state, measurement) -> Oracle:
        digests = [_entity_digest(e) for e in measurement.raw["outputs"]]
        wrong = sum(d != state["reference_digest"] for d in digests)
        return Oracle("entities_identical_across_iterations", len(digests), wrong)

    def corrupt(self, measurement):
        measurement.raw["outputs"][-1] = measurement.raw["outputs"][-1][:-1]


class CurateDupHeavy(CurateWorkload):
    name = "curate_dup_heavy"

    def setup(self, inputs):
        model, train_s = _train(inputs)
        # the untimed warm-up iteration doubles as the reference output
        entities, curated = _curate_from_empty(inputs, model, Tracer())
        return {
            "model": model,
            "train_s": train_s,
            "curated": curated,
            "reference_digest": _entity_digest(entities),
        }

    def run(self, state, inputs, seconds, tracer):
        return run_batch(
            seconds,
            state["curated"],
            lambda i: _curate_from_empty(inputs, state["model"], tracer, op_id=i)[0],
            layer={"ml.train_s": state["train_s"]},
        )

    def check(self, state, inputs, measurement):
        return [self._identical(state, measurement)]

    def teardown(self, state):
        pass

    def separation(self, layer, seconds):
        problems = []
        if layer["entity.self_share"] < 0.70:
            problems.append(
                f"entity self time {layer['entity.self_share']:.2f} < 0.70 of the run"
            )
        if layer["text.self_share"] > 0.05:
            problems.append(
                f"text self time {layer['text.self_share']:.2f} > 0.05 of the run"
            )
        return problems


class CuratePool2(CurateWorkload):
    name = "curate_pool2"
    rss_includes_children = True

    def setup(self, inputs):
        quiet = Tracer()
        model, train_s = _train(inputs)
        config = replace(
            TamerConfig.default(),
            execution=ExecConfig(parallelism=2, backend="process", pool="persistent"),
        )
        tamer = build_tamer(config)
        tamer.set_dedup_model(model)
        begin = time.perf_counter()
        tamer.executor.ensure_pool().ensure_started()
        pool_start_s = time.perf_counter() - begin
        _load(tamer, inputs, quiet, None)
        # the cold run ships every record to the workers; reruns ship none
        entities = _consolidate(tamer, quiet, None)
        return {
            "tamer": tamer,
            "model": model,
            "train_s": train_s,
            "pool_start_s": pool_start_s,
            "curated": tamer.curated_collection.count(),
            "reference_digest": _entity_digest(entities),
        }

    def run(self, state, inputs, seconds, tracer):
        tamer = state["tamer"]
        pool = tamer.executor.pool

        def totals():
            return (
                pool.total_sync_seconds,
                pool.total_queue_seconds,
                pool.total_compute_seconds,
                pool.tasks_completed,
                pool.records_shipped,
            )

        before = totals()
        measurement = run_batch(
            seconds, state["curated"], lambda i: _consolidate(tamer, tracer, i)
        )
        sync_s, queue_s, compute_s, tasks, shipped = (
            after - start for after, start in zip(totals(), before)
        )
        busy = compute_s + queue_s + sync_s
        measurement.raw["layer"] = {
            "ml.train_s": state["train_s"],
            "exec.pool_start_s": state["pool_start_s"],
            "exec.sync_s": sync_s,
            "exec.queue_s": queue_s,
            "exec.compute_s": compute_s,
            "exec.tasks": tasks,
            "exec.records_shipped": shipped,
            "exec.useful_share": compute_s / busy if busy else 0.0,
        }
        return measurement

    def check(self, state, inputs, measurement):
        sequential, _ = _curate_from_empty(inputs, state["model"], Tracer())
        differs = _entity_digest(sequential) != state["reference_digest"]
        return [
            self._identical(state, measurement),
            Oracle("pool_equals_sequential", 1, int(differs)),
        ]

    def teardown(self, state):
        state["tamer"].close()

    def separation(self, layer, seconds):
        if layer["exec.records_shipped"] != 0:
            return [
                f"{layer['exec.records_shipped']:.0f} records shipped during warm "
                "reruns (expected 0)"
            ]
        return []
