"""Figure 1 — the extended Data Tamer architecture, exercised end-to-end.

Figure 1 is the architecture diagram: ingest → domain parse/flatten →
sharded store → schema integration → consolidation → cleaning/transforms →
query.  The paper's scale claim is carried by the collection statistics
(Tables I-III); what this benchmark adds is a corpus-size sweep of the whole
pipeline showing per-stage timing and that throughput scales roughly linearly
(no super-linear blow-up as the corpus grows).

This module also carries two comparison harnesses:

* ``--compare-kernel`` — scalar vs vectorized pair scoring::

      PYTHONPATH=src python benchmarks/bench_fig1_pipeline_scale.py \
          --compare-kernel [--min-speedup X]

  times candidate-pair scoring through the scalar reference
  (``pair_features`` per pair) against the vectorized
  :class:`~repro.entity.kernel.ScoringKernel`, with and without the
  provable :class:`~repro.entity.kernel.CandidateFilter`.  Scores are
  asserted bit-identical and the matched-pair set is asserted unchanged by
  filtering before any timing is reported.  ``--min-speedup`` exits
  non-zero if the vectorized path fails to beat the scalar path by the
  given factor — the CI perf-smoke gate.

* ``--compare-stredit`` — scalar string-edit oracle vs the batch engine::

      PYTHONPATH=src python benchmarks/bench_fig1_pipeline_scale.py \
          --compare-stredit [--min-speedup X] \
          [--record-pairs PATH] [--replay-pairs PATH]

  extracts the *memo-miss value-pair workload* — the exact unique value
  pairs the scoring kernel's prefill gathers for a corpus — and times the
  scalar ``max(levenshtein_ratio, jaro_winkler)`` loop against
  :func:`repro.entity.stredit.batch_string_sim`.  Every float is asserted
  bit-identical before any timing is reported.  ``--record-pairs`` captures
  the extracted workload as JSONL (``benchmarks/pair_workload.py``) and
  ``--replay-pairs`` benchmarks a previously captured workload instead.
  ``--min-speedup`` exits non-zero if the engine fails to beat the scalar
  loop by the given factor — the CI perf-smoke stredit gate.

All harnesses write machine-readable JSON next to their ``.txt`` reports
(``benchmarks/results/*.json``) so the perf trajectory is tracked across
PRs.
"""

import argparse
import struct
import time

import numpy as np

from conftest import (
    DEDUP_ENTITIES,
    build_tamer,
    scaled,
    scaled_sweep,
    write_json,
    write_report,
)
from pair_workload import load_workload, record_workload

from repro.config import ExecConfig
from repro.core.pipeline import CurationPipeline
from repro.entity.blocking import TokenBlocker
from repro.entity.consolidation import EntityConsolidator
from repro.entity.dedup import DedupModel
from repro.entity.kernel import CandidateFilter, ScoringKernel
from repro.entity.similarity import pair_features
from repro.entity.stredit import batch_string_sim
from repro.exec import ShardedExecutor
from repro.exec.batch import clear_token_cache
from repro.ingest import DictSource
from repro.schema.matchers import jaro_winkler, levenshtein_ratio
from repro.workloads import DedupCorpusGenerator

SWEEP = scaled_sweep((250, 500, 1000), floor=15)
PIPELINE_DOCUMENTS = scaled(300, floor=20)

#: Dedup-corpus entity counts for the --compare-kernel/--compare-stredit
#: sweeps.  scaled_sweep drops floor-induced duplicates so every row is a
#: distinct corpus size even at smoke scale.
COMPARE_SCALES = scaled_sweep((100, 200, 400), floor=10)


def _run_pipeline(ftables_generator, web_generator, dedup_corpus, n_documents):
    tamer = build_tamer()
    documents = web_generator.generate(n_documents)

    pipeline = CurationPipeline()
    pipeline.add_stage(
        "ingest_structured",
        lambda ctx: [
            tamer.ingest_structured_source(DictSource(s.source_id, s.records()))
            for s in (
                [_seed_source(ftables_generator)] + _sources(ftables_generator, 4)
            )
        ],
    )
    pipeline.add_stage(
        "parse_and_store_text",
        lambda ctx: tamer.ingest_text_documents(d.as_pair() for d in documents),
    )
    pipeline.add_stage(
        "train_dedup", lambda ctx: tamer.train_dedup_model(dedup_corpus.pairs)
    )
    pipeline.add_stage("consolidate", lambda ctx: tamer.consolidate_curated())
    pipeline.add_stage("query", lambda ctx: tamer.fuse_show("Matilda"))
    pipeline.run()
    return tamer, pipeline


def _seed_source(generator):
    class _Seed:
        source_id = "global_seed"

        def records(self):
            return generator.seed_records()

    return _Seed()


def _sources(generator, n):
    return generator.generate()[:n]


def test_fig1_end_to_end_pipeline(
    benchmark, ftables_generator, web_generator, dedup_corpus
):
    tamer, pipeline = benchmark.pedantic(
        _run_pipeline,
        args=(ftables_generator, web_generator, dedup_corpus, PIPELINE_DOCUMENTS),
        rounds=1,
        iterations=1,
    )
    timings = pipeline.timing_summary()

    lines = [
        f"Figure 1 — end-to-end curation pipeline ({PIPELINE_DOCUMENTS} web documents, "
        "7 structured sources)",
        f"{'stage':<24}{'seconds':>10}",
    ]
    for name, seconds in timings.items():
        lines.append(f"{name:<24}{seconds:>10.3f}")
    lines.append(f"{'TOTAL':<24}{pipeline.total_seconds:>10.3f}")
    write_report("fig1_pipeline_stages", lines)

    assert pipeline.succeeded
    assert set(timings) == {
        "ingest_structured", "parse_and_store_text", "train_dedup",
        "consolidate", "query",
    }
    assert tamer.instance_collection.count() > 0
    assert len(tamer.global_schema) > 5


def test_fig1_throughput_scales_with_corpus(benchmark, web_generator):
    """Parse+store time should grow roughly linearly with corpus size."""
    lines = ["Figure 1 — corpus-size sweep (parse+store stage)",
             f"{'documents':>10}{'fragments':>11}{'seconds':>9}{'docs/sec':>10}"]

    def sweep():
        rates = []
        for n_documents in SWEEP:
            tamer = build_tamer()
            documents = web_generator.generate(n_documents)
            start = time.perf_counter()
            report = tamer.ingest_text_documents(
                (d.as_pair() for d in documents), integrate_schema=False
            )
            elapsed = time.perf_counter() - start
            rate = n_documents / elapsed if elapsed > 0 else float("inf")
            rates.append(rate)
            lines.append(
                f"{n_documents:>10}{report.fragments:>11}{elapsed:>9.3f}{rate:>10.0f}"
            )
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report("fig1_throughput_sweep", lines)

    # throughput should not collapse as the corpus grows (no quadratic path):
    # the largest corpus keeps at least a third of the smallest corpus's rate.
    assert rates[-1] > rates[0] / 3


# -- sequential vs persistent-pool consolidation ------------------------------


def test_fig1_parallel_consolidation_matches_sequential(benchmark):
    """Consolidation on the 2-worker persistent pool equals the sequential run.

    The first pooled run ships every record to the workers (cold); the
    benchmarked rerun finds them warm.  Both must be bit-identical to the
    sequential entities.  Pool performance is measured end to end by the
    ``curate_pool2`` workload of ``benchmarks/e2e``, not here.
    """
    train = DedupCorpusGenerator(seed=103).generate(n_entities=DEDUP_ENTITIES)
    model = DedupModel(seed=0).fit(train.pairs)
    records = DedupCorpusGenerator(seed=104).generate(
        n_entities=COMPARE_SCALES[1], variants_per_entity=3
    ).records
    sequential = EntityConsolidator(model=model).consolidate(records)
    executor = ShardedExecutor(ExecConfig(parallelism=2, batch_size=256))
    try:
        def pooled():
            return EntityConsolidator(model=model, executor=executor).consolidate(
                records
            )

        assert pooled() == sequential
        warm = benchmark.pedantic(pooled, rounds=1, iterations=1)
        assert warm == sequential
        assert executor.pool.tasks_completed > 0
    finally:
        executor.close()


# -- scalar vs vectorized kernel comparison ----------------------------------


def _compare_kernel_scoring(scales):
    """Time scalar vs vectorized (and filtered) pair scoring per scale.

    Scores are asserted bit-identical and the matched-pair set is asserted
    unchanged by filtering — the speedup is never bought with a different
    answer.  Returns one row dict per scale.
    """
    train = DedupCorpusGenerator(seed=103).generate(n_entities=DEDUP_ENTITIES)
    model = DedupModel(seed=0).fit(train.pairs)
    threshold = model.threshold
    rows = []
    for n_entities in scales:
        corpus = DedupCorpusGenerator(seed=104).generate(
            n_entities=n_entities, variants_per_entity=3
        )
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        pairs = sorted(TokenBlocker(max_block_size=200).block(records).pairs)

        # scalar reference: pair_features per pair, full-matrix predict
        clear_token_cache()
        start = time.perf_counter()
        X_scalar = np.vstack(
            [pair_features(by_id[a], by_id[b]) for a, b in pairs]
        )
        scalar_probs = model.predict_proba_features(X_scalar)
        scalar_seconds = time.perf_counter() - start
        scalar_scores = dict(zip(pairs, (float(p) for p in scalar_probs)))
        matched = {p for p, prob in scalar_scores.items() if prob >= threshold}

        # vectorized kernel, no filtering
        start = time.perf_counter()
        kernel = ScoringKernel()
        X_kernel = kernel.features_for_pairs(by_id, pairs)
        kernel_probs = model.predict_proba_features(X_kernel)
        kernel_seconds = time.perf_counter() - start
        if not np.array_equal(X_kernel, X_scalar):
            raise AssertionError(
                f"kernel features diverged from scalar at {n_entities} entities"
            )
        if not np.array_equal(kernel_probs, scalar_probs):
            raise AssertionError(
                f"kernel scores diverged from scalar at {n_entities} entities"
            )

        # vectorized kernel behind the provable candidate filter
        candidate_filter = CandidateFilter.from_model(model)
        start = time.perf_counter()
        filter_kernel = ScoringKernel()
        survivors, pruned, filter_stats = candidate_filter.split(
            filter_kernel, by_id, pairs
        )
        X_survivors = filter_kernel.features_for_pairs(by_id, survivors)
        survivor_probs = model.predict_proba_features(X_survivors)
        filtered_seconds = time.perf_counter() - start
        survivor_scores = dict(
            zip(survivors, (float(p) for p in survivor_probs))
        )
        filtered_matched = {
            p for p, prob in survivor_scores.items() if prob >= threshold
        }
        if filtered_matched != matched:
            raise AssertionError(
                f"filtering changed the matched-pair set at {n_entities} entities"
            )
        # survivor feature rows are bit-identical (same kernel), and the
        # classifier now scores through the fixed-order accumulation in
        # repro.ml.linear.linear_scores — per-row arithmetic that cannot
        # depend on how many other rows share the matrix.  Re-predicting
        # over the smaller survivor matrix therefore reproduces the
        # full-matrix probabilities exactly (this used to tolerate 1e-12 of
        # BLAS shape-dependence; the tolerance is now zero by construction).
        for p in survivors:
            if survivor_scores[p] != scalar_scores[p]:
                raise AssertionError(
                    f"filtered-path scores diverged at {n_entities} entities "
                    f"(pair {p}: {survivor_scores[p]!r} != {scalar_scores[p]!r})"
                )

        rows.append(
            {
                "entities": n_entities,
                "records": len(records),
                "candidate_pairs": len(pairs),
                "matched_pairs": len(matched),
                "pruned_pairs": len(pruned),
                "pruned_fraction": len(pruned) / len(pairs) if pairs else 0.0,
                "scalar_seconds": scalar_seconds,
                "kernel_seconds": kernel_seconds,
                "filtered_seconds": filtered_seconds,
                "kernel_speedup": scalar_seconds / kernel_seconds
                if kernel_seconds > 0
                else float("inf"),
                "filtered_speedup": scalar_seconds / filtered_seconds
                if filtered_seconds > 0
                else float("inf"),
                "match_completeness_preserved": True,
            }
        )
    return rows


def _render_kernel_compare(rows):
    lines = [
        "Figure 1 — pair scoring, scalar vs vectorized kernel "
        "(scores bit-identical, matched pairs unchanged by filtering)",
        f"{'entities':>9}{'pairs':>9}{'pruned':>9}{'scalar s':>10}"
        f"{'kernel s':>10}{'filt s':>8}{'kern x':>8}{'filt x':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['entities']:>9}{row['candidate_pairs']:>9}"
            f"{row['pruned_pairs']:>9}{row['scalar_seconds']:>10.3f}"
            f"{row['kernel_seconds']:>10.3f}{row['filtered_seconds']:>8.3f}"
            f"{row['kernel_speedup']:>7.2f}x{row['filtered_speedup']:>7.2f}x"
        )
    return lines


def test_fig1_kernel_scoring_matches_scalar(benchmark):
    """The kernel comparison harness itself: identical scores, speedups."""
    scales = COMPARE_SCALES[:2]
    rows = benchmark.pedantic(
        _compare_kernel_scoring, args=(scales,), rounds=1, iterations=1
    )
    # distinct name: never clobber an operator's real --compare-kernel results
    write_report("fig1_kernel_compare_smoke", _render_kernel_compare(rows))
    write_json("fig1_kernel_compare_smoke", {"rows": rows})
    assert len(rows) == len(scales)
    # equality is asserted inside _compare_kernel_scoring; the speedup claim
    # itself belongs to the full-scale run (and the CI perf-smoke gate)
    assert all(row["scalar_seconds"] > 0 and row["kernel_seconds"] > 0 for row in rows)
    assert all(row["pruned_pairs"] > 0 for row in rows)


# -- scalar vs batch string-edit engine comparison ----------------------------


def _memo_miss_value_pairs(records, pairs):
    """The unique value pairs a cold kernel's memo misses hand the stredit
    engine for these candidate pairs (:meth:`ScoringKernel.value_pairs`:
    shared attributes, both values non-empty, distinct value ids, first
    occurrence wins) — the real workload, not a synthetic proxy.
    """
    by_id = {r.record_id: r for r in records}
    return ScoringKernel().value_pairs(by_id, pairs)


def _scale_workload(n_entities):
    """(label, value pairs) for one synthetic corpus scale."""
    corpus = DedupCorpusGenerator(seed=104).generate(
        n_entities=n_entities, variants_per_entity=3
    )
    records = corpus.records
    pairs = sorted(TokenBlocker(max_block_size=200).block(records).pairs)
    return _memo_miss_value_pairs(records, pairs)


def _compare_stredit(scales, record_path=None, replay_path=None):
    """Time the scalar string-edit oracle vs the batch engine per workload.

    Every similarity is asserted bit-identical (struct-packed doubles, not
    approximate equality) before any timing is reported.  Returns one row
    dict per workload.
    """
    if replay_path:
        header, pairs = load_workload(replay_path)
        workloads = [(f"replay:{header.get('source', replay_path)}", pairs)]
    else:
        workloads = [
            (str(n_entities), _scale_workload(n_entities)) for n_entities in scales
        ]
        if record_path and workloads:
            label, largest = workloads[-1]
            record_workload(
                record_path, largest, meta={"source": f"dedup-corpus-{label}"}
            )
            print(f"[record] {len(largest)} value pairs -> {record_path}")

    rows = []
    for label, pairs in workloads:
        start = time.perf_counter()
        scalar = [
            max(levenshtein_ratio(a, b), jaro_winkler(a, b)) for a, b in pairs
        ]
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        engine = batch_string_sim(pairs)
        engine_seconds = time.perf_counter() - start

        mismatches = sum(
            1
            for s, e in zip(scalar, engine)
            if struct.pack("<d", s) != struct.pack("<d", e)
        )
        if mismatches:
            raise AssertionError(
                f"stredit engine diverged from the scalar oracle on "
                f"{mismatches}/{len(pairs)} pairs (workload {label})"
            )

        mean_len = (
            sum(len(a) + len(b) for a, b in pairs) / (2 * len(pairs))
            if pairs
            else 0.0
        )
        rows.append(
            {
                "workload": label,
                "value_pairs": len(pairs),
                "mean_value_length": mean_len,
                "scalar_seconds": scalar_seconds,
                "engine_seconds": engine_seconds,
                "engine_speedup": scalar_seconds / engine_seconds
                if engine_seconds > 0
                else float("inf"),
                "bit_identical": True,
            }
        )
    return rows


def _render_stredit_compare(rows):
    lines = [
        "Figure 1 — string-edit step: scalar max(levenshtein, jaro-winkler) "
        "vs batch stredit engine (all similarities bit-identical)",
        f"{'workload':>12}{'pairs':>9}{'mean len':>10}{'scalar s':>10}"
        f"{'engine s':>10}{'speedup':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:>12}{row['value_pairs']:>9}"
            f"{row['mean_value_length']:>10.1f}{row['scalar_seconds']:>10.3f}"
            f"{row['engine_seconds']:>10.3f}{row['engine_speedup']:>8.2f}x"
        )
    return lines


def test_fig1_stredit_matches_scalar(benchmark, pair_workload_options):
    """The stredit comparison harness itself: bit-identical, speedups sane."""
    record_path, replay_path = pair_workload_options
    scales = COMPARE_SCALES[:2]
    rows = benchmark.pedantic(
        _compare_stredit,
        args=(scales, record_path, replay_path),
        rounds=1,
        iterations=1,
    )
    # distinct name: never clobber an operator's real --compare-stredit results
    write_report("fig1_stredit_compare_smoke", _render_stredit_compare(rows))
    write_json("fig1_stredit_compare_smoke", {"rows": rows})
    assert rows and all(row["bit_identical"] for row in rows)
    # bit-identity is asserted inside _compare_stredit; the speedup claim
    # itself belongs to the full-scale run (and the CI perf-smoke gate)
    assert all(row["value_pairs"] > 0 for row in rows)
    assert all(row["scalar_seconds"] > 0 and row["engine_seconds"] > 0 for row in rows)


def test_pair_workload_roundtrip(tmp_path):
    """Record/replay round-trips arbitrary unicode pairs exactly."""
    pairs = [
        ("matilda the musical", "matilda — the musical"),
        ("", "empty on one side"),
        ("café☃", "cafe snowman"),
        ("same", "same"),
    ]
    path = record_workload(tmp_path / "pairs.jsonl", pairs, meta={"source": "test"})
    header, loaded = load_workload(path)
    assert loaded == pairs
    assert header["pairs"] == len(pairs)
    assert header["source"] == "test"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--compare-kernel",
        action="store_true",
        help="run the scalar-vs-vectorized pair-scoring sweep",
    )
    parser.add_argument(
        "--compare-stredit",
        action="store_true",
        help="run the scalar-vs-batch string-edit engine sweep",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="with --compare-kernel/--compare-stredit: fail (exit 1) if the "
        "fast path's speedup at the largest scale falls below this factor",
    )
    parser.add_argument(
        "--record-pairs",
        default=None,
        metavar="PATH",
        help="with --compare-stredit: write the largest extracted value-pair "
        "workload to this JSONL file",
    )
    parser.add_argument(
        "--replay-pairs",
        default=None,
        metavar="PATH",
        help="with --compare-stredit: benchmark a recorded workload instead "
        "of extracting one from the synthetic corpus",
    )
    parser.add_argument(
        "--scales",
        type=int,
        nargs="+",
        default=list(COMPARE_SCALES),
        help="dedup-corpus entity counts to sweep",
    )
    args = parser.parse_args(argv)
    if not args.compare_kernel and not args.compare_stredit:
        parser.error(
            "run with --compare-kernel or --compare-stredit "
            "(or via pytest for the full suite)"
        )

    if args.compare_stredit:
        rows = _compare_stredit(
            args.scales,
            record_path=args.record_pairs,
            replay_path=args.replay_pairs,
        )
        lines = _render_stredit_compare(rows)
        largest = rows[-1]
        lines.append(
            f"largest workload: {largest['engine_speedup']:.2f}x over the "
            f"scalar oracle on {largest['value_pairs']} memo-miss value "
            "pairs (bit-identical)"
        )
        write_report("fig1_stredit_compare", lines)
        write_json(
            "fig1_stredit_compare",
            {"rows": rows, "min_speedup_required": args.min_speedup},
        )
        if args.min_speedup is not None and (
            largest["engine_speedup"] < args.min_speedup
        ):
            print(
                f"FAIL: stredit engine speedup {largest['engine_speedup']:.2f}x "
                f"below required {args.min_speedup:.2f}x"
            )
            return 1
        return 0

    rows = _compare_kernel_scoring(args.scales)
    lines = _render_kernel_compare(rows)
    largest = rows[-1]
    lines.append(
        f"largest scale: {largest['kernel_speedup']:.2f}x vectorized, "
        f"{largest['filtered_speedup']:.2f}x with filtering "
        f"({100 * largest['pruned_fraction']:.1f}% of pairs pruned)"
    )
    write_report("fig1_kernel_compare", lines)
    write_json(
        "fig1_kernel_compare",
        {"rows": rows, "min_speedup_required": args.min_speedup},
    )
    if args.min_speedup is not None and (largest["kernel_speedup"] < args.min_speedup):
        print(
            f"FAIL: vectorized speedup {largest['kernel_speedup']:.2f}x "
            f"below required {args.min_speedup:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
