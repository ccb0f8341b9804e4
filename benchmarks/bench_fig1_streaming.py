"""Figure 1 (streaming) — full re-curation vs incremental delta curation.

The paper's system curates collections that grow continuously; this
benchmark quantifies what the incremental engine buys over re-running the
whole batch pipeline when a small delta lands.  For each delta size it
applies fresh records to a streaming-curated collection and times

* **incremental** — ``StreamingTamer.refresh()``: changelog drain, delta
  blocking, delta featurization, incremental union/split, memoized merges;
* **batch** — a from-scratch ``EntityConsolidator`` run over the whole
  collection (the pre-streaming behaviour).

The two outputs are asserted bit-identical before any timing is reported —
the speedup is never bought with a different answer.  Results land in
``benchmarks/results/fig1_streaming_compare.txt``; corpus sizes honour
``BENCH_SCALE``.

``--base-sweep`` asks the complementary question — does one refresh cost
the *delta*, whatever the collection holds?  The same fixed feed of
``SWEEP_DELTA``-record deltas is applied over bases of x1/x2/x4
``BASE_RECORDS``; per base it reports the median per-refresh time next to
the curator's own work counters (``RefreshStats.pairs_classified`` /
``components_recomputed`` / ``entities_restamped``), after asserting the
final entities identical to a batch run.  Results land in
``benchmarks/results/fig1_streaming_base_sweep.{txt,json}``.

Script mode (the CI perf-smoke gate)::

    BENCH_SCALE=0.25 PYTHONPATH=src python benchmarks/bench_fig1_streaming.py \\
        --base-sweep --max-growth 2.0
"""

import argparse
import re
import time
from statistics import median

from conftest import (
    DEDUP_ENTITIES,
    build_tamer,
    scaled,
    scaled_sweep,
    write_json,
    write_report,
)

from repro.config import StreamConfig
from repro.entity.record import Record
from repro.workloads import DedupCorpusGenerator

#: Initial curated-collection size (records).
BASE_RECORDS = scaled(600, floor=40)
#: Delta sizes to compare (records per applied delta); floor-induced
#: duplicates are dropped at smoke scale.
DELTA_SIZES = scaled_sweep((2, 8, 32, 128), floor=1)
#: ``--base-sweep``: base-size multipliers, records per delta, deltas timed.
SWEEP_FACTORS = (1, 2, 4)
SWEEP_DELTA = 4
SWEEP_ROUNDS = scaled(60, floor=12)


def _record_pool(n_needed: int):
    """Deterministic pool of dedup-style records (duplicates included)."""
    pool = []
    n_entities = 100
    while True:
        corpus = DedupCorpusGenerator(seed=201).generate(
            n_entities=n_entities, variants_per_entity=3
        )
        pool = corpus.records
        if len(pool) >= n_needed:
            return pool
        n_entities *= 2


def _streaming_tamer(dedup_corpus, base_records):
    tamer = build_tamer()
    tamer.config.stream = StreamConfig(max_batch_size=512, rebuild_threshold=0)
    tamer.train_dedup_model(dedup_corpus.pairs)
    for record in base_records:
        tamer.curated_collection.insert(dict(record.as_dict(), _source="stream"))
    stream = tamer.start_stream(key_attribute="name")
    stream.refresh()  # bootstrap curation outside the timed region
    return tamer, stream


def _compare_streaming(dedup_corpus, base_count, delta_sizes):
    """Rows of (delta, corpus, incremental_s, batch_s, speedup)."""
    pool = _record_pool(base_count + sum(delta_sizes))
    tamer, stream = _streaming_tamer(dedup_corpus, pool[:base_count])
    cursor = base_count
    rows = []
    for delta in delta_sizes:
        for record in pool[cursor : cursor + delta]:
            tamer.curated_collection.insert(
                dict(record.as_dict(), _source="stream")
            )
        cursor += delta

        start = time.perf_counter()
        incremental = stream.refresh()
        incremental_s = time.perf_counter() - start

        start = time.perf_counter()
        batch = stream.batch_reference()
        batch_s = time.perf_counter() - start

        assert incremental == batch, "incremental and batch outputs diverged"
        rows.append(
            (
                delta,
                stream.curator.record_count,
                incremental_s,
                batch_s,
                batch_s / incremental_s if incremental_s > 0 else float("inf"),
            )
        )
    return rows


def test_fig1_streaming_compare(benchmark, dedup_corpus):
    rows = benchmark.pedantic(
        _compare_streaming,
        args=(dedup_corpus, BASE_RECORDS, DELTA_SIZES),
        rounds=1,
        iterations=1,
    )
    lines = [
        "Figure 1 (streaming) — incremental delta curation vs full batch "
        f"re-curation ({BASE_RECORDS} base records)",
        f"{'delta':>8}{'corpus':>10}{'incr_s':>12}{'batch_s':>12}{'speedup':>10}",
    ]
    for delta, corpus, incr_s, batch_s, speedup in rows:
        lines.append(
            f"{delta:>8}{corpus:>10}{incr_s:>12.4f}{batch_s:>12.4f}{speedup:>9.1f}x"
        )
    write_report("fig1_streaming_compare", lines)
    write_json(
        "fig1_streaming_compare",
        {
            "base_records": BASE_RECORDS,
            "rows": [
                {
                    "delta": delta,
                    "corpus": corpus,
                    "incremental_seconds": incr_s,
                    "batch_seconds": batch_s,
                    "speedup": speedup,
                }
                for delta, corpus, incr_s, batch_s, speedup in rows
            ],
        },
    )
    assert len(rows) == len(DELTA_SIZES)


def test_streaming_refresh_is_incremental(dedup_corpus):
    """The refresh after a small delta touches only delta-sized work."""
    pool = _record_pool(BASE_RECORDS + 4)
    tamer, stream = _streaming_tamer(dedup_corpus, pool[:BASE_RECORDS])
    baseline = stream.curator.last_stats
    for record in pool[BASE_RECORDS : BASE_RECORDS + 4]:
        tamer.curated_collection.insert(dict(record.as_dict(), _source="stream"))
    stream.refresh()
    stats = stream.curator.last_stats
    # featurization (the hot path) is bounded by the delta's blocks, far
    # below the full candidate set the bootstrap had to score
    assert stats.pairs_featurized < max(baseline.candidate_pairs, 1)
    assert stats.merges_reused > 0


# -- base sweep: fixed delta, growing base -----------------------------------


def _far_copy(record, copy):
    """``record`` moved to a vocabulary of its own: same shape, no shared
    name token — so no shared block — with the original or another copy."""
    fields = record.as_dict()
    # a letters-only tag on every alphanumeric run survives tokenization
    tag = "q" + "abcdefghij"[copy]
    fields["name"] = re.sub(
        r"[A-Za-z0-9]+", lambda run: run.group(0) + tag, str(fields["name"])
    )
    return Record.from_dict(f"{record.record_id}~{copy}", record.source_id, fields)


def _base_sweep(dedup_corpus, base_count):
    """One row per base size: per-refresh time and work for a fixed feed.

    The x1 base is a prefix of the record pool and the feed is the pool's
    tail.  A larger base adds far copies of the x1 base — just as
    duplicate-rich, but out of the feed's blocks — so every run does the
    same featurization and clustering work (``pairs_classified`` and
    ``components_recomputed`` are asserted equal across bases) and any
    growth in refresh time is bookkeeping that scales with the collection.
    """
    feed_size = SWEEP_DELTA * SWEEP_ROUNDS
    pool = _record_pool(base_count + feed_size)
    base, feed = pool[:base_count], pool[-feed_size:]
    rows = []
    for factor in SWEEP_FACTORS:
        records = base + [
            _far_copy(record, copy) for copy in range(1, factor) for record in base
        ]
        tamer, stream = _streaming_tamer(dedup_corpus, records)
        seconds, stats = [], []
        for start in range(0, feed_size, SWEEP_DELTA):
            for record in feed[start : start + SWEEP_DELTA]:
                tamer.curated_collection.insert(
                    dict(record.as_dict(), _source="stream")
                )
            begin = time.perf_counter()
            stream.refresh()
            seconds.append(time.perf_counter() - begin)
            stats.append(stream.curator.last_stats)
        assert stream.refresh() == stream.batch_reference(), (
            "incremental and batch outputs diverged"
        )
        tamer.close()
        rows.append(
            {
                "factor": factor,
                "base_records": base_count * factor,
                "refreshes": len(seconds),
                "refresh_p50_ms": median(seconds) * 1e3,
                "pairs_classified": sum(s.pairs_classified for s in stats),
                "components_recomputed": sum(
                    s.components_recomputed for s in stats
                ),
                "entities_restamped": sum(s.entities_restamped for s in stats),
                "candidate_pairs": stats[-1].candidate_pairs,
                "clusters": stats[-1].clusters,
            }
        )
    for counter in ("pairs_classified", "components_recomputed"):
        assert len({row[counter] for row in rows}) == 1, (counter, rows)
    return rows


def _render_base_sweep(rows):
    lines = [
        "Figure 1 (streaming) — per-refresh cost of a fixed "
        f"{SWEEP_DELTA}-record delta over a growing base "
        "(final entities identical to batch at every base)",
        f"{'base':>8}{'refreshes':>11}{'p50_ms':>10}{'classified':>12}"
        f"{'components':>12}{'restamped':>11}{'candidates':>12}{'clusters':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['base_records']:>8}{row['refreshes']:>11}"
            f"{row['refresh_p50_ms']:>10.2f}{row['pairs_classified']:>12}"
            f"{row['components_recomputed']:>12}{row['entities_restamped']:>11}"
            f"{row['candidate_pairs']:>12}{row['clusters']:>10}"
        )
    lines.append(
        f"p50 growth x{rows[-1]['factor']} vs x{rows[0]['factor']}: "
        f"{_growth(rows):.2f}x"
    )
    return lines


def _growth(rows):
    """Median refresh time at the largest base over the smallest."""
    return rows[-1]["refresh_p50_ms"] / rows[0]["refresh_p50_ms"]


def _report_base_sweep(rows):
    write_report("fig1_streaming_base_sweep", _render_base_sweep(rows))
    write_json(
        "fig1_streaming_base_sweep",
        {
            "delta_records": SWEEP_DELTA,
            "p50_growth": _growth(rows),
            "rows": rows,
        },
    )


def test_fig1_streaming_base_sweep(benchmark, dedup_corpus):
    rows = benchmark.pedantic(
        _base_sweep, args=(dedup_corpus, BASE_RECORDS), rounds=1, iterations=1
    )
    _report_base_sweep(rows)
    assert [row["factor"] for row in rows] == list(SWEEP_FACTORS)
    # classification follows the delta's blocks, never the candidate set;
    # the timing gate belongs to script mode (the CI perf-smoke job)
    for row in rows:
        assert 0 < row["pairs_classified"] < row["candidate_pairs"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--base-sweep",
        action="store_true",
        required=True,
        help="fixed delta over bases of x1/x2/x4 BASE_RECORDS",
    )
    parser.add_argument(
        "--max-growth",
        type=float,
        default=None,
        help="fail (exit 1) if the median per-refresh time at the largest "
        "base exceeds this multiple of the smallest base's",
    )
    args = parser.parse_args(argv)

    corpus = DedupCorpusGenerator(seed=103).generate(n_entities=DEDUP_ENTITIES)
    rows = _base_sweep(corpus, BASE_RECORDS)
    _report_base_sweep(rows)
    if args.max_growth is not None and _growth(rows) > args.max_growth:
        print(
            f"FAIL: per-refresh p50 grew {_growth(rows):.2f}x from "
            f"{rows[0]['base_records']} to {rows[-1]['base_records']} base "
            f"records (allowed {args.max_growth:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
