"""Parallel/sequential equivalence properties of the execution engine.

Every parallel code path in the system is designed to be *bit-identical* to
its sequential counterpart: deterministic shard routing, order-preserving
fan-out, and stable merges.  These tests enforce that property over seeded
random corpora for 1, 2 and 8 workers — blocking, pairwise scoring,
and consolidation all produce exactly the sequential result.
"""

import random

import pytest

from repro import DataTamer, TamerConfig
from repro.config import ExecConfig
from repro.entity.blocking import (
    NGramBlocker,
    SortedNeighborhoodBlocker,
    TokenBlocker,
)
from repro.entity.consolidation import EntityConsolidator
from repro.entity.dedup import DedupModel
from repro.entity.record import Record
from repro.exec import BatchScorer, ShardedExecutor
from repro.workloads import DedupCorpusGenerator

WORKER_COUNTS = (1, 2, 8)
SEEDS = (0, 1, 2)

_WORDS = (
    "matilda", "chicago", "wicked", "pippin", "cinderella", "annie",
    "broadway", "theater", "musical", "tickets", "show", "evening",
    "matinee", "orchestra", "balcony", "premiere",
)


def random_records(seed: int, n: int = 80):
    """A seeded random corpus with overlapping tokens and sparse attributes."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        fields = {
            "show_name": " ".join(rng.sample(_WORDS, rng.randint(1, 3))),
            "city": rng.choice(["new york", "boston", "chicago", "london"]),
            "price": rng.randint(20, 200),
            "venue": rng.choice(_WORDS),
        }
        # sparse records: drop attributes at random so attribute-overlap
        # features and blocking keys vary across the corpus
        for attr in ("city", "price", "venue"):
            if rng.random() < 0.35:
                del fields[attr]
        records.append(Record.from_dict(f"r{i}", f"src{i % 4}", fields))
    return records


_EXECUTORS = {}


def executor_for(workers: int, batch_size: int = 17) -> ShardedExecutor:
    """An executor with a deliberately odd batch size.

    One executor — and so one warm process pool — per (workers, batch
    size), shared by the whole module: later tests re-sync records that
    earlier ones shipped, which exercises the warm-state deltas too.
    """
    key = (workers, batch_size)
    if key not in _EXECUTORS:
        _EXECUTORS[key] = ShardedExecutor(
            ExecConfig(parallelism=workers, batch_size=batch_size)
        )
    return _EXECUTORS[key]


@pytest.fixture(scope="module", autouse=True)
def _close_shared_executors():
    yield
    for executor in _EXECUTORS.values():
        executor.close()
    _EXECUTORS.clear()


@pytest.fixture(scope="module")
def corpus():
    return DedupCorpusGenerator(seed=29).generate(
        n_entities=50, variants_per_entity=2
    )


@pytest.fixture(scope="module")
def model(corpus):
    return DedupModel(seed=0).fit(corpus.pairs)


class TestBlockingEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_token_blocker(self, workers, seed):
        records = random_records(seed)
        blocker = TokenBlocker(max_block_size=40)
        sequential = blocker.block(records)
        parallel = blocker.block(records, executor=executor_for(workers))
        assert parallel.pairs == sequential.pairs
        assert parallel.blocks == sequential.blocks
        assert parallel.total_records == sequential.total_records

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ngram_blocker(self, workers, seed):
        records = random_records(seed)
        blocker = NGramBlocker(key_attribute="show_name", n=3, max_block_size=40)
        sequential = blocker.block(records)
        parallel = blocker.block(records, executor=executor_for(workers))
        assert parallel.pairs == sequential.pairs
        assert parallel.blocks == sequential.blocks

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sorted_neighborhood_blocker(self, workers, seed):
        records = random_records(seed)
        blocker = SortedNeighborhoodBlocker(key_attribute="show_name", window=4)
        sequential = blocker.block(records)
        parallel = blocker.block(records, executor=executor_for(workers))
        assert parallel.pairs == sequential.pairs
        # the sorted order itself must be reproduced exactly, ties included
        assert parallel.blocks == sequential.blocks


class TestScoringEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_batch_scorer_matches_sequential_scores(self, corpus, model, workers):
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        candidates = sorted(TokenBlocker(max_block_size=60).block(records).pairs)
        assert candidates, "corpus must produce candidate pairs"

        sequential = model.score_pairs(by_id, candidates)
        scorer = BatchScorer(model, executor=executor_for(workers))
        parallel = scorer.score_pairs(by_id, candidates)

        # exact float equality: the batched path must reassemble the very
        # same feature matrix before the classifier sees it
        assert parallel == sequential

    def test_compare_attributes_restriction_is_inherited(self, corpus):
        """Regression: a model's compare_attributes must flow into BatchScorer.

        BatchScorer used to default to no attribute restriction, silently
        scoring (and consolidating) differently from the sequential path for
        models built with ``compare_attributes``.
        """
        restricted = DedupModel(compare_attributes=["name"], seed=0).fit(
            corpus.pairs
        )
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        candidates = sorted(TokenBlocker(max_block_size=60).block(records).pairs)

        sequential = restricted.score_pairs(by_id, candidates)
        scorer = BatchScorer(restricted, executor=executor_for(4))
        assert scorer.score_pairs(by_id, candidates) == sequential

        seq_entities = EntityConsolidator(model=restricted).consolidate(records)
        par_entities = EntityConsolidator(
            model=restricted, executor=executor_for(4)
        ).consolidate(records)
        assert par_entities == seq_entities

    def test_batch_size_one_still_identical(self, corpus, model):
        records = corpus.records[:20]
        by_id = {r.record_id: r for r in records}
        candidates = sorted(TokenBlocker(max_block_size=60).block(records).pairs)
        sequential = model.score_pairs(by_id, candidates)
        scorer = BatchScorer(model, executor=executor_for(4), batch_size=1)
        assert scorer.score_pairs(by_id, candidates) == sequential


class TestConsolidationEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_entities_identical(self, corpus, model, workers):
        records = corpus.records
        sequential = EntityConsolidator(model=model).consolidate(records)
        parallel = EntityConsolidator(
            model=model, executor=executor_for(workers)
        ).consolidate(records)
        assert parallel == sequential

    @pytest.mark.parametrize("seed", SEEDS)
    def test_entities_identical_on_random_corpora(self, model, seed):
        records = random_records(seed, n=60)
        sequential = EntityConsolidator(model=model).consolidate(records)
        parallel = EntityConsolidator(
            model=model, executor=executor_for(8)
        ).consolidate(records)
        assert parallel == sequential

    def test_reports_identical(self, corpus, model):
        records = corpus.records
        seq = EntityConsolidator(model=model)
        seq.consolidate(records)
        par = EntityConsolidator(model=model, executor=executor_for(8))
        par.consolidate(records)
        assert par.last_report.as_dict() == seq.last_report.as_dict()

    def test_process_backend_identical(self, corpus, model):
        records = corpus.records[:40]
        sequential = EntityConsolidator(model=model).consolidate(records)
        executor = ShardedExecutor(
            ExecConfig(parallelism=2, batch_size=64, backend="process")
        )
        try:
            parallel = EntityConsolidator(
                model=model, executor=executor
            ).consolidate(records)
            assert parallel == sequential
        finally:
            executor.close()

    def test_warm_pool_rerun_identical(self, corpus, model):
        """The pool must not change a single bit of the output, warm or not.

        Every fan-out (blocking, warm-state scoring, cluster merging) runs
        on long-lived workers; the first run ships the records, the rerun
        finds them warm.  Both must equal the sequential path exactly — the
        deeper lifecycle suite lives in tests/test_exec_pool.py.
        """
        records = corpus.records
        sequential = EntityConsolidator(model=model).consolidate(records)
        executor = ShardedExecutor(ExecConfig(parallelism=2, batch_size=64))
        try:
            parallel = EntityConsolidator(
                model=model, executor=executor
            ).consolidate(records)
            assert parallel == sequential
            # run again on the same executor: a warm pool must stay identical
            assert (
                EntityConsolidator(model=model, executor=executor).consolidate(
                    records
                )
                == sequential
            )
        finally:
            executor.close()


class TestWarmShardBlocking:
    """Blocking-key extraction in warm workers ships shard ids, not records.

    After the first warm sync mirrors the record set into the pool, repeat
    blocking runs over the same records must ship *zero* record payloads —
    fan-outs carry only shard indices and the workers derive their partition
    from mirrored state.  And of course the keys must be bit-identical to
    the sequential extraction.
    """

    def _warm_executor(self):
        return ShardedExecutor(ExecConfig(parallelism=2, batch_size=64))

    @pytest.mark.parametrize(
        "make_blocker",
        [
            lambda: TokenBlocker(max_block_size=40),
            lambda: NGramBlocker(key_attribute="show_name", n=3, max_block_size=40),
            lambda: SortedNeighborhoodBlocker(key_attribute="show_name", window=4),
        ],
        ids=["token", "ngram", "sorted-neighborhood"],
    )
    def test_warm_blocking_identical_and_ships_no_records_when_warm(
        self, make_blocker
    ):
        records = random_records(3)
        blocker = make_blocker()
        sequential = blocker.block(records)
        executor = self._warm_executor()
        try:
            first = blocker.block(records, executor=executor)
            assert first.pairs == sequential.pairs
            assert first.blocks == sequential.blocks

            pool = executor.ensure_pool()
            shipped_after_warm = pool.records_shipped
            tasks_after_warm = pool.tasks_completed
            second = blocker.block(records, executor=executor)
            assert second.pairs == sequential.pairs
            assert second.blocks == sequential.blocks
            # the rerun fanned out (tasks ran) but shipped no record payloads
            assert pool.tasks_completed > tasks_after_warm
            assert pool.records_shipped == shipped_after_warm
        finally:
            executor.close()

    def test_warm_scope_shared_across_blockers(self):
        """A second blocker over the same records reuses the mirrored state."""
        records = random_records(4)
        executor = self._warm_executor()
        try:
            token = TokenBlocker(max_block_size=40)
            sorted_b = SortedNeighborhoodBlocker(key_attribute="show_name", window=4)
            token_parallel = token.block(records, executor=executor)
            pool = executor.ensure_pool()
            shipped = pool.records_shipped
            sorted_parallel = sorted_b.block(records, executor=executor)
            assert pool.records_shipped == shipped
            assert token_parallel.pairs == token.block(records).pairs
            assert sorted_parallel.pairs == sorted_b.block(records).pairs
        finally:
            executor.close()


class TestInWorkerAssembly:
    """Chunk workers featurize *and* classify; parents get scores + decisions.

    The shipped probabilities must be bit-identical to
    :meth:`DedupModel.score_pairs` at every worker count, and
    the shipped decisions must be exactly ``probability >= threshold`` under
    those same floats — the consolidator trusts them without re-deriving.
    """

    def _candidates(self, corpus):
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        return by_id, sorted(TokenBlocker(max_block_size=60).block(records).pairs)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_scores_and_decisions(self, corpus, model, workers):
        by_id, candidates = self._candidates(corpus)
        sequential = model.score_pairs(by_id, candidates)
        scorer = BatchScorer(model, executor=executor_for(workers))
        scores, decided = scorer.score_and_decide(by_id, candidates)
        assert scores == sequential
        assert decided == {
            pair for pair, prob in sequential.items() if prob >= model.threshold
        }
        # a second pass over a warm pool must not drift
        scores2, decided2 = scorer.score_and_decide(by_id, candidates)
        assert scores2 == sequential and decided2 == decided

    def test_fresh_pool_cold_then_warm_scores_and_decisions(self, corpus, model):
        """A pool of its own: the cold first pass ships the records, the warm
        second pass reuses them (no respawn, nothing re-shipped), and both
        passes match the model exactly."""
        by_id, candidates = self._candidates(corpus)
        sequential = model.score_pairs(by_id, candidates)
        executor = ShardedExecutor(ExecConfig(parallelism=2, batch_size=64))
        try:
            scorer = BatchScorer(model, executor=executor)
            scores, decided = scorer.score_and_decide(by_id, candidates)
            assert scores == sequential
            assert decided == {
                pair for pair, prob in sequential.items() if prob >= model.threshold
            }
            pool = executor.ensure_pool()
            starts, shipped = pool.start_count, pool.records_shipped
            assert shipped > 0
            scores2, decided2 = scorer.score_and_decide(by_id, candidates)
            assert scores2 == sequential and decided2 == decided
            assert pool.start_count == starts
            assert pool.records_shipped == shipped
        finally:
            executor.close()

    def test_non_linear_model_falls_back_to_parent_classification(self, corpus):
        from repro.config import EntityConfig

        bayes = DedupModel(config=EntityConfig(classifier="naive_bayes"), seed=0)
        bayes.fit(corpus.pairs)
        assert bayes.linear_decision() is None
        by_id, candidates = self._candidates(corpus)
        sequential = bayes.score_pairs(by_id, candidates)
        scorer = BatchScorer(bayes, executor=executor_for(4))
        scores, decided = scorer.score_and_decide(by_id, candidates)
        assert scores == sequential
        assert decided == {
            pair for pair, prob in sequential.items() if prob >= bayes.threshold
        }

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_consolidation_entities_identical_with_in_worker_decisions(
        self, corpus, model, workers
    ):
        records = corpus.records
        sequential = EntityConsolidator(model=model).consolidate(records)
        parallel = EntityConsolidator(
            model=model, executor=executor_for(workers)
        ).consolidate(records)
        assert parallel == sequential


class TestFacadeEquivalence:
    def test_datatamer_parallel_knobs_do_not_change_results(self, model):
        """The facade's parallelism knob must not change consolidation."""
        rows = [
            {"name": "Matilda", "theater": "Shubert", "price": 87},
            {"name": "Matilda the Musical", "theater": "Shubert"},
            {"name": "Chicago", "theater": "Ambassador", "price": 75},
            {"name": "Wicked", "theater": "Gershwin"},
            {"name": "Wicked ", "price": 99},
        ]

        def consolidate(parallelism):
            tamer = DataTamer(TamerConfig.small(), parallelism=parallelism)
            try:
                tamer.ingest_structured_records("playbill", rows[:3])
                tamer.ingest_structured_records("ticketmaster", rows[3:])
                tamer.set_dedup_model(model)
                return tamer.consolidate_curated(key_attribute="name")
            finally:
                tamer.close()

        sequential = consolidate(1)
        parallel = consolidate(4)
        assert parallel == sequential

    def test_set_parallelism_rebuilds_executor(self):
        tamer = DataTamer(TamerConfig.small())
        assert tamer.parallelism == 1
        tamer.set_parallelism(4, batch_size=64)
        assert tamer.parallelism == 4
        assert tamer.batch_size == 64
        assert tamer.executor.fans_out
        tamer.close()
