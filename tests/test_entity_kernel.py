"""Equivalence and soundness tests for the vectorized scoring kernel.

Two guarantees are enforced here, both **exact** (no tolerances):

1. :class:`repro.entity.kernel.ScoringKernel` produces feature rows that
   are bit-for-bit identical to the scalar reference implementation
   :func:`repro.entity.similarity.pair_features` — for randomized corpora,
   hypothesis-generated records, ``compare_attributes`` restrictions,
   empty/None/numeric/boolean values, and regardless of interning order or
   chunking.

2. :class:`repro.entity.kernel.CandidateFilter` never prunes a pair the
   classifier would have labeled a match at the configured threshold, so
   consolidation output (entities, clusters, matched pairs, scores of
   surviving pairs) is identical with filtering on or off.
"""

import math
import random
import string
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EntityConfig
from repro.entity.blocking import TokenBlocker, full_pair_count, full_pairs
from repro.entity.consolidation import EntityConsolidator
from repro.entity.dedup import DedupModel
from repro.entity.kernel import CandidateFilter, ScoringKernel, TokenVocabulary
from repro.entity.record import Record
from repro.entity.similarity import FEATURE_NAMES, PairFeatureExtractor, pair_features
from repro.exec import ShardedExecutor
from repro.exec.batch import BatchScorer
from repro.config import ExecConfig
from repro.stream.delta_curation import DeltaCurator
from repro.workloads import DedupCorpusGenerator


def _random_records(seed: int, n: int, max_attrs: int = 6):
    """Messy random records: text, numerics, bools, None, empty strings."""
    rng = random.Random(seed)
    alphabet = string.ascii_letters + "  ,.$&0123456789"

    def value():
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.25:
            return ""
        if roll < 0.40:
            return rng.randint(-500, 500)
        if roll < 0.50:
            return rng.random() * 100
        if roll < 0.55:
            return rng.random() < 0.5
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 28))
        )

    records = []
    for index in range(n):
        attrs = {}
        for _ in range(rng.randint(0, max_attrs)):
            name = "".join(
                rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 5))
            )
            attrs[name] = value()
        records.append(Record.from_dict(f"r{index}", "s", attrs))
    return records


def _all_pairs(records):
    ids = [r.record_id for r in records]
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]


def _scalar_matrix(by_id, pairs, compare=None):
    return np.vstack(
        [pair_features(by_id[a], by_id[b], compare) for a, b in pairs]
    )


def _memo_key(vid_a, vid_b):
    """The string-sim memo's key for a value-id pair."""
    return (vid_a << 32) | vid_b


class TestKernelBitEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_corpora_exact(self, seed):
        records = _random_records(seed, n=14)
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        kernel = ScoringKernel()
        assert np.array_equal(
            kernel.features_for_pairs(by_id, pairs), _scalar_matrix(by_id, pairs)
        )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_compare_attributes_restriction_exact(self, seed):
        records = _random_records(seed, n=12)
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        # restrict to a mix of present and absent attribute names
        present = sorted({k for r in records for k in r.as_dict()})[:3]
        compare = present + ["definitely_absent"]
        kernel = ScoringKernel(compare_attributes=compare)
        assert np.array_equal(
            kernel.features_for_pairs(by_id, pairs),
            _scalar_matrix(by_id, pairs, compare),
        )

    def test_dedup_corpus_exact(self):
        corpus = DedupCorpusGenerator(seed=31).generate(
            n_entities=40, variants_per_entity=2
        )
        by_id = {r.record_id: r for r in corpus.records}
        pairs = sorted(TokenBlocker(max_block_size=100).block(corpus.records).pairs)
        kernel = ScoringKernel()
        assert np.array_equal(
            kernel.features_for_pairs(by_id, pairs), _scalar_matrix(by_id, pairs)
        )

    def test_empty_and_degenerate_records(self):
        records = [
            Record.from_dict("a", "s", {}),
            Record.from_dict("b", "s", {"x": None, "y": ""}),
            Record.from_dict("c", "s", {"x": "...", "y": "$$$"}),  # normalizes empty
            Record.from_dict("d", "s", {"x": "hello world", "n": 0}),
            Record.from_dict("e", "s", {"x": "hello world", "n": False}),
        ]
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        kernel = ScoringKernel()
        assert np.array_equal(
            kernel.features_for_pairs(by_id, pairs), _scalar_matrix(by_id, pairs)
        )

    def test_independent_of_interning_order_and_chunking(self):
        records = _random_records(21, n=12)
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        # kernel A interns through featurization in pair order; kernel B
        # pre-interns in reverse, then featurizes pair chunks of 3
        kernel_a = ScoringKernel()
        full = kernel_a.features_for_pairs(by_id, pairs)
        kernel_b = ScoringKernel()
        kernel_b.intern_all(reversed(records))
        chunked = np.vstack(
            [
                kernel_b.features_for_pairs(by_id, pairs[i : i + 3])
                for i in range(0, len(pairs), 3)
            ]
        )
        assert np.array_equal(full, chunked)

    def test_reinterning_updated_record(self):
        kernel = ScoringKernel()
        before = Record.from_dict("x", "s", {"name": "Matilda"})
        after = Record.from_dict("x", "s", {"name": "Wicked", "price": 10})
        other = Record.from_dict("y", "s", {"name": "Wicked", "price": 10})
        by_id = {"x": before, "y": other}
        row_before = kernel.features_for_pairs(by_id, [("x", "y")])
        by_id["x"] = after
        row_after = kernel.features_for_pairs(by_id, [("x", "y")])
        assert not np.array_equal(row_before, row_after)
        assert np.array_equal(
            row_after, _scalar_matrix(by_id, [("x", "y")])
        )
        kernel.discard("x")
        assert np.array_equal(
            kernel.features_for_pairs(by_id, [("x", "y")]),
            row_after,
        )

    @given(
        st.lists(
            st.dictionaries(
                st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
                st.one_of(
                    st.text(alphabet=string.ascii_letters + " .,&$0123456789",
                            max_size=24),
                    st.integers(min_value=-10**6, max_value=10**6),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                    st.booleans(),
                    st.none(),
                ),
                max_size=6,
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_records_exact(self, field_dicts):
        records = [
            Record.from_dict(f"h{i}", "s", values)
            for i, values in enumerate(field_dicts)
        ]
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        kernel = ScoringKernel()
        assert np.array_equal(
            kernel.features_for_pairs(by_id, pairs), _scalar_matrix(by_id, pairs)
        )


class TestRewiredCallersExact:
    @pytest.fixture(scope="class")
    def corpus(self):
        return DedupCorpusGenerator(seed=32).generate(
            n_entities=40, variants_per_entity=2
        )

    @pytest.fixture(scope="class")
    def model(self, corpus):
        return DedupModel(seed=0).fit(corpus.pairs)

    def test_extractor_batch_equals_single_pair(self, corpus):
        records = corpus.records[:30]
        extractor = PairFeatureExtractor(records)
        pairs = _all_pairs(records)[:120]
        batched = extractor.features_for_pairs(pairs)
        stacked = np.vstack(
            [extractor.features_for_pair(a, b) for a, b in pairs]
        )
        assert np.array_equal(batched, stacked)

    def test_model_score_pairs_matches_scalar_loop(self, corpus, model):
        records = corpus.records[:40]
        by_id = {r.record_id: r for r in records}
        pairs = sorted(TokenBlocker(max_block_size=60).block(records).pairs)
        scored = model.score_pairs(by_id, pairs)
        X = _scalar_matrix(by_id, pairs)
        expected = {
            pair: float(p)
            for pair, p in zip(pairs, model.predict_proba_features(X))
        }
        assert scored == expected

    def test_batch_scorer_matches_model_across_worker_counts(self, corpus, model):
        records = corpus.records[:40]
        by_id = {r.record_id: r for r in records}
        pairs = sorted(TokenBlocker(max_block_size=60).block(records).pairs)
        expected = model.score_pairs(by_id, pairs)
        for workers in (4, 1):
            executor = ShardedExecutor(ExecConfig(parallelism=workers, batch_size=17))
            try:
                scorer = BatchScorer(model, executor=executor)
                assert scorer.score_pairs(by_id, pairs) == expected
            finally:
                executor.close()

    def test_model_featurize_matches_scalar(self, corpus):
        model = DedupModel(seed=0)
        X, y = model.featurize(corpus.pairs[:80])
        expected = np.vstack(
            [
                pair_features(p.record_a, p.record_b)
                for p in corpus.pairs[:80]
            ]
        )
        assert np.array_equal(X, expected)
        assert y.tolist() == [
            1 if p.is_duplicate else 0 for p in corpus.pairs[:80]
        ]


class TestCandidateFilterSoundness:
    @pytest.fixture(scope="class")
    def model(self):
        train = DedupCorpusGenerator(seed=103).generate(n_entities=60)
        return DedupModel(seed=0).fit(train.pairs)

    @pytest.fixture(scope="class")
    def corpus(self):
        return DedupCorpusGenerator(seed=33).generate(
            n_entities=50, variants_per_entity=3
        )

    def test_never_prunes_a_classifier_match(self, model, corpus):
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        pairs = sorted(TokenBlocker(max_block_size=200).block(records).pairs)
        kernel = ScoringKernel()
        candidate_filter = CandidateFilter.from_model(model)
        assert candidate_filter is not None
        survivors, pruned, stats = candidate_filter.split(kernel, by_id, pairs)
        # exact partition of the input
        assert set(survivors) | pruned == set(pairs)
        assert not (set(survivors) & pruned)
        assert stats.examined == len(pairs)
        assert stats.pruned == len(pruned)
        # every pruned pair scores strictly below threshold on the scalar path
        if pruned:
            X = _scalar_matrix(by_id, sorted(pruned))
            probabilities = model.predict_proba_features(X)
            assert float(np.max(probabilities)) < model.threshold
        # the filter actually prunes on this corpus (the perf claim)
        assert len(pruned) > 0

    def test_never_prunes_on_random_corpora(self, model):
        for seed in (41, 42, 43):
            records = _random_records(seed, n=25)
            by_id = {r.record_id: r for r in records}
            pairs = _all_pairs(records)
            kernel = ScoringKernel()
            candidate_filter = CandidateFilter.from_model(model)
            survivors, pruned, _ = candidate_filter.split(kernel, by_id, pairs)
            if not pruned:
                continue
            X = _scalar_matrix(by_id, sorted(pruned))
            assert float(np.max(model.predict_proba_features(X))) < model.threshold

    def test_consolidation_identical_with_and_without_filter(self, model, corpus):
        records = corpus.records
        with_filter = EntityConsolidator(
            model=model, config=EntityConfig(candidate_filtering=True)
        )
        entities_on = with_filter.consolidate(records)
        without_filter = EntityConsolidator(
            model=model, config=EntityConfig(candidate_filtering=False)
        )
        entities_off = without_filter.consolidate(records)
        assert entities_on == entities_off
        report_on = with_filter.last_report
        report_off = without_filter.last_report
        assert report_on.pruned_pairs > 0
        assert report_off.pruned_pairs == 0
        # pre-filter candidate accounting is unchanged
        assert report_on.candidate_pairs == report_off.candidate_pairs
        assert report_on.matched_pairs == report_off.matched_pairs
        assert report_on.clusters == report_off.clusters

    def test_scores_of_surviving_pairs_identical(self, model, corpus):
        records = corpus.records[:60]
        by_id = {r.record_id: r for r in records}
        pairs = sorted(TokenBlocker(max_block_size=200).block(records).pairs)
        kernel = ScoringKernel()
        candidate_filter = CandidateFilter.from_model(model)
        survivors, _, _ = candidate_filter.split(kernel, by_id, pairs)
        # the survivor FEATURE rows are bit-identical to the full run's —
        # probabilities are predicted over a smaller matrix, where BLAS
        # summation may flip the last ulp, so those are bounded instead
        full_matrix = kernel.features_for_pairs(by_id, pairs)
        survivor_matrix = kernel.features_for_pairs(by_id, survivors)
        index_of = {pair: row for row, pair in enumerate(pairs)}
        rows = [index_of[pair] for pair in survivors]
        assert np.array_equal(survivor_matrix, full_matrix[rows])
        all_scores = model.score_pairs(by_id, pairs)
        survivor_scores = model.score_pairs(by_id, survivors)
        assert set(survivor_scores) == set(survivors)
        assert all(
            abs(survivor_scores[p] - all_scores[p]) <= 1e-12 for p in survivors
        )
        matched_full = {
            p for p in survivors if all_scores[p] >= model.threshold
        }
        matched_filtered = {
            p for p, prob in survivor_scores.items() if prob >= model.threshold
        }
        assert matched_filtered == matched_full

    def test_naive_bayes_disables_filtering(self, corpus):
        model = DedupModel(config=EntityConfig(classifier="naive_bayes"), seed=0)
        model.fit(corpus.pairs)
        assert model.linear_decision() is None
        assert CandidateFilter.from_model(model) is None
        # consolidation still runs (filter silently off)
        consolidator = EntityConsolidator(model=model)
        consolidator.consolidate(corpus.records[:30])
        assert consolidator.last_report.pruned_pairs == 0

    def test_extreme_thresholds_disable_filtering(self, model, corpus):
        for threshold in (0.0, 1.0):
            clamped = DedupModel(
                config=EntityConfig(match_threshold=threshold), seed=0
            )
            clamped.fit(corpus.pairs)
            assert CandidateFilter.from_model(clamped) is None


class _LinearStub:
    """A hand-weighted linear 'model' for exercising the prefix filter."""

    def __init__(self, weights, bias, threshold):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = bias
        self.threshold = threshold

    def linear_decision(self):
        return (
            self.weights,
            self.bias,
            math.log(self.threshold / (1.0 - self.threshold)),
        )

    def probability(self, features):
        z = float(features @ self.weights + self.bias)
        return 1.0 / (1.0 + math.exp(-z))


class TestPrefixLengthFilters:
    def _token_heavy_stub(self):
        # only token_jaccard matters: matching needs jaccard >= ~0.5, so the
        # derived min_token_jaccard is positive and the PPJoin-style
        # length/prefix filters activate
        weights = np.zeros(len(FEATURE_NAMES))
        weights[FEATURE_NAMES.index("token_jaccard")] = 8.0
        return _LinearStub(weights, bias=-4.0, threshold=0.5)

    def test_min_token_jaccard_positive(self):
        stub = self._token_heavy_stub()
        candidate_filter = CandidateFilter.from_model(stub)
        assert candidate_filter.min_token_jaccard > 0.4

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_prefix_filter_never_drops_a_match(self, seed):
        stub = self._token_heavy_stub()
        candidate_filter = CandidateFilter.from_model(stub)
        records = _random_records(seed, n=30)
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        kernel = ScoringKernel()
        survivors, pruned, stats = candidate_filter.split(kernel, by_id, pairs)
        assert set(survivors) | pruned == set(pairs)
        X = _scalar_matrix(by_id, sorted(pruned)) if pruned else None
        if X is not None:
            for row in X:
                assert stub.probability(row) < stub.threshold

    def test_prefix_filter_prunes_disjoint_token_sets(self):
        stub = self._token_heavy_stub()
        candidate_filter = CandidateFilter.from_model(stub)
        records = [
            Record.from_dict("a", "s", {"name": "alpha beta gamma delta"}),
            Record.from_dict("b", "s", {"name": "epsilon zeta eta theta"}),
            Record.from_dict("c", "s", {"name": "alpha beta gamma delta"}),
        ]
        by_id = {r.record_id: r for r in records}
        kernel = ScoringKernel()
        survivors, pruned, stats = candidate_filter.split(
            kernel, by_id, [("a", "b"), ("a", "c")]
        )
        assert ("a", "c") in survivors
        assert ("a", "b") in pruned
        assert stats.pruned_by_prefix >= 1


class TestStreamingFilterConsistency:
    @pytest.fixture(scope="class")
    def model(self):
        train = DedupCorpusGenerator(seed=103).generate(n_entities=60)
        return DedupModel(seed=0).fit(train.pairs)

    def _documents(self, corpus, count):
        documents = []
        for index, record in enumerate(corpus.records[:count]):
            documents.append(dict(record.as_dict(), _id=f"doc:{index}"))
        return documents

    def test_incremental_matches_batch_with_filter(self, model):
        corpus = DedupCorpusGenerator(seed=34).generate(
            n_entities=30, variants_per_entity=2
        )
        documents = self._documents(corpus, 60)
        curator = DeltaCurator(model)
        curator.bootstrap(documents[:40])
        assert curator.entities() == curator.batch_reference()
        assert curator.pruned_count > 0

        # apply inserts, updates and deletes; equivalence must hold throughout
        from repro.stream.changelog import ChangeEvent

        curator.apply_events(
            [
                ChangeEvent(seq=1, op="insert", doc_id=d["_id"], document=d)
                for d in documents[40:55]
            ]
        )
        assert curator.entities() == curator.batch_reference()

        update = dict(documents[3])
        update["name"] = "Completely Renamed Entity"
        curator.apply_events(
            [ChangeEvent(seq=2, op="update", doc_id=update["_id"], document=update)]
        )
        curator.apply_events(
            [
                ChangeEvent(
                    seq=3, op="delete", doc_id=documents[10]["_id"], document=None
                )
            ]
        )
        assert curator.entities() == curator.batch_reference()

    def test_pruned_pair_revives_when_record_updated_to_match(self, model):
        from repro.stream.changelog import ChangeEvent

        base = {"_id": "p:0", "name": "Shubert Theatre", "type": "Theater",
                "city": "New York"}
        far = {"_id": "p:1", "name": "zzz qqq", "type": "Venue"}
        curator = DeltaCurator(model)
        curator.bootstrap([base, far])
        curator.entities()
        # the dissimilar pair should be pruned (never featurized)
        assert curator.pruned_count >= 0  # may or may not share a block
        # now make p:1 identical to p:0 — they must merge
        twin = dict(base)
        twin["_id"] = "p:1"
        curator.apply_events(
            [ChangeEvent(seq=5, op="update", doc_id="p:1", document=twin)]
        )
        entities = curator.entities()
        assert entities == curator.batch_reference()
        merged = [e for e in entities if e.size == 2]
        assert len(merged) == 1
        assert sorted(merged[0].member_record_ids) == ["p:0", "p:1"]


class TestFullPairAccounting:
    def test_full_pair_count_matches_materialized(self):
        records = _random_records(61, n=17)
        assert full_pair_count(len(records)) == len(full_pairs(records))
        assert full_pair_count(0) == 0
        assert full_pair_count(1) == 0


class TestTokenVocabulary:
    def test_interning_is_stable_and_lex_ranks_consistent(self):
        vocab = TokenVocabulary()
        first = vocab.intern("walking")
        second = vocab.intern("dead")
        assert vocab.intern("walking") == first
        assert vocab.string(first) == "walking"
        assert len(vocab) == 2
        ranks = vocab.lex_ranks()
        assert ranks[second] < ranks[first]  # "dead" < "walking"
        # growing the vocabulary preserves pairwise order relations
        vocab.intern("aardvark")
        grown = vocab.lex_ranks()
        assert (grown[second] < grown[first]) == (ranks[second] < ranks[first])


class TestCheapFeatureStash:
    """Survivors are featurized from the row tables the filter filled, with
    no per-pair hand-off — and the rows stay bit-identical."""

    @pytest.fixture(scope="class")
    def model(self):
        train = DedupCorpusGenerator(seed=103).generate(n_entities=60)
        return DedupModel(seed=0).fit(train.pairs)

    def test_stash_assisted_rows_are_bit_identical(self, model):
        corpus = DedupCorpusGenerator(seed=41).generate(
            n_entities=15, variants_per_entity=3
        )
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        candidate_filter = CandidateFilter.from_model(model)
        assert candidate_filter is not None

        kernel = ScoringKernel()
        survivors, pruned, _ = candidate_filter.split(kernel, by_id, pairs)
        assert survivors and pruned  # both paths exercised
        assert kernel.cached_records == len(records)
        rows_after_split = kernel.table_rows
        assisted = kernel.features_for_pairs(by_id, survivors)
        assert kernel.table_rows == rows_after_split  # the filter's rows reused

        fresh = ScoringKernel().features_for_pairs(by_id, survivors)
        assert np.array_equal(assisted, fresh)
        assert np.array_equal(assisted, _scalar_matrix(by_id, survivors))

    def test_stash_invalidated_when_record_reinterned(self, model):
        corpus = DedupCorpusGenerator(seed=42).generate(
            n_entities=8, variants_per_entity=3
        )
        records = corpus.records
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        candidate_filter = CandidateFilter.from_model(model)
        kernel = ScoringKernel()
        survivors, _, _ = candidate_filter.split(kernel, by_id, pairs)
        assert survivors
        # change one record behind the filter's back: it must be re-interned
        # (identity validation), never served from the rows the filter read
        victim = survivors[0][0]
        by_id[victim] = Record.from_dict(
            victim, "s", {"name": "entirely different content now"}
        )
        rows = kernel.features_for_pairs(by_id, survivors)
        assert np.array_equal(rows, _scalar_matrix(by_id, survivors))

    def test_mixed_stashed_and_fresh_rows_assemble_identically(self, model):
        records = _random_records(73, n=30)
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        candidate_filter = CandidateFilter.from_model(model)
        kernel = ScoringKernel()
        survivors, pruned, _ = candidate_filter.split(kernel, by_id, pairs)
        # featurize survivors AND pruned pairs together on the kernel the
        # filter just ran on
        mixed = sorted(pairs)
        rows = kernel.features_for_pairs(by_id, mixed)
        assert np.array_equal(rows, _scalar_matrix(by_id, mixed))


class TestStringSimMemoRotation:
    """The string-sim memo rotates generations instead of clearing.

    Regression: the memo used to be wiped outright when it hit the size
    limit, so a steady-state workload alternated between a full cache and an
    empty one — every wipe triggered a recompute storm whose hit rate
    dropped to exactly zero until the memo refilled.  The two-generation
    scheme demotes the full generation instead, so recently used keys stay
    findable (and get promoted back) across the boundary.
    """

    def test_keys_survive_the_rotation_boundary(self):
        kernel = ScoringKernel()
        kernel._memo_limit = 8
        for index in range(8):
            kernel._memo_insert(_memo_key(index, index + 1000), float(index))
        # crossing the limit rotates; with the old clear() this lost every key
        kernel._memo_insert(_memo_key(99, 1099), 0.5)
        found = kernel._string_sims(np.array([3]), np.array([1003]))
        assert found.tolist() == [3.0]
        assert (kernel.memo_hits, kernel.memo_misses) == (1, 0)
        # the promoted key is back in the live generation, not just the old one
        assert _memo_key(3, 1003) in kernel._string_sim_new

    def test_memo_stays_bounded_across_many_rotations(self):
        kernel = ScoringKernel()
        kernel._memo_limit = 16
        for index in range(500):
            kernel._memo_insert(_memo_key(index, index + 10_000), 0.0)
        assert kernel.memo_size <= 2 * kernel._memo_limit

    def test_hit_rate_stays_positive_across_rotation(self):
        # every record shares the "name" attribute with a distinct value, so
        # all 45 pairs produce distinct memo keys — more than the limit
        # (forcing a rotation mid-workload) but fewer than two generations
        # hold, the steady state the rotation scheme is built for
        records = [
            Record.from_dict(f"r{i}", "s", {"name": f"entity number {i} inc"})
            for i in range(10)
        ]
        by_id = {r.record_id: r for r in records}
        pairs = _all_pairs(records)
        kernel = ScoringKernel()
        kernel._memo_limit = 30
        first = kernel.features_for_pairs(by_id, pairs)
        assert kernel.memo_misses > kernel._memo_limit  # rotation happened
        hits_before = kernel.memo_hits
        second = kernel.features_for_pairs(by_id, pairs)
        # repeated keys keep hitting even though the memo rotated mid-stream;
        # the old clear()-at-limit behaviour threw the whole working set away
        assert kernel.memo_hits > hits_before
        assert np.array_equal(first, second)
        assert np.array_equal(first, _scalar_matrix(by_id, pairs))


class TestMemoLookupAccounting:
    """Regression: a memo miss used to be counted twice — once when the
    batch prefetch found it missing, again as a hit when the row assembly
    read the prefetched value — so hits + misses overstated the lookups."""

    def test_each_lookup_counted_once(self):
        corpus = DedupCorpusGenerator(seed=31).generate(
            n_entities=40, variants_per_entity=2
        )
        by_id = {r.record_id: r for r in corpus.records}
        pairs = sorted(TokenBlocker(max_block_size=100).block(corpus.records).pairs)
        # the scalar loop's memo lookups: shared attributes whose two
        # normalized values are non-empty and differ
        lookups, distinct = 0, set()
        for a, b in pairs:
            record_a, record_b = by_id[a], by_id[b]
            attrs_a = {k for k, v in record_a.as_dict().items() if v not in (None, "")}
            attrs_b = {k for k, v in record_b.as_dict().items() if v not in (None, "")}
            for attr in attrs_a & attrs_b:
                norm_a, norm_b = record_a.normalized(attr), record_b.normalized(attr)
                if norm_a and norm_b and norm_a != norm_b:
                    lookups += 1
                    distinct.add((norm_a, norm_b))
        assert lookups > len(distinct) > 0

        kernel = ScoringKernel()
        kernel.features_for_pairs(by_id, pairs)
        assert kernel.memo_misses == len(distinct)
        assert kernel.memo_hits + kernel.memo_misses == lookups
        # a warm rerun looks everything up again and misses nothing
        kernel.features_for_pairs(by_id, pairs)
        assert kernel.memo_misses == len(distinct)
        assert kernel.memo_hits + kernel.memo_misses == 2 * lookups


def _python_calls(action):
    """Python-frame ``call`` events while ``action`` runs (this thread)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


class TestKernelRowTables:
    """The per-pair Python gate and bounded row tables under streaming
    churn."""

    @pytest.fixture(scope="class")
    def model(self):
        train = DedupCorpusGenerator(seed=103).generate(n_entities=60)
        return DedupModel(seed=0).fit(train.pairs)

    def test_python_calls_do_not_scale_with_pairs(self, model):
        corpus = DedupCorpusGenerator(seed=84).generate(
            n_entities=60, variants_per_entity=3
        )
        by_id = {r.record_id: r for r in corpus.records}
        pairs = random.Random(85).sample(_all_pairs(corpus.records), 4000)
        small = pairs[::10]
        candidate_filter = CandidateFilter.from_model(model)
        kernel = ScoringKernel()

        def run(batch):
            candidate_filter.split(kernel, by_id, batch)
            kernel.features_for_pairs(by_id, batch)

        # interns every record and warms the memo and the order table, so
        # both measurements below see only the per-batch work
        run(pairs)
        assert len({record for pair in small for record in pair}) > 0.9 * len(by_id)
        calls_small = _python_calls(lambda: run(small))
        calls_large = _python_calls(lambda: run(pairs))
        assert calls_large <= 2 * calls_small, (calls_small, calls_large)

    def test_row_tables_stay_bounded_under_churn(self, model):
        """20 000 update/delete/re-insert events through a curator that is
        never rebuilt: rows of discarded or re-interned records are reused."""
        from repro.stream.changelog import ChangeEvent

        corpus = DedupCorpusGenerator(seed=86).generate(
            n_entities=60, variants_per_entity=3
        )
        documents = {
            f"doc:{index}": dict(record.as_dict(), _id=f"doc:{index}")
            for index, record in enumerate(corpus.records)
        }
        names = [doc["name"] for doc in documents.values()]
        curator = DeltaCurator(model)
        curator.bootstrap(documents.values())
        curator.entities()
        live = set(documents)
        rng = random.Random(87)
        events, seq = 0, 0
        while events < 20_000:
            batch = {}
            for _ in range(100):
                doc_id = rng.choice(sorted(documents))
                seq += 1
                if doc_id not in live:
                    op, document = "insert", documents[doc_id]
                    live.add(doc_id)
                elif rng.random() < 0.25:
                    op, document = "delete", None
                    live.discard(doc_id)
                else:
                    op = "update"
                    document = dict(documents[doc_id], name=rng.choice(names))
                    documents[doc_id] = document
                batch[doc_id] = ChangeEvent(
                    seq=seq, op=op, doc_id=doc_id, document=document
                )
            events += 100
            curator.apply_events(batch.values())
            curator.entities()
            assert curator.kernel.table_rows <= 2 * curator.record_count
        assert curator.entities() == curator.batch_reference()
