"""Batched candidate-pair scoring on the vectorized kernel.

Pairwise featurization used to re-tokenize each record's text blob for every
pair it appears in; the :class:`~repro.entity.kernel.ScoringKernel` replaces
that with interned per-record token/attribute data computed once.
:class:`BatchScorer` scores candidate pairs through a
:class:`~repro.exec.executor.ShardedExecutor` with scores exactly those of
:meth:`repro.entity.dedup.DedupModel.score_pairs`.

:func:`cached_tokenize` — the LRU-cached, bit-identical replacement for
:func:`repro.text.tokenizer.tokenize` — remains the kernel's default
tokenizer here, so the *blob → tokens* step is shared even across scorer
(and kernel) instances within a process.

With ``parallelism == 1`` a scorer featurizes every pair with one
:meth:`~repro.entity.kernel.ScoringKernel.features_for_pairs` call.  Above
it, records are shipped to the persistent pool's long-lived workers *once*
through :meth:`~repro.exec.pool.PersistentWorkerPool.sync_records` (content
deltas only on later calls) and each chunk payload is just pair ids — the
workers featurize against their warm kernels.  Results are identical
either way because the kernel is a pure function of (records, pairs).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..entity.kernel import ScoringKernel
from ..entity.similarity import FEATURE_NAMES
from ..text.tokenizer import tokenize
from .executor import ShardedExecutor
from .pool import warm_featurize, warm_score

_TOKEN_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _token_tuple(text: str) -> Tuple[str, ...]:
    return tuple(tokenize(text))


def cached_tokenize(text: str) -> List[str]:
    """LRU-cached :func:`~repro.text.tokenizer.tokenize` (same output)."""
    return list(_token_tuple(text))


def token_cache_info():
    """Hit/miss statistics of the shared token cache."""
    return _token_tuple.cache_info()


def clear_token_cache() -> None:
    """Drop all cached tokenizations (mainly for tests and benchmarks)."""
    _token_tuple.cache_clear()


class BatchScorer:
    """Score candidate pairs in chunks, equivalently to sequential scoring."""

    def __init__(
        self,
        model,
        executor: Optional[ShardedExecutor] = None,
        batch_size: Optional[int] = None,
        compare_attributes: Optional[Sequence[str]] = None,
        kernel: Optional[ScoringKernel] = None,
    ):
        self._model = model
        self._executor = executor if executor is not None else ShardedExecutor()
        self._batch_size = (
            batch_size if batch_size is not None else self._executor.batch_size
        )
        if compare_attributes is None:
            # inherit the model's restriction — scoring with a different
            # attribute set than DedupModel.score_pairs would silently break
            # the sequential-equivalence guarantee
            compare_attributes = getattr(model, "compare_attributes", None)
        self._compare_attributes = (
            list(compare_attributes) if compare_attributes is not None else None
        )
        # a caller-supplied kernel (the streaming curator's, the
        # consolidator's) carries its interned records across calls; its
        # attribute restriction is authoritative for the inline path, so
        # the pool workers must featurize under the same one — otherwise
        # scores would silently depend on the worker count
        if kernel is not None:
            self._kernel = kernel
            self._compare_attributes = kernel.compare_attributes
        else:
            self._kernel = ScoringKernel(
                compare_attributes=self._compare_attributes,
                tokenizer=cached_tokenize,
            )
        #: record ids deleted since the last warm-state sync (streaming)
        self._pending_discards: Set[str] = set()

    @property
    def batch_size(self) -> int:
        """Number of pairs featurized per chunk."""
        return self._batch_size

    @property
    def kernel(self) -> ScoringKernel:
        """The scoring kernel holding the interned per-record cache."""
        return self._kernel

    def discard_record(self, record_id: str) -> None:
        """Forget a deleted record (streaming deletes).

        Drops it from the local kernel immediately and queues it for the
        next warm-state sync so pool workers forget it too.
        """
        self._kernel.discard(record_id)
        if self._executor.fans_out:
            self._pending_discards.add(record_id)

    def _map_warm(
        self,
        records_by_id: Dict[str, object],
        pairs: List[Tuple[str, str]],
        worker,
        *args,
    ) -> List[object]:
        """Fan chunked pair ids out to the warm pool; per-chunk results.

        Record deltas ship once through the pool's sync protocol, then each
        chunk payload is only pair ids — the workers' long-lived kernels
        do pure columnar scoring.  Each chunk runs
        ``worker(restriction, *args, chunk)`` with the kernel's attribute
        restriction.
        """
        pool = self._executor.ensure_pool()
        wanted = {record_id for pair in pairs for record_id in pair}
        # a queued delete whose id is referenced again is a re-insert:
        # the record is alive, so it must never be shipped as a delete
        self._pending_discards -= wanted
        deletes = sorted(self._pending_discards)
        pool.sync_records(
            {record_id: records_by_id[record_id] for record_id in wanted},
            deletes=deletes,
        )
        restriction = (
            tuple(self._compare_attributes)
            if self._compare_attributes is not None
            else None
        )
        chunks = self._executor.chunk(pairs, self._batch_size)
        results = self._executor.map_shards(
            partial(worker, restriction, *args),
            [tuple(chunk) for chunk in chunks],
            always_fan_out=True,
        )
        # only a completed fan-out retires the queued deletes — if the
        # pool died mid-batch they stay queued for the next generation
        self._pending_discards.difference_update(deletes)
        return results

    def featurize_pairs(
        self,
        records_by_id: Dict[str, object],
        candidate_pairs: Sequence[Tuple[str, str]],
    ) -> np.ndarray:
        """Feature matrix for ``candidate_pairs``, one row per pair in order."""
        pairs = list(candidate_pairs)
        if not pairs:
            return np.zeros((0, len(FEATURE_NAMES)), dtype=float)
        if not self._executor.fans_out:
            return self._kernel.features_for_pairs(records_by_id, pairs)
        matrices = self._map_warm(records_by_id, pairs, warm_featurize)
        return np.vstack(matrices)

    def score_and_decide(
        self,
        records_by_id: Dict[str, object],
        candidate_pairs: Sequence[Tuple[str, str]],
    ) -> Tuple[Dict[Tuple[str, str], float], Set[Tuple[str, str]]]:
        """(pair → probability, set of pairs decided duplicates).

        With a fitted linear model and a parallel executor, the feature
        matrix never reaches the parent: each pool worker assembles its
        chunk's rows *and* applies the linear decision, shipping back one
        float and one bool per pair.  :func:`~repro.ml.linear.linear_proba`
        makes the chunked probabilities bit-identical to
        :meth:`DedupModel.score_pairs` on the full matrix, and the shipped
        decisions are exactly ``probability >= threshold`` under the same
        floats.  Inline executors and models without a linear decision
        (naive Bayes, unfitted) featurize-then-classify in the parent.
        """
        pairs = list(candidate_pairs)
        if not pairs:
            return {}, set()
        decision = getattr(self._model, "linear_decision", None)
        decision = decision() if callable(decision) else None
        threshold = self._model.threshold
        if decision is None or not self._executor.fans_out:
            features = self.featurize_pairs(records_by_id, pairs)
            probabilities = self._model.predict_proba_features(features)
            scores = {
                pair: float(prob) for pair, prob in zip(pairs, probabilities)
            }
            matches = {pair for pair, prob in scores.items() if prob >= threshold}
            return scores, matches
        weights, bias, _ = decision
        # plain floats pickle exactly; the workers rebuild the array
        shipped_weights = tuple(float(weight) for weight in weights)
        shipped_bias = float(bias)
        results = self._map_warm(
            records_by_id,
            pairs,
            warm_score,
            shipped_weights,
            shipped_bias,
            threshold,
        )
        scores: Dict[Tuple[str, str], float] = {}
        matches: Set[Tuple[str, str]] = set()
        cursor = 0
        for probabilities, decisions in results:
            for prob, decided in zip(probabilities, decisions):
                pair = pairs[cursor]
                scores[pair] = float(prob)
                if decided:
                    matches.add(pair)
                cursor += 1
        return scores, matches

    def score_pairs(
        self,
        records_by_id: Dict[str, object],
        candidate_pairs: Sequence[Tuple[str, str]],
    ) -> Dict[Tuple[str, str], float]:
        """Pair → duplicate probability, identical to the sequential scorer.

        Pool workers featurize — and, for linear models, classify — their
        chunks; the reassembled probabilities match
        :meth:`DedupModel.score_pairs` bit for bit either way.
        """
        scores, _ = self.score_and_decide(records_by_id, candidate_pairs)
        return scores
