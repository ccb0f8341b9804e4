"""Entity consolidation: from raw records to composite entities.

This module ties the consolidation pipeline together: blocking → pairwise
scoring with a trained :class:`~repro.entity.dedup.DedupModel` → union-find
clustering → merging each cluster into one composite entity record under a
configurable merge policy.

When a parallel :class:`~repro.exec.executor.ShardedExecutor` is supplied,
only pairwise scoring fans out, over bounded chunks on the warm process pool
(through :class:`~repro.exec.batch.BatchScorer`).  Blocking and merging run
in the caller on every executor, because each costs less inline than the
IPC to ship it; union-find clustering is cheap and order-sensitive.  The
parallel path is bit-identical to the sequential one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..config import EntityConfig
from ..errors import EntityResolutionError
from ..exec.executor import ShardedExecutor
from ..obs import TelemetryHub, default_hub
from .blocking import (
    BlockingResult,
    TokenBlocker,
    apply_pair_filter,
    full_pairs,
    make_blocker,
)
from .clustering import cluster_pairs
from .dedup import DedupModel
from .kernel import CandidateFilter, ScoringKernel
from .record import Record


#: The stages :attr:`ConsolidationReport.stage_seconds` times, in run order.
#: ``filter`` runs inside blocking but is timed apart from it.
CONSOLIDATION_STAGES = ("block", "filter", "featurize", "classify", "cluster", "merge")


class MergePolicy(Enum):
    """How conflicting attribute values are resolved when merging a cluster."""

    #: Keep the most frequent non-null value (ties: lexicographically first).
    MAJORITY = "majority"
    #: Keep the longest non-null string value (most informative).
    LONGEST = "longest"
    #: Keep the first non-null value encountered (source order).
    FIRST = "first"


@dataclass
class ConsolidatedEntity:
    """One composite entity produced from a cluster of duplicate records."""

    entity_id: str
    member_record_ids: List[str]
    source_ids: List[str]
    attributes: Dict[str, Any]
    provenance: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of source records merged into this entity."""
        return len(self.member_record_ids)


@dataclass
class ConsolidationReport:
    """Bookkeeping from one consolidation run.

    ``candidate_pairs`` counts what blocking emitted; ``pruned_pairs``
    counts how many of those the provable candidate filter discarded before
    feature extraction (``candidate_pairs - pruned_pairs`` pairs were
    actually scored).  ``stage_seconds`` is the wall time of each of
    :data:`CONSOLIDATION_STAGES`; it is a measurement, not an outcome, so it
    is left out of :meth:`as_dict` and of equality.
    """

    input_records: int
    candidate_pairs: int
    matched_pairs: int
    clusters: int
    merged_entities: int
    blocking_reduction: float
    pruned_pairs: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        """Return the report as a dictionary (for benchmarks/EXPERIMENTS.md)."""
        return {
            "input_records": self.input_records,
            "candidate_pairs": self.candidate_pairs,
            "matched_pairs": self.matched_pairs,
            "clusters": self.clusters,
            "merged_entities": self.merged_entities,
            "blocking_reduction": self.blocking_reduction,
            "pruned_pairs": self.pruned_pairs,
        }


def _resolve_value(merge_policy: "MergePolicy", values: List[Tuple[str, Any]]) -> Any:
    """Pick one value from ``(record_id, value)`` pairs under a merge policy."""
    if merge_policy is MergePolicy.FIRST:
        return values[0][1]
    if merge_policy is MergePolicy.LONGEST:
        return max(values, key=lambda item: len(str(item[1])))[1]
    # MAJORITY
    counts: Dict[str, List[Any]] = {}
    for _, value in values:
        counts.setdefault(str(value), []).append(value)
    best_key = max(
        sorted(counts.keys()),
        key=lambda key: len(counts[key]),
    )
    return counts[best_key][0]


def _merge_one_cluster(
    merge_policy: "MergePolicy",
    index: int,
    cluster: Set[str],
    by_id: Dict[str, Record],
) -> "ConsolidatedEntity":
    """Merge one duplicate cluster into a composite entity."""
    member_ids = sorted(cluster)
    members = [by_id[m] for m in member_ids]
    attributes: Dict[str, Any] = {}
    provenance: Dict[str, List[str]] = {}
    all_attribute_names: List[str] = []
    for record in members:
        for name in record.as_dict():
            if name not in all_attribute_names:
                all_attribute_names.append(name)
    for name in all_attribute_names:
        values: List[Tuple[str, Any]] = []
        for record in members:
            value = record.get(name)
            if value not in (None, ""):
                values.append((record.record_id, value))
        if not values:
            continue
        attributes[name] = _resolve_value(merge_policy, values)
        provenance[name] = [record_id for record_id, _ in values]
    return ConsolidatedEntity(
        entity_id=f"entity:{index}",
        member_record_ids=member_ids,
        source_ids=sorted({by_id[m].source_id for m in member_ids}),
        attributes=attributes,
        provenance=provenance,
    )


def merge_clusters(
    ordered_clusters: List[Tuple[int, Set[str]]],
    by_id: Dict[str, Record],
    merge_policy: MergePolicy,
) -> List[ConsolidatedEntity]:
    """Merge ``(index, cluster)`` items into entities, in item order.

    This is the merge phase of :meth:`EntityConsolidator.consolidate`,
    exposed at module level so the streaming delta curator can re-merge
    individual clusters with exactly the batch semantics.
    """
    return [
        _merge_one_cluster(merge_policy, index, cluster, by_id)
        for index, cluster in ordered_clusters
    ]


class EntityConsolidator:
    """Run the full consolidation pipeline over a set of records.

    Each run's per-stage wall times land in the report and in the hub's
    ``entity_stage_seconds{stage}`` histogram (the executor's hub unless one
    is given).
    """

    def __init__(
        self,
        model: DedupModel,
        config: Optional[EntityConfig] = None,
        key_attribute: Optional[str] = None,
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
        max_cluster_size: Optional[int] = 50,
        executor: Optional[ShardedExecutor] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self._model = model
        self._config = config or EntityConfig()
        self._config.validate()
        self._key_attribute = key_attribute
        self._merge_policy = merge_policy
        self._max_cluster_size = max_cluster_size
        self._executor = executor
        self._last_report: Optional[ConsolidationReport] = None
        if hub is None:
            hub = getattr(executor, "hub", None) or default_hub()
        self._m_stage_time = hub.registry.histogram(
            "entity_stage_seconds",
            "Wall time of one consolidation stage",
            labels=("stage",),
        )

    @property
    def executor(self) -> Optional[ShardedExecutor]:
        """The executor used for sharded fan-out (``None`` = sequential)."""
        return self._executor

    @property
    def last_report(self) -> Optional[ConsolidationReport]:
        """The report from the most recent :meth:`consolidate` call."""
        return self._last_report

    def candidate_pairs(
        self, records: Sequence[Record], pair_filter=None, kernel=None
    ) -> BlockingResult:
        """Run the configured blocking strategy (or exhaustive pairing).

        ``pair_filter`` prunes emitted pairs that provably cannot match (see
        :class:`~repro.entity.kernel.CandidateFilter`); ``kernel`` lets the
        whole-record token blocker reuse the scoring kernel's interned
        tokenization.
        """
        blocker = make_blocker(
            self._config.blocking_strategy,
            key_attribute=self._key_attribute,
            max_block_size=self._config.max_block_size,
        )
        if blocker is None:
            result = BlockingResult(total_records=len(records))
            result.pairs = full_pairs(records)
            return apply_pair_filter(result, pair_filter)
        share_tokens = (
            kernel is not None
            and isinstance(blocker, TokenBlocker)
            and blocker.key_attribute is None
            and kernel.compare_attributes is None
        )
        if share_tokens:
            blocker.token_source = kernel.unique_tokens_for
        try:
            return blocker.block(records, pair_filter=pair_filter)
        finally:
            if share_tokens:
                blocker.token_source = None

    def consolidate(self, records: Sequence[Record]) -> List[ConsolidatedEntity]:
        """Deduplicate ``records`` and return composite entities.

        Every input record contributes to exactly one output entity
        (singletons pass through unmerged).
        """
        if not records:
            self._last_report = ConsolidationReport(0, 0, 0, 0, 0, 0.0)
            return []
        by_id = {r.record_id: r for r in records}
        if len(by_id) != len(records):
            raise EntityResolutionError("record ids must be unique")

        stages = dict.fromkeys(CONSOLIDATION_STAGES, 0.0)
        clock = time.perf_counter
        begin = clock()
        kernel = ScoringKernel(
            compare_attributes=getattr(self._model, "compare_attributes", None)
        )
        pair_filter = None
        if self._config.candidate_filtering:
            candidate_filter = CandidateFilter.from_model(self._model)
            if candidate_filter is not None:
                split = candidate_filter.as_pair_filter(kernel, by_id)

                def pair_filter(pairs):
                    # runs inside the blocker: timed apart from it
                    start = clock()
                    try:
                        return split(pairs)
                    finally:
                        stages["filter"] += clock() - start

        blocking = self.candidate_pairs(
            records, pair_filter=pair_filter, kernel=kernel
        )
        candidate_list = sorted(blocking.pairs)
        mark = clock()
        stages["block"] = mark - begin - stages["filter"]
        scores, matched = self._score_and_match(by_id, candidate_list, kernel, stages)
        mark = clock()
        clusters = cluster_pairs(
            list(by_id.keys()),
            matched,
            scores=scores,
            max_cluster_size=self._max_cluster_size,
        )
        ordered_clusters = list(
            enumerate(sorted(clusters, key=lambda c: sorted(c)[0]))
        )
        stages["cluster"] = clock() - mark
        mark = clock()
        entities = merge_clusters(ordered_clusters, by_id, self._merge_policy)
        stages["merge"] = clock() - mark
        for stage, seconds in stages.items():
            self._m_stage_time.labels(stage=stage).observe(seconds)
        self._last_report = ConsolidationReport(
            input_records=len(records),
            candidate_pairs=blocking.emitted_count,
            matched_pairs=len(matched),
            clusters=len(clusters),
            merged_entities=sum(1 for e in entities if e.size > 1),
            blocking_reduction=blocking.reduction_ratio,
            pruned_pairs=blocking.pruned_pairs,
            stage_seconds=stages,
        )
        return entities

    # -- scoring -----------------------------------------------------------

    def _score_and_match(
        self,
        by_id: Dict[str, Record],
        candidate_list: Sequence[Tuple[str, str]],
        kernel: ScoringKernel,
        stages: Dict[str, float],
    ) -> Tuple[Dict[Tuple[str, str], float], List[Tuple[str, str]]]:
        """Score candidates and split out the matched pairs, in pair order.

        The batched path fans chunks out through the executor; for linear
        models the chunk workers also apply the match decision, so the
        matched list comes back from the workers rather than being
        re-derived here (and the fan-out is timed as ``featurize``).
        Either way the probabilities — and therefore the matched set — are
        exactly the sequential scorer's, because both paths score with
        the same fixed-order linear arithmetic.  The shared ``kernel``
        carries interned record data from the blocking/filtering phases
        into scoring.
        """
        clock = time.perf_counter
        begin = clock()
        if self._executor is None or not self._executor.fans_out:
            features = kernel.features_for_pairs(by_id, candidate_list)
            mark = clock()
            probabilities = self._model.predict_proba_features(features)
            scores = {
                pair: float(prob) for pair, prob in zip(candidate_list, probabilities)
            }
            threshold = self._model.threshold
            matched = [pair for pair, prob in scores.items() if prob >= threshold]
        else:
            # Imported here, not at module level: exec.batch depends on
            # entity.similarity, so a module-level import would be circular.
            from ..exec.batch import BatchScorer

            scorer = BatchScorer(self._model, executor=self._executor, kernel=kernel)
            scores, decided = scorer.score_and_decide(by_id, candidate_list)
            mark = clock()
            matched = [pair for pair in scores if pair in decided]
        stages["featurize"] = mark - begin
        stages["classify"] = clock() - mark
        return scores, matched
