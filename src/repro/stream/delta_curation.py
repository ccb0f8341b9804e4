"""Incremental entity resolution over change deltas.

:class:`DeltaCurator` keeps the consolidated-entity view of a collection
fresh as change events stream in, doing work proportional to the *delta*
rather than the corpus:

* blocking keys are extracted only for changed records, and the candidate
  pair set is maintained through :class:`~repro.entity.blocking.BlockIndex`
  support counts (block-based strategies) or a cheap full re-block
  ("sorted"/"none", where pair enumeration is not the bottleneck);
* pairwise similarity features are computed, and classified, only for new
  or invalidated pairs (through the :class:`~repro.exec.batch.BatchScorer`
  fan-out path, backed by a persistent
  :class:`~repro.entity.kernel.ScoringKernel` that interns each record's
  tokens and normalized values once per version); the resulting
  probability is kept per pair.  Pairs the
  :class:`~repro.entity.kernel.CandidateFilter` proves unmatchable are
  never featurized at all (and are re-examined when either record
  changes);
* match decisions feed an
  :class:`~repro.entity.clustering.IncrementalClusters` union/split
  structure, which reports the components a delta touched; only those are
  re-split under ``max_cluster_size``;
* a cluster is re-merged only when its member set is new or one of its
  records changed, and the ordered entity list is edited in place.

Equivalence guarantee
---------------------

After any sequence of applied deltas, :meth:`DeltaCurator.entities` is
bit-for-bit identical to :meth:`DeltaCurator.batch_reference` — a full
from-scratch :class:`~repro.entity.consolidation.EntityConsolidator` run
over the same records.  The load-bearing details:

* the candidate-pair *set* of every blocking strategy is order-independent,
  and the curator's record mirror preserves the collection's insertion
  order (so even the sorted-neighborhood window, whose tie-breaks are
  order-sensitive, sees the same sequence);
* feature rows are exactly the rows ``BatchScorer`` produces, and every
  classifier scores a row through the same fixed-order float operations
  whatever other rows share its batch (:func:`repro.ml.linear.linear_proba`,
  :class:`repro.ml.naive_bayes.BernoulliNaiveBayes`) — so a pair classified
  alone in a delta gets the very probability the batch path's full-matrix
  call gives it, and a score is computed once and kept until either record
  changes;
* an oversized component is split from its internal matched pairs in
  sorted-pair order — the order the batch path's score dictionary yields —
  so the stable sort inside the split breaks score ties identically;
* final clusters are ordered by their smallest member id and merged with
  the shared :func:`~repro.entity.consolidation.merge_clusters`, so entity
  ids and merged attributes match positionally.

Cost of one refresh
-------------------

Every Python-level loop in :meth:`DeltaCurator.apply_events` and the
refresh behind :meth:`DeltaCurator.entities` runs over the delta: the pairs
that became pending, the components :class:`IncrementalClusters` reports as
touched, the clusters of those components, and the entities whose position
shifted.  What still scales with the collection is C-level only — list
insert/delete memmoves, the per-refresh ``tuple(...)`` and the
``list(...)`` copy handed to each caller.  (``sorted``/``none`` blocking
re-derive their candidate set per refresh — it depends on global order —
diff it against the previous one, and feed the same delta path.)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..config import EntityConfig
from ..entity.blocking import BlockIndex, TokenBlocker, full_pairs, make_blocker
from ..entity.clustering import IncrementalClusters, cluster_pairs
from ..entity.kernel import CandidateFilter, ScoringKernel
from ..entity.consolidation import (
    ConsolidatedEntity,
    EntityConsolidator,
    MergePolicy,
    merge_clusters,
)
from ..entity.dedup import DedupModel
from ..entity.record import Record
from ..errors import EntityResolutionError
from ..exec.batch import BatchScorer
from .changelog import ChangeEvent
from .operators import DeltaOperator
from .scheduler import DeltaBatch

Pair = Tuple[str, str]
#: a final cluster's identity: its member ids, sorted
ClusterKey = Tuple[str, ...]


def record_from_document(document: dict, source_id: str = "curated") -> Record:
    """Convert one stored document into a dedup :class:`Record`.

    The document's ``_id`` becomes the record id (stable across the
    document's lifetime, unlike the positional ids
    ``DataTamer.consolidate_curated`` assigns), and every other field is
    carried as an attribute.
    """
    doc_id = document.get("_id")
    if doc_id in (None, ""):
        raise EntityResolutionError("document has no _id")
    fields = {k: v for k, v in document.items() if k != "_id"}
    return Record.from_dict(str(doc_id), source_id, fields)


@dataclass(frozen=True)
class RefreshStats:
    """Bookkeeping from one incremental refresh.

    The first five fields describe the curated state; the rest count the
    work this refresh did — all of it follows the delta, none of it the
    collection (``entities_restamped`` also counts entities a cluster
    insertion or removal shifted to a new ``entity:{index}``).  Every
    featurized pair is classified exactly once, so ``pairs_classified``
    equals ``pairs_featurized``; the second name is kept for its readers.
    """

    records: int
    candidate_pairs: int
    pairs_featurized: int
    matched_pairs: int
    clusters: int
    merges_reused: int
    merges_computed: int
    pairs_pruned: int = 0
    pairs_classified: int = 0
    components_recomputed: int = 0
    entities_restamped: int = 0

    def as_dict(self) -> dict:
        """Return the stats as a dictionary (for benchmarks and reports)."""
        return asdict(self)


class DeltaCurator(DeltaOperator):
    """Maintain consolidated entities incrementally under change events.

    Implements the :class:`~repro.stream.operators.DeltaOperator` contract
    (the host feeds it coalesced batches through :meth:`apply`); the
    historic :meth:`apply_events` entry point remains for direct drivers.
    It keeps the executor it was built with for its whole life: that
    executor may own warm pool workers holding this curator's interned
    records.
    """

    name = "entity"

    def __init__(
        self,
        model: DedupModel,
        config: Optional[EntityConfig] = None,
        key_attribute: Optional[str] = None,
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
        max_cluster_size: Optional[int] = 50,
        executor=None,
        source_id: str = "curated",
    ):
        super().__init__()
        self._model = model
        self._config = config or EntityConfig()
        self._config.validate()
        self._key_attribute = key_attribute
        self._merge_policy = merge_policy
        self._max_cluster_size = max_cluster_size
        self._executor = executor
        self._source_id = source_id
        self._blocker = make_blocker(
            self._config.blocking_strategy,
            key_attribute=key_attribute,
            max_block_size=self._config.max_block_size,
        )
        self._filter = (
            CandidateFilter.from_model(model)
            if self._config.candidate_filtering
            else None
        )
        self._reset_state()

    def _reset_state(self) -> None:
        #: insertion-ordered mirror of the collection's documents
        self._records: Dict[str, Record] = {}
        # the interned token/attribute corpus is incremental state too:
        # rebuild it with the rest so stale record data never survives
        self._kernel = ScoringKernel(
            compare_attributes=getattr(self._model, "compare_attributes", None)
        )
        self._scorer = BatchScorer(
            self._model, executor=self._executor, kernel=self._kernel
        )
        if (
            isinstance(self._blocker, TokenBlocker)
            and self._blocker.key_attribute is None
            and self._kernel.compare_attributes is None
        ):
            # share the interned tokenization with blocking-key extraction
            self._blocker.token_source = self._kernel.unique_tokens_for
        self._block_index = (
            BlockIndex(self._blocker)
            if BlockIndex.supports(self._blocker)
            else None
        )
        self._pairs_stale = False
        # a candidate is pending (new, or one of its records changed),
        # scored, or — being neither — pruned by the provable filter; a
        # stale score stays in place while its pair is pending
        self._candidates: Set[Pair] = set()
        self._pending: Set[Pair] = set()
        self._scores: Dict[Pair, float] = {}
        self._matched_set: Set[Pair] = set()
        self._clusters = IncrementalClusters()
        #: record ids upserted since the last refresh (their merges are stale)
        self._changed: Set[str] = set()
        #: component id -> its final (post-split) clusters
        self._component_clusters: Dict[int, List[ClusterKey]] = {}
        #: all final clusters, ordered by smallest member; parallel to
        #: ``_entities`` (keys of disjoint clusters differ in their first id)
        self._cluster_keys: List[ClusterKey] = []
        self._entities: List[ConsolidatedEntity] = []
        self._entity_tuple: Tuple[ConsolidatedEntity, ...] = ()
        self._dirty = True
        self._last_stats: Optional[RefreshStats] = None

    # -- introspection -----------------------------------------------------

    @property
    def record_count(self) -> int:
        """Number of live records in the curated view."""
        return len(self._records)

    @property
    def candidate_count(self) -> int:
        """Current candidate-pair count (may be stale until refresh for
        non-block strategies)."""
        return len(self._candidates)

    @property
    def last_stats(self) -> Optional[RefreshStats]:
        """Stats from the most recent refresh (``None`` before the first)."""
        return self._last_stats

    @property
    def incremental_blocking(self) -> bool:
        """Whether blocking is maintained incrementally (vs re-blocked)."""
        return self._block_index is not None

    @property
    def pruned_count(self) -> int:
        """Candidate pairs currently excluded by the provable filter."""
        return len(self._candidates) - len(self._scores.keys() | self._pending)

    @property
    def kernel(self) -> ScoringKernel:
        """The scoring kernel holding this curator's interned corpus."""
        return self._kernel

    # -- candidate bookkeeping --------------------------------------------

    def _add_candidate(self, pair: Pair) -> None:
        self._candidates.add(pair)
        self._pending.add(pair)

    def _drop_candidate(self, pair: Pair) -> None:
        self._candidates.discard(pair)
        self._pending.discard(pair)
        self._unscore(pair)

    def _unscore(self, pair: Pair) -> None:
        """Forget a pair's probability and, if it matched, its edge."""
        self._scores.pop(pair, None)
        if pair in self._matched_set:
            self._matched_set.discard(pair)
            self._clusters.remove_edge(*pair)

    # -- delta application -------------------------------------------------

    def _apply_events(self, batch: DeltaBatch) -> dict:
        """Operator-protocol entry point: consume one coalesced batch."""
        self.apply_events(batch.events)
        return {"records": len(self._records)}

    def apply_events(self, events: Iterable[ChangeEvent]) -> None:
        """Apply coalesced change events (at most one per document id).

        ``insert`` events move a re-added document to the end of the record
        mirror (matching the collection's insertion order); ``update``
        events replace content in place; ``delete`` events of unknown ids
        are no-ops.
        """
        upserts: List[Record] = []
        deleted_ids: List[str] = []
        for event in events:
            record_id = str(event.doc_id)
            if event.op == "delete":
                if record_id in self._records:
                    del self._records[record_id]
                    deleted_ids.append(record_id)
                continue
            record = record_from_document(event.document, self._source_id)
            if event.op == "insert" and record_id in self._records:
                # a delete + re-insert moved the document to the end
                del self._records[record_id]
            self._records[record_id] = record
            upserts.append(record)
        if not upserts and not deleted_ids:
            return

        # every pair of a changed record — surviving or new — goes (back)
        # through the candidate filter, whose decision depends on the
        # records' current content, and the classifier
        if self._block_index is not None:
            added, removed = self._block_index.apply(upserts, deleted_ids)
            for pair in removed:
                self._drop_candidate(pair)
            for pair in added:
                self._add_candidate(pair)
            for record in upserts:
                a = record.record_id
                self._pending.update(
                    (a, b) if a <= b else (b, a)
                    for b in self._block_index.partners(a)
                )
        else:
            self._pairs_stale = True

        for record_id in deleted_ids:
            # through the scorer so a warm worker pool forgets the record too
            self._scorer.discard_record(record_id)
            self._clusters.remove_node(record_id)
            self._changed.discard(record_id)
        for record in upserts:
            # its cluster must be re-merged, and re-split if oversized (the
            # split reads the scores about to change)
            self._changed.add(record.record_id)
            self._clusters.add_node(record.record_id)
            self._clusters.touch(record.record_id)
        self._dirty = True

    def bootstrap(self, documents: Iterable[dict]) -> None:
        """Load an initial population as one synthetic insert batch."""
        self.apply_events(
            ChangeEvent(seq=0, op="insert", doc_id=doc["_id"], document=doc)
            for doc in documents
        )

    def rebuild(self, documents: Iterable[dict]) -> None:
        """Discard all incremental state and re-bootstrap from scratch."""
        self._reset_state()
        self.bootstrap(documents)

    # -- refresh -----------------------------------------------------------

    def _compute_pairs_full(self) -> Set[Pair]:
        """Full candidate set for strategies without incremental blocking."""
        records = list(self._records.values())
        if self._blocker is None:
            return full_pairs(records)
        return set(self._blocker.block(records).pairs)

    def entities(self) -> List[ConsolidatedEntity]:
        """The current consolidated entities (refreshing if stale)."""
        return list(self.entity_tuple())

    def entity_tuple(self) -> Tuple[ConsolidatedEntity, ...]:
        """The current entities as the immutable tuple built once per
        refresh — what a snapshot publish shares instead of copying."""
        if self._dirty:
            self._refresh()
        return self._entity_tuple

    def _refresh(self) -> None:
        if self._pairs_stale:
            fresh = self._compute_pairs_full()
            for pair in self._candidates - fresh:
                self._drop_candidate(pair)
            for pair in fresh - self._candidates:
                self._add_candidate(pair)
            changed = self._changed
            self._pending.update(
                pair
                for pair in self._candidates
                if pair[0] in changed or pair[1] in changed
            )
            self._pairs_stale = False
        classified = self._score_pending()
        recomputed, merged, restamped = self._assemble_entities()
        self._entity_tuple = tuple(self._entities)
        self._dirty = False
        self._last_stats = RefreshStats(
            records=len(self._records),
            candidate_pairs=len(self._candidates),
            pairs_featurized=classified,
            matched_pairs=len(self._matched_set),
            clusters=len(self._cluster_keys),
            merges_reused=len(self._cluster_keys) - merged,
            merges_computed=merged,
            pairs_pruned=len(self._candidates) - len(self._scores),
            pairs_classified=classified,
            components_recomputed=recomputed,
            entities_restamped=restamped,
        )

    def _score_pending(self) -> int:
        """Filter, featurize and classify the pending pairs; returns how
        many reached the classifier.

        The filter's per-pair decision depends only on the two records'
        current content, and the classifier scores each row independently
        of its batch, so deciding pairs a delta at a time (here) and all at
        once (the batch path) yields the same pruned set and the same
        probabilities.  Nothing is committed until the fan-out calls have
        returned, so a failed refresh can be retried.
        """
        survivors = sorted(self._pending)
        if not survivors:
            return 0
        pruned_now: Set[Pair] = set()
        if self._filter is not None:
            survivors, pruned_now, _ = self._filter.split(
                self._kernel, self._records, survivors
            )
        probabilities: List[float] = []
        if survivors:
            matrix = self._scorer.featurize_pairs(self._records, survivors)
            probabilities = self._model.predict_proba_features(matrix).tolist()

        self._pending.clear()
        # a pruned pair is one without a score: drop any stale one
        for pair in pruned_now & self._scores.keys():
            self._unscore(pair)
        threshold = self._model.threshold
        for pair, probability in zip(survivors, probabilities):
            self._scores[pair] = probability
            if probability >= threshold:
                if pair not in self._matched_set:
                    self._matched_set.add(pair)
                    self._clusters.add_edge(*pair)
            elif pair in self._matched_set:
                self._matched_set.discard(pair)
                self._clusters.remove_edge(*pair)
        return len(survivors)

    def _final_clusters(self, component: Set[str]) -> List[ClusterKey]:
        """One connected component's clusters after the size guard."""
        if self._max_cluster_size is None or len(component) <= self._max_cluster_size:
            return [tuple(sorted(component))]
        neighbors = self._clusters.neighbors
        internal = sorted((a, b) for a in component for b in neighbors(a) if a < b)
        return [
            tuple(sorted(cluster))
            for cluster in cluster_pairs(
                sorted(component),
                internal,
                scores=self._scores,
                max_cluster_size=self._max_cluster_size,
            )
        ]

    def _assemble_entities(self) -> Tuple[int, int, int]:
        """Bring the ordered entity list up to date with the clustering.

        Only components the clustering reports as touched are re-split;
        of their clusters, only those whose member set is new or holds a
        changed record are re-merged; and an entity is re-created only
        when merged or when its ``entity:{index}`` position moved.  Returns
        ``(components recomputed, clusters merged, entities stamped)``.
        """
        retired, live = self._clusters.touched()
        stale: Set[ClusterKey] = set()
        for component in retired:
            stale.update(self._component_clusters.get(component, ()))
        recomputed: Dict[int, List[ClusterKey]] = {}
        fresh: Set[ClusterKey] = set()
        for component, members in live.items():
            stale.update(self._component_clusters.get(component, ()))
            recomputed[component] = self._final_clusters(members)
            fresh.update(recomputed[component])
        # a cluster that keeps its members keeps its entity unless one of
        # them changed content (it cannot have moved either: its smallest
        # member is the same)
        kept = {key for key in stale & fresh if self._changed.isdisjoint(key)}
        stale -= kept
        born = sorted(fresh - kept)

        keys, entities = self._cluster_keys, self._entities
        # removal positions index the current list, insertion positions the
        # final one (ascending inserts never move an earlier one)
        removals = sorted(bisect_left(keys, key) for key in stale)
        inserts = []
        for offset, key in enumerate(born):
            position = bisect_left(keys, key)
            inserts.append(position - bisect_left(removals, position) + offset)
        merged = (
            merge_clusters(
                [(position, set(key)) for position, key in zip(inserts, born)],
                self._records,
                self._merge_policy,
            )
            if born
            else []
        )

        # everything that can fail has run: commit
        self._clusters.clear_touched()
        self._changed.clear()
        for component in retired:
            self._component_clusters.pop(component, None)
        self._component_clusters.update(recomputed)
        for position in reversed(removals):
            del keys[position]
            del entities[position]
        for position, key, entity in zip(inserts, born, merged):
            keys.insert(position, key)
            entities.insert(position, entity)
        restamped = len(born)
        if removals or inserts:
            # positions below every removal and insertion kept their index;
            # so did those above them all when the list length is unchanged
            low = min(removals[:1] + inserts[:1])
            high = len(keys)
            if len(removals) == len(inserts):
                high = max(removals[-1], inserts[-1]) + 1
            for index in range(low, high):
                if entities[index].entity_id != f"entity:{index}":
                    entities[index] = _restamped(entities[index], index)
                    restamped += 1
        return len(recomputed), len(born), restamped

    # -- batch oracle ------------------------------------------------------

    def batch_reference(self) -> List[ConsolidatedEntity]:
        """A full from-scratch batch run over the current records.

        This is the equivalence oracle the incremental path is tested
        against, and what the engine's periodic full-rebuild fallback
        produces.
        """
        consolidator = EntityConsolidator(
            model=self._model,
            config=self._config,
            key_attribute=self._key_attribute,
            merge_policy=self._merge_policy,
            max_cluster_size=self._max_cluster_size,
            executor=self._executor,
        )
        return consolidator.consolidate(list(self._records.values()))


def _restamped(entity: ConsolidatedEntity, index: int) -> ConsolidatedEntity:
    """``entity`` under a new positional id.

    A new object, not a mutation: the original may sit in a published
    snapshot.  The attribute containers are shared with it, exactly as an
    entity whose position did not move is shared between snapshots whole.
    """
    return replace(entity, entity_id=f"entity:{index}")
