"""Incremental schema integration over change deltas.

:class:`DeltaIntegrator` keeps a streamed collection's *schema view* fresh
— the global schema grown bottom-up from every live source plus the
per-source mapping reports of the paper's Figure 2 — doing work
proportional to the delta rather than the corpus:

* documents are mirrored per source (``_source`` field), and per-attribute
  value statistics are maintained as mergeable
  :class:`~repro.schema.attribute.AttributeProfileBuilder` sufficient
  statistics: appends consume only the new values, and an update/delete
  rebuilds only the columns whose value sequence actually changed;
* source↔global attribute pairs are re-scored through
  :class:`~repro.schema.matchers.CompositeMatcher` only when either side's
  profile changed — unchanged pairs replay a memoized
  :class:`~repro.schema.matchers.MatcherScore`;
* expert escalations are recorded and **replayed deterministically**: a
  cascade re-run (or the batch oracle) asking the same question gets the
  recorded answer instead of re-consulting a possibly stochastic expert.

Equivalence guarantee
---------------------

After any sequence of applied deltas, :meth:`DeltaIntegrator.snapshot` is
bit-for-bit what a fresh :class:`~repro.schema.integrator.SchemaIntegrator`
produces by integrating every live source's current records in first-seen
order (:meth:`DeltaIntegrator.batch_reference`).  This holds by
construction: the incremental path replays the *same* integration cascade
through :meth:`SchemaIntegrator.integrate_profiles`, only with cached
inputs — builder-finalized profiles are bit-identical to fresh profiling,
memoized matcher scores are the floats the matcher computed on equal
profiles, memoized merges return the exact profiles the pure
:func:`~repro.schema.attribute.merged_profile` computes, and expert
answers come from the replay log on both sides.

Mirror semantics match the collection exactly: every document carries a
global position (an ``insert`` of a known id moves it to the end, an
``update`` — even one that changes ``_source`` — keeps it in place, just
as the document store keeps scan order), each source's record sequence is
the global order restricted to that source, sources integrate in order of
their earliest live document, and a source whose last document disappears
drops out of the integration order entirely.  Bootstrapping a fresh
integrator from ``collection.scan()`` therefore reproduces the live
incremental state bit-identically — which is what the host's rebuild
fallback and changelog crash recovery rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..config import SchemaConfig
from ..schema.attribute import (
    Attribute,
    AttributeProfile,
    AttributeProfileBuilder,
    merged_profile,
)
from ..schema.global_schema import GlobalSchema
from ..schema.integrator import ExpertOracle, SchemaIntegrator
from ..schema.mapping import SourceMappingReport
from ..schema.matchers import CompositeMatcher, MatcherScore
from .changelog import ChangeEvent
from .operators import DeltaOperator
from .scheduler import DeltaBatch

_MISSING = object()


class _GenerationMemo:
    """A pure cache that keeps only what the latest generation looked up.

    Every refresh re-runs the whole cascade, so it looks up every entry the
    current state needs.  :meth:`rotate` opens a generation; a lookup that
    hits the previous one promotes the entry; :meth:`settle` drops what was
    not looked up since.  The memo therefore holds one cascade's working
    set, not every profile the stream ever produced.
    """

    __slots__ = ("_current", "_previous")

    def __init__(self) -> None:
        self._current: dict = {}
        self._previous: dict = {}

    def get(self, key):
        value = self._current.get(key)
        if value is None:
            value = self._previous.get(key)
            if value is not None:
                self._current[key] = value
        return value

    def __setitem__(self, key, value) -> None:
        self._current[key] = value

    def __len__(self) -> int:
        return len(self._current)

    def rotate(self) -> None:
        self._previous = self._current
        self._current = {}

    def settle(self) -> None:
        self._previous = {}


@dataclass(frozen=True)
class SchemaRefreshStats:
    """Bookkeeping from one incremental schema refresh."""

    sources: int
    attributes: int
    values_profiled: int
    columns_rebuilt: int
    pairs_scored: int
    pairs_reused: int
    escalations_asked: int
    escalations_replayed: int

    def as_dict(self) -> dict:
        """Return the stats as a dictionary (for benchmarks and reports)."""
        return {
            "sources": self.sources,
            "attributes": self.attributes,
            "values_profiled": self.values_profiled,
            "columns_rebuilt": self.columns_rebuilt,
            "pairs_scored": self.pairs_scored,
            "pairs_reused": self.pairs_reused,
            "escalations_asked": self.escalations_asked,
            "escalations_replayed": self.escalations_replayed,
        }


class _SourceMirror:
    """One source's live documents plus incremental column statistics."""

    __slots__ = (
        "docs",
        "builders",
        "dirty_attrs",
        "order_dirty",
        "sequence_dirty",
        "appended",
    )

    def __init__(self) -> None:
        #: doc_id -> fields (``_id``/``_source`` stripped), in sequence
        #: order (re-sorted by global position when ``sequence_dirty``)
        self.docs: Dict[object, dict] = {}
        #: attribute -> builder, in first-seen column order
        self.builders: Dict[str, AttributeProfileBuilder] = {}
        self.dirty_attrs: Set[str] = set()
        self.order_dirty = False
        #: set when a document entered mid-sequence (an update re-homed it
        #: from another source while keeping its global position)
        self.sequence_dirty = False
        #: values consumed incrementally since the last refresh (stats)
        self.appended = 0

    def append(self, doc_id: object, fields: dict) -> None:
        """Add a document at the end of the source's record sequence."""
        self.docs[doc_id] = fields
        if self.sequence_dirty:
            # sequence order is pending a re-sort: treat like mid-sequence
            self.dirty_attrs.update(fields)
            return
        for key, value in fields.items():
            if key in self.dirty_attrs:
                continue  # the pending rebuild scans this doc anyway
            builder = self.builders.get(key)
            if builder is None:
                builder = AttributeProfileBuilder()
                self.builders[key] = builder
            builder.add_value(value)
            self.appended += 1

    def insert_mid_sequence(self, doc_id: object, fields: dict) -> None:
        """Add a document that keeps an *older* global position (an update
        that changed its ``_source``): the sequence re-sorts at refresh."""
        self.docs[doc_id] = fields
        self.dirty_attrs.update(fields)
        self.sequence_dirty = True
        self.order_dirty = True

    def remove(self, doc_id: object) -> None:
        """Drop a document; its columns lose values mid-sequence."""
        fields = self.docs.pop(doc_id)
        self.dirty_attrs.update(fields)
        self.order_dirty = True

    def replace(self, doc_id: object, fields: dict) -> None:
        """Update a document in place (same source, same position)."""
        old = self.docs[doc_id]
        changed = {
            key
            for key in set(old) | set(fields)
            if old.get(key, _MISSING) != fields.get(key, _MISSING)
        }
        self.docs[doc_id] = fields
        self.dirty_attrs.update(changed)
        if set(old) != set(fields):
            self.order_dirty = True

    def records(self) -> List[dict]:
        """The source's current records in sequence order."""
        return list(self.docs.values())

    def _rebuild_column(self, attr: str) -> AttributeProfileBuilder:
        builder = AttributeProfileBuilder()
        for fields in self.docs.values():
            if attr in fields:
                builder.add_value(fields[attr])
        return builder

    def ensure_sequence(self, positions: Dict[object, int]) -> None:
        """Re-sort the doc sequence by global position if it went stale."""
        if self.sequence_dirty:
            self.docs = dict(
                sorted(self.docs.items(), key=lambda item: positions[item[0]])
            )
            self.sequence_dirty = False

    def refresh(self, positions: Dict[object, int]) -> int:
        """Bring builders current; returns how many columns were rebuilt."""
        rebuilt = 0
        self.ensure_sequence(positions)
        if self.order_dirty:
            # recompute the first-seen column order over the live docs —
            # exactly the order a from-scratch profile pass would observe
            order: Dict[str, None] = {}
            for fields in self.docs.values():
                for key in fields:
                    if key not in order:
                        order[key] = None
            fresh: Dict[str, AttributeProfileBuilder] = {}
            for attr in order:
                kept = self.builders.get(attr)
                if kept is None or attr in self.dirty_attrs:
                    kept = self._rebuild_column(attr)
                    rebuilt += 1
                fresh[attr] = kept
            self.builders = fresh
        else:
            for attr in sorted(self.dirty_attrs):
                if any(attr in fields for fields in self.docs.values()):
                    self.builders[attr] = self._rebuild_column(attr)
                    rebuilt += 1
                else:
                    self.builders.pop(attr, None)
        self.dirty_attrs.clear()
        self.order_dirty = False
        return rebuilt

    def profiles(self) -> Dict[str, AttributeProfile]:
        """attribute → profile of the current columns (cached objects)."""
        total = len(self.docs)
        return {
            attr: builder.finalize(total_count=total)
            for attr, builder in self.builders.items()
        }


class _CascadeIntegrator(SchemaIntegrator):
    """The incremental cascade: memoized scoring, replayed escalations."""

    def __init__(self, owner: "DeltaIntegrator", schema: GlobalSchema):
        super().__init__(
            global_schema=schema, config=owner._config, expert=owner._expert
        )
        self._owner = owner

    def score_against_schema(
        self, attribute_name: str, profile: AttributeProfile
    ) -> List[Tuple[str, MatcherScore]]:
        owner = self._owner
        attributes = self._schema.attributes()
        source_token = owner._profile_token(profile)
        scored: List[Optional[Tuple[str, MatcherScore]]] = [None] * len(attributes)
        missing: List[Tuple[int, Tuple, Attribute]] = []
        for index, attribute in enumerate(attributes):
            key = (
                attribute_name,
                source_token,
                attribute.name,
                owner._profile_token(attribute.profile),
            )
            cached = owner._score_memo.get(key)
            if cached is None:
                missing.append((index, key, attribute))
            else:
                scored[index] = (attribute.name, cached)
                owner._pairs_reused += 1
        if missing:
            results = owner._score_pairs(
                [(attribute_name, profile, index) for index, _, _ in missing],
                attributes,
            )
            for (index, key, attribute), score in zip(missing, results):
                owner._score_memo[key] = score
                scored[index] = (attribute.name, score)
            owner._pairs_scored += len(missing)
        complete = [entry for entry in scored if entry is not None]
        complete.sort(key=lambda item: item[1].composite, reverse=True)
        return complete

    def _consult_expert(
        self, source_id: str, name: str, candidate: str, score: MatcherScore
    ) -> bool:
        return self._owner._replay_expert(source_id, name, candidate, score)


class _ReplayReferenceIntegrator(SchemaIntegrator):
    """The batch oracle: fresh profiling/scoring, replayed escalations."""

    def __init__(self, owner: "DeltaIntegrator", schema: GlobalSchema):
        super().__init__(
            global_schema=schema, config=owner._config, expert=owner._expert
        )
        self._owner = owner

    def _consult_expert(
        self, source_id: str, name: str, candidate: str, score: MatcherScore
    ) -> bool:
        return self._owner._replay_expert(source_id, name, candidate, score)


def _profile_key(profile: AttributeProfile) -> tuple:
    """A canonical, comparable rendering of one profile (exact floats)."""
    return (
        profile.inferred_type,
        profile.non_null_count,
        profile.null_count,
        profile.distinct_count,
        profile.sample_values,
        profile.mean_length,
        profile.numeric_mean,
        profile.numeric_std,
        tuple(sorted(profile.token_set)),
    )


def _report_key(report: SourceMappingReport) -> tuple:
    """A canonical rendering of one source's mapping report."""
    return (
        report.source_id,
        tuple(
            (
                m.source_attribute,
                m.global_attribute,
                m.decision.value,
                None if m.score is None else tuple(m.score.as_dict().items()),
                tuple(m.candidates),
                m.expert_consulted,
            )
            for m in report.mappings
        ),
    )


def schema_snapshot(
    schema: GlobalSchema, reports: Sequence[SourceMappingReport]
) -> dict:
    """Canonical, ``==``-comparable rendering of an integration state.

    Covers everything the integrator decides: the global attributes in
    insertion order with their exact merged profiles, origins and aliases,
    the schema-evolution history, and every per-source mapping report.
    """
    return {
        "attributes": [
            (
                attribute.name,
                attribute.source_of_origin,
                tuple(sorted(attribute.aliases)),
                _profile_key(attribute.profile),
            )
            for attribute in schema.attributes()
        ],
        "history": list(schema.history),
        "reports": [_report_key(report) for report in reports],
    }


class DeltaIntegrator(DeltaOperator):
    """Maintain the streamed schema view incrementally under change events."""

    name = "schema"

    def __init__(
        self,
        config: Optional[SchemaConfig] = None,
        expert: Optional[ExpertOracle] = None,
        source_id: str = "curated",
    ):
        super().__init__()
        self._config = config or SchemaConfig()
        self._config.validate()
        self._expert = expert
        self._default_source = source_id
        self._matcher = CompositeMatcher(self._config.matcher_weights)
        #: expert replay log: (source, attr, candidate, composite) -> answer
        self._expert_log: Dict[Tuple[str, str, str, float], bool] = {}
        self._reset_state()

    def _reset_state(self) -> None:
        self._sources: Dict[str, _SourceMirror] = {}
        self._doc_source: Dict[object, str] = {}
        #: global scan position per live document — insert (and delete +
        #: re-insert) assigns the next position, update keeps the old one;
        #: source integration order derives from each source's minimum
        self._positions: Dict[object, int] = {}
        self._next_position = 0
        # pure caches, each holding the latest cascade's working set:
        # id(profile) -> (token, profile); score key -> MatcherScore;
        # (token, token) -> merged AttributeProfile
        self._profile_tokens = _GenerationMemo()
        self._next_token = 0
        self._score_memo = _GenerationMemo()
        self._merge_memo = _GenerationMemo()
        self._schema = GlobalSchema(profile_merger=self._memoized_merge)
        self._integrator: Optional[_CascadeIntegrator] = None
        self._dirty = False
        self._last_stats: Optional[SchemaRefreshStats] = None
        self._pairs_scored = 0
        self._pairs_reused = 0
        self._escalations_asked = 0
        self._escalations_replayed = 0

    # -- introspection -----------------------------------------------------

    def _ordered_sources(self) -> List[Tuple[str, _SourceMirror]]:
        """Live sources ordered by their earliest document's position —
        exactly the order a scan of the collection first encounters them."""
        return sorted(
            self._sources.items(),
            key=lambda item: min(
                self._positions[doc_id] for doc_id in item[1].docs
            ),
        )

    @property
    def source_ids(self) -> List[str]:
        """Live sources in integration order (earliest live doc first)."""
        return [source_id for source_id, _ in self._ordered_sources()]

    @property
    def config(self) -> SchemaConfig:
        """The validated schema-integration configuration."""
        return self._config

    @property
    def expert(self) -> Optional[ExpertOracle]:
        """The live expert escalation hook (``None`` when not configured)."""
        return self._expert

    @property
    def record_count(self) -> int:
        """Live documents mirrored across all sources."""
        return len(self._doc_source)

    @property
    def last_stats(self) -> Optional[SchemaRefreshStats]:
        """Stats from the most recent refresh (``None`` before the first)."""
        return self._last_stats

    @property
    def expert_log_size(self) -> int:
        """Recorded expert escalation answers available for replay."""
        return len(self._expert_log)

    def source_records(self, source_id: str) -> List[dict]:
        """One live source's current records in sequence order."""
        mirror = self._sources[source_id]
        mirror.ensure_sequence(self._positions)
        return mirror.records()

    # -- caches ------------------------------------------------------------

    def _profile_token(self, profile: AttributeProfile) -> int:
        # the entry keeps its profile alive, so a live id is never reused;
        # tokens are never reused either, so memo keys cannot alias
        entry = self._profile_tokens.get(id(profile))
        if entry is not None and entry[1] is profile:
            return entry[0]
        token = self._next_token
        self._next_token += 1
        self._profile_tokens[id(profile)] = (token, profile)
        return token

    def _memoized_merge(
        self, mine: AttributeProfile, other: AttributeProfile
    ) -> AttributeProfile:
        key = (self._profile_token(mine), self._profile_token(other))
        cached = self._merge_memo.get(key)
        if cached is None:
            cached = merged_profile(mine, other)
            self._merge_memo[key] = cached
        return cached

    def _replay_expert(
        self, source_id: str, name: str, candidate: str, score: MatcherScore
    ) -> bool:
        key = (source_id, name, candidate, score.composite)
        answer = self._expert_log.get(key)
        if answer is not None:
            self._escalations_replayed += 1
            return answer
        answer = bool(self._expert(name, candidate, score))
        self._expert_log[key] = answer
        self._escalations_asked += 1
        return answer

    # -- scoring ---------------------------------------------------------

    def _score_pairs(
        self,
        items: List[Tuple[str, AttributeProfile, int]],
        attributes: Sequence[Attribute],
    ) -> List[MatcherScore]:
        """Scores for (source name, source profile, global index) items."""
        return [
            self._matcher.score(
                name, profile, attributes[index].name, attributes[index].profile
            )
            for name, profile, index in items
        ]

    # -- delta application -------------------------------------------------

    def _mirror(self, source_id: str) -> _SourceMirror:
        mirror = self._sources.get(source_id)
        if mirror is None:
            mirror = _SourceMirror()
            self._sources[source_id] = mirror
        return mirror

    def _consume(self, events: Iterable[ChangeEvent]) -> int:
        consumed = 0
        for event in events:
            consumed += 1
            doc_id = event.doc_id
            previous = self._doc_source.get(doc_id)
            if event.op == "delete":
                if previous is not None:
                    self._sources[previous].remove(doc_id)
                    del self._doc_source[doc_id]
                    del self._positions[doc_id]
                continue
            document = event.document
            source_id = document.get("_source") or self._default_source
            source_id = str(source_id)
            fields = {
                key: value
                for key, value in document.items()
                if key not in ("_id", "_source")
            }
            if event.op == "insert":
                # a delete + re-insert moves the document to the end
                if previous is not None:
                    self._sources[previous].remove(doc_id)
                self._positions[doc_id] = self._next_position
                self._next_position += 1
                self._mirror(source_id).append(doc_id, fields)
            elif previous == source_id:
                self._sources[source_id].replace(doc_id, fields)
            else:
                # an update that re-homes the document to another source —
                # it keeps its global position (collection updates do not
                # move documents), so it lands *mid-sequence* in the new
                # source's record order
                if previous is not None:
                    self._sources[previous].remove(doc_id)
                    self._mirror(source_id).insert_mid_sequence(doc_id, fields)
                else:  # pragma: no cover - update of unknown id
                    self._positions[doc_id] = self._next_position
                    self._next_position += 1
                    self._mirror(source_id).append(doc_id, fields)
            self._doc_source[doc_id] = source_id
        # a source with no live documents leaves the integration order
        for source_id in [s for s, m in self._sources.items() if not m.docs]:
            del self._sources[source_id]
        if consumed:
            self._dirty = True
        return consumed

    def _apply_events(self, batch: DeltaBatch) -> Dict[str, object]:
        consumed = self._consume(batch.events)
        return {"events": consumed, "sources": len(self._sources)}

    def bootstrap(self, documents: Iterable[dict]) -> None:
        """Load an initial population as one synthetic insert batch."""
        self._consume(
            ChangeEvent(seq=0, op="insert", doc_id=doc["_id"], document=doc)
            for doc in documents
        )

    def rebuild(self, documents: Iterable[dict]) -> None:
        """Discard incremental state and re-bootstrap (expert log survives —
        it records interactions with the outside world, not derived state,
        and keeping it is what makes rebuilds land on the same decisions)."""
        self._reset_state()
        self.bootstrap(documents)

    # -- refresh -----------------------------------------------------------

    def refresh(self) -> None:
        """Re-run the integration cascade if any delta landed since."""
        if not self._dirty:
            return
        self._pairs_scored = 0
        self._pairs_reused = 0
        self._escalations_asked = 0
        self._escalations_replayed = 0
        values_profiled = 0
        columns_rebuilt = 0
        memos = (self._profile_tokens, self._score_memo, self._merge_memo)
        for memo in memos:
            memo.rotate()
        schema = GlobalSchema(profile_merger=self._memoized_merge)
        integrator = _CascadeIntegrator(self, schema)
        for source_id, mirror in self._ordered_sources():
            columns_rebuilt += mirror.refresh(self._positions)
            values_profiled += mirror.appended
            mirror.appended = 0
            integrator.integrate_profiles(source_id, mirror.profiles())
        for memo in memos:
            memo.settle()
        self._schema = schema
        self._integrator = integrator
        self._dirty = False
        self._last_stats = SchemaRefreshStats(
            sources=len(self._sources),
            attributes=len(schema),
            values_profiled=values_profiled,
            columns_rebuilt=columns_rebuilt,
            pairs_scored=self._pairs_scored,
            pairs_reused=self._pairs_reused,
            escalations_asked=self._escalations_asked,
            escalations_replayed=self._escalations_replayed,
        )

    @property
    def global_schema(self) -> GlobalSchema:
        """The current streamed global schema (refreshing if stale)."""
        self.refresh()
        return self._schema

    @property
    def reports(self) -> List[SourceMappingReport]:
        """Per-source mapping reports of the current cascade, in order."""
        self.refresh()
        return self._integrator.reports if self._integrator is not None else []

    def translation_for(self, source_id: str) -> Dict[str, str]:
        """source attribute → global attribute for one live source."""
        for report in self.reports:
            if report.source_id == source_id:
                return report.translation()
        return {}

    def snapshot(self) -> dict:
        """Canonical rendering of the current schema + mapping state."""
        self.refresh()
        return schema_snapshot(
            self._schema,
            self._integrator.reports if self._integrator is not None else [],
        )

    # -- batch oracle ------------------------------------------------------

    def batch_reference(self) -> dict:
        """A full from-scratch batch re-integration over the mirror.

        Fresh profiling, fresh scoring, fresh merging — only expert
        escalations replay from the recorded log.  This is the equivalence
        oracle :meth:`snapshot` is tested against.
        """
        schema = GlobalSchema()
        oracle = _ReplayReferenceIntegrator(self, schema)
        for source_id, mirror in self._ordered_sources():
            mirror.ensure_sequence(self._positions)
            oracle.integrate_source(source_id, mirror.records())
        return schema_snapshot(schema, oracle.reports)

