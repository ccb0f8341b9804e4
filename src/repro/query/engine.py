"""The query engine over consolidated entities.

After ingestion, schema integration and consolidation, the system holds a set
of composite entity records expressed in the global schema.  The query engine
answers the demo-style questions over them: equality lookups, keyword
search over text attributes, the "lookup by show name" query used for
Tables V and VI, and SQL over the pinned snapshot.

The engine is safe to read concurrently with streaming invalidation: its
entity state lives in one immutable :class:`~repro.query.snapshot
.EntitySnapshot`, every query captures the current snapshot exactly once at
entry, and :meth:`QueryEngine.replace_entities` publishes a new view with a
single pointer swap.  A search that is mid-scan when a swap lands finishes
against the snapshot it started with — never a torn mix of old and new
entities, never an entity list paired with the wrong watermark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..entity.consolidation import ConsolidatedEntity
from ..errors import QueryError
from ..text.normalize import TextNormalizer
from ..text.tokenizer import tokenize
from .snapshot import EntitySnapshot

_normalizer = TextNormalizer()


def _entity_matches_search(
    entity: ConsolidatedEntity,
    wanted: frozenset,
    attributes: Optional[Sequence[str]],
) -> bool:
    """Whether an entity's (selected) text contains every wanted token."""
    haystack: List[str] = []
    for name, value in entity.attributes.items():
        if attributes is not None and name not in attributes:
            continue
        if value not in (None, ""):
            haystack.extend(tokenize(str(value)))
    return wanted.issubset(set(haystack))


@dataclass
class QueryResult:
    """Entities matching a query, with convenience accessors."""

    entities: List[ConsolidatedEntity] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self):
        return iter(self.entities)

    @property
    def first(self) -> Optional[ConsolidatedEntity]:
        """The first matching entity (or ``None``)."""
        return self.entities[0] if self.entities else None

    def project(self, attributes: Sequence[str]) -> List[Dict[str, Any]]:
        """Return the selected attributes of each matching entity."""
        return [
            {name: entity.attributes.get(name) for name in attributes}
            for entity in self.entities
        ]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Return each matching entity's full attribute dictionary."""
        return [dict(entity.attributes) for entity in self.entities]


class QueryEngine:
    """Query consolidated entities expressed in the global schema.

    Every query scans the pinned snapshot inline; a process fan-out would
    ship the snapshot to the pool workers on every request.
    """

    def __init__(
        self,
        entities: Iterable[ConsolidatedEntity],
        watermark: Optional[int] = None,
        schema_watermark: Optional[int] = None,
    ):
        self._snapshot = EntitySnapshot(
            entities=tuple(entities),
            watermark=watermark,
            schema_watermark=schema_watermark,
        )

    @classmethod
    def from_snapshot(cls, snapshot: EntitySnapshot) -> "QueryEngine":
        """An engine reading a specific published snapshot (shared, not
        copied) — how server workers evaluate against a pinned view."""
        engine = cls.__new__(cls)
        engine._snapshot = snapshot
        return engine

    def __len__(self) -> int:
        return len(self._snapshot.entities)

    @property
    def snapshot(self) -> EntitySnapshot:
        """The current published entity snapshot (immutable)."""
        return self._snapshot

    @property
    def entities(self) -> List[ConsolidatedEntity]:
        """All entities known to the engine."""
        return list(self._snapshot.entities)

    @property
    def watermark(self) -> Optional[int]:
        """Changelog watermark the entity view was built at (``None`` when
        the engine is not derived from a streaming curation run)."""
        return self._snapshot.watermark

    @property
    def schema_watermark(self) -> Optional[int]:
        """Schema-operator watermark published with the entity view
        (``None`` when schema integration is off)."""
        return self._snapshot.schema_watermark

    def is_stale(self, watermark: Optional[int]) -> bool:
        """Whether the entity view lags the given changelog watermark.

        An engine without a watermark never reports stale (its entities
        were supplied directly, not derived from a stream).
        """
        own = self._snapshot.watermark
        if own is None or watermark is None:
            return False
        return own < watermark

    def replace_entities(
        self,
        entities: Iterable[ConsolidatedEntity],
        watermark: Optional[int] = None,
        schema_watermark: Optional[int] = None,
    ) -> EntitySnapshot:
        """Swap in a freshly curated entity view (streaming invalidation).

        The new view and its watermark pair are built into one immutable
        snapshot first, then published with a single pointer assignment —
        concurrent readers see either the complete old view or the
        complete new one, never entities from one paired with the
        watermark of the other.
        """
        snapshot = self._snapshot.advance(
            tuple(entities), watermark, schema_watermark
        )
        self._snapshot = snapshot
        return snapshot

    def add_entities(self, entities: Iterable[ConsolidatedEntity]) -> None:
        """Register more entities (e.g. after integrating another source).

        A hand-extended view no longer corresponds to any changelog
        position, so the watermark is cleared — ``is_stale`` must not keep
        vouching for a view the stream did not produce.
        """
        snapshot = self._snapshot
        self._snapshot = snapshot.advance(
            snapshot.entities + tuple(entities),
            watermark=None,
            schema_watermark=snapshot.schema_watermark,
        )

    def all_attributes(self) -> List[str]:
        """Union of attribute names across all entities, sorted."""
        names = set()
        for entity in self._snapshot.entities:
            names.update(entity.attributes)
        return sorted(names)

    # -- queries -----------------------------------------------------------

    def find_equal(self, attribute: str, value: Any) -> QueryResult:
        """Entities whose ``attribute`` equals ``value`` after normalization."""
        target = _normalizer.normalize(str(value))
        matches = [
            entity
            for entity in self._snapshot.entities
            if _normalizer.normalize(str(entity.attributes.get(attribute, "")))
            == target
            and entity.attributes.get(attribute) not in (None, "")
        ]
        return QueryResult(entities=matches)

    def search(
        self, phrase: str, attributes: Optional[Sequence[str]] = None
    ) -> QueryResult:
        """Keyword search: entities whose text contains every token of ``phrase``."""
        wanted = frozenset(tokenize(phrase))
        if not wanted:
            raise QueryError("search phrase has no tokens")
        attribute_list = list(attributes) if attributes is not None else None
        return QueryResult(
            entities=[
                entity
                for entity in self._snapshot.entities
                if _entity_matches_search(entity, wanted, attribute_list)
            ]
        )

    def sql(self, query: str, metadata=None, hub=None):
        """Run one SQL ``SELECT`` against the current snapshot.

        ``query`` is parsed, planned against the virtual-table catalog of
        :mod:`repro.sql` and executed entirely against one pinned
        :class:`~repro.query.snapshot.EntitySnapshot` — a concurrent
        :meth:`replace_entities` cannot tear a result.  ``metadata`` (a
        :class:`~repro.sql.SqlMetadata`) populates the catalog/schema/
        instance virtual tables; without it only the entity-derived tables
        have rows.  Returns a :class:`~repro.sql.SqlResult`.

        The per-snapshot :class:`~repro.sql.SqlContext` (virtual tables,
        pushdown indexes) is memoised, so repeated queries against the
        same snapshot reuse the same indexes.
        """
        # lazy import: repro.sql imports the storage layer, which must not
        # become a hard dependency of every engine import
        from ..sql import SqlContext, run_sql

        snapshot = self._snapshot
        cached = getattr(self, "_sql_cache", None)
        if (
            cached is None
            or cached[0] is not snapshot
            or cached[1] is not metadata
        ):
            cached = (snapshot, metadata, SqlContext(snapshot, metadata=metadata))
            self._sql_cache = cached
        return run_sql(cached[2], query, hub=hub)

    def lookup_show(
        self, show_name: str, name_attribute: str = "show_name"
    ) -> QueryResult:
        """The demo query: find a show by name (Tables V and VI)."""
        result = self.find_equal(name_attribute, show_name)
        if len(result) > 0:
            return result
        # a name that tokenizes to nothing (punctuation-only titles) cannot
        # keyword-match anything — that is an empty result, not a bad query
        if not tokenize(show_name):
            return QueryResult()
        # fall back to keyword search over the name attribute only
        return self.search(show_name, attributes=[name_attribute])
