"""The virtual-table catalog the SQL frontend queries.

A :class:`SqlContext` pins one immutable :class:`~repro.query.snapshot
.EntitySnapshot` plus one :class:`SqlMetadata` capture and exposes the
seven virtual tables as column stores (:class:`VirtualTable`):

========================  ====================================================
``entities``              one row per consolidated entity; base columns plus
                          one column per (global-schema) attribute observed
``clusters``              one row per entity *member record* (the dedup
                          clustering, exploded)
``instances``             the WEBINSTANCE fragments (text mentions)
``sources``               the source catalog
``mappings``              every schema-integration attribute decision
``global_attributes``     the global schema with value-profile statistics
``curation_status``       a single row describing the pinned snapshot
========================  ====================================================

Everything is captured lazily, one ``(table, column)`` at a time, straight
from the snapshot's entities and the metadata rows: the first query naming
a column captures its values, the first equality (join, ``GROUP BY``,
``DISTINCT``) use builds its :class:`EqualityIndex`, the first range or
``ORDER BY`` use builds its :class:`ColumnOrder`; later queries against the
same context reuse them.  A column no query names is never captured.  A
context is safe to share across serving threads — builds are guarded by a
lock and the snapshot and metadata underneath never change.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SqlError
from ..query.snapshot import EntitySnapshot
from .ordering import group_key, sort_key

#: One metadata row: column name → value.
Row = Dict[str, Any]

#: The virtual tables every context serves, name-sorted.
VIRTUAL_TABLES = (
    "clusters",
    "curation_status",
    "entities",
    "global_attributes",
    "instances",
    "mappings",
    "sources",
)

#: Base columns of ``entities`` — attribute columns never shadow these.
_ENTITY_BASE_COLUMNS = ("entity_id", "size", "source_count", "sources")

_CLUSTER_COLUMNS = ("entity_id", "record_id", "member_index", "cluster_size")

_STATUS_COLUMNS = (
    "version",
    "watermark",
    "schema_watermark",
    "entity_count",
    "source_count",
    "instance_count",
    "mapping_count",
)

#: Columns of the metadata-backed tables, in ``SELECT *`` order.
_METADATA_COLUMNS = {
    "sources": (
        "source_id",
        "kind",
        "description",
        "collection",
        "records_loaded",
        "attribute_count",
        "sequence",
    ),
    "mappings": (
        "source_id",
        "source_attribute",
        "global_attribute",
        "decision",
        "score",
        "expert_consulted",
        "is_mapped",
    ),
    "global_attributes": (
        "name",
        "inferred_type",
        "source_of_origin",
        "alias_count",
        "non_null_count",
        "null_count",
        "distinct_count",
    ),
    "instances": (
        "instance_id",
        "document_id",
        "source_id",
        "entity",
        "entity_type",
        "char_start",
        "char_end",
        "text_feed",
    ),
}


@dataclass(frozen=True)
class SqlMetadata:
    """Rows for the metadata-backed virtual tables, captured at one instant.

    Serve-tier determinism depends on this being a *capture*: the writer
    thread snapshots source/mapping/schema/instance state at publish time
    (exactly like the fusion index), so replaying a request against the
    same :class:`~repro.serve.views.ServeView` sees identical tables even
    while new sources are being ingested.
    """

    sources: Tuple[Row, ...] = ()
    mappings: Tuple[Row, ...] = ()
    global_attributes: Tuple[Row, ...] = ()
    instances: Tuple[Row, ...] = ()
    #: ``(source attribute, global attribute)`` pairs — the rename map the
    #: planner uses to resolve a source-local spelling to the curated
    #: (global) column, name-sorted for determinism.
    aliases: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def empty(cls) -> "SqlMetadata":
        """A capture with no ingest context (engine built from raw entities)."""
        return cls()

    @classmethod
    def from_tamer(cls, tamer: Any) -> "SqlMetadata":
        """Capture metadata rows from a live :class:`~repro.core.tamer.DataTamer`.

        Duck-typed (``catalog`` / ``integrator`` / ``global_schema`` /
        ``instance_collection``) so the sql package never imports the core
        facade.
        """
        source_rows = tuple(
            {
                "source_id": entry.source_id,
                "kind": entry.kind,
                "description": entry.description,
                "collection": entry.collection,
                "records_loaded": int(entry.records_loaded),
                "attribute_count": len(entry.attributes),
                "sequence": int(entry.sequence),
            }
            for entry in tamer.catalog.entries()
        )
        mapping_rows: List[Row] = []
        for report in tamer.integrator.reports:
            for mapping in report.mappings:
                score = mapping.score
                mapping_rows.append(
                    {
                        "source_id": report.source_id,
                        "source_attribute": mapping.source_attribute,
                        "global_attribute": mapping.global_attribute,
                        "decision": mapping.decision.value,
                        "score": (
                            float(score.composite) if score is not None else None
                        ),
                        "expert_consulted": bool(mapping.expert_consulted),
                        "is_mapped": bool(mapping.is_mapped),
                    }
                )
        attribute_rows = tuple(
            {
                "name": attribute.name,
                "inferred_type": attribute.profile.inferred_type,
                "source_of_origin": attribute.source_of_origin,
                "alias_count": len(attribute.aliases),
                "non_null_count": int(attribute.profile.non_null_count),
                "null_count": int(attribute.profile.null_count),
                "distinct_count": int(attribute.profile.distinct_count),
            }
            for attribute in tamer.global_schema.attributes()
        )
        instance_rows = tuple(
            instance_rows_from_documents(tamer.instance_collection.scan())
        )
        aliases: Dict[str, str] = {}
        for report in tamer.integrator.reports:
            for source_attr, global_attr in sorted(report.translation().items()):
                if source_attr != global_attr:
                    aliases.setdefault(source_attr, global_attr)
        for attribute in tamer.global_schema.attributes():
            for alias in sorted(attribute.aliases):
                if alias != attribute.name:
                    aliases.setdefault(alias, attribute.name)
        return cls(
            sources=source_rows,
            mappings=tuple(mapping_rows),
            global_attributes=attribute_rows,
            instances=instance_rows,
            aliases=tuple(sorted(aliases.items())),
        )

    def alias_map(self) -> Dict[str, str]:
        """source attribute → global attribute, as a dict."""
        return dict(self.aliases)


def instance_rows_from_documents(documents) -> List[Row]:
    """Shape raw WEBINSTANCE fragment documents into ``instances`` rows."""
    rows: List[Row] = []
    for doc in documents:
        rows.append(
            {
                "instance_id": str(doc.get("_id", "")),
                "document_id": _string_or_none(doc.get("source_id")),
                "source_id": _string_or_none(doc.get("_source")),
                "entity": _string_or_none(doc.get("entity")),
                "entity_type": _string_or_none(doc.get("entity_type")),
                "char_start": _int_or_none(doc.get("char_start")),
                "char_end": _int_or_none(doc.get("char_end")),
                "text_feed": _string_or_none(doc.get("text_feed")),
            }
        )
    return rows


# -- per-column structures ----------------------------------------------------


def _memo(lock: threading.Lock, cache: Dict, key: Any, build: Callable[[], Any]) -> Any:
    """``cache[key]``, built once under ``lock`` on first use.

    The unlocked read serves every later call; the second read under the
    lock keeps two threads racing on the first use from building twice.
    """
    value = cache.get(key)
    if value is None:
        with lock:
            value = cache.get(key)
            if value is None:
                value = build()
                cache[key] = value
    return value


class ColumnData:
    """One captured column: its values by row position, plus cheap masks.

    ``values`` is a numpy object array, so gathers at a position array keep
    every value the exact Python object the snapshot holds (no float64
    round trip for large ints, no bool/int coercion).
    """

    __slots__ = ("values", "_nulls", "_truthy", "_numeric")

    def __init__(self, values: Sequence[Any]):
        self.values = np.fromiter(values, dtype=object, count=len(values))
        self.values.flags.writeable = False
        self._nulls: Optional[np.ndarray] = None
        self._truthy: Optional[np.ndarray] = None
        self._numeric: Optional[bool] = None

    @property
    def nulls(self) -> np.ndarray:
        """Boolean mask of the NULL rows."""
        if self._nulls is None:
            self._nulls = np.fromiter(
                (value is None for value in self.values),
                dtype=bool,
                count=len(self.values),
            )
        return self._nulls

    @property
    def truthy(self) -> np.ndarray:
        """``bool(value)`` per row (a bare column used as a predicate)."""
        if self._truthy is None:
            self._truthy = np.fromiter(
                (bool(value) for value in self.values),
                dtype=bool,
                count=len(self.values),
            )
        return self._truthy

    @property
    def numeric(self) -> bool:
        """Whether every non-null value is an int or float (never a bool)."""
        if self._numeric is None:
            self._numeric = all(
                value is None
                or (isinstance(value, (int, float)) and not isinstance(value, bool))
                for value in self.values
            )
        return self._numeric


class EqualityIndex:
    """value → sorted row positions, held as dense group codes.

    Every row gets the code of its :func:`~repro.sql.ordering.group_key`
    (first-seen order, NULL included), so ``=`` probes, ``IN`` lists, join
    probes, ``GROUP BY`` and ``DISTINCT`` all share Python equality:
    ``1``, ``1.0`` and ``True`` carry one code.  The rows of a code, in
    ascending position order, are one slice of a stable argsort.
    """

    __slots__ = ("codes", "keys", "_code_of", "_order", "_starts")

    def __init__(self, values: np.ndarray):
        code_of: Dict[Any, int] = {}
        self.codes = np.fromiter(
            (code_of.setdefault(group_key(value), len(code_of)) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        #: code → the group key it stands for (first-seen representative)
        self.keys: List[Any] = list(code_of)
        self._code_of = code_of
        self._order = np.argsort(self.codes, kind="stable")
        counts = np.bincount(self.codes, minlength=len(code_of))
        self._starts = np.concatenate(([0], np.cumsum(counts)))
        # shared by every query on the context: lookups hand out views
        for array in (self.codes, self._order, self._starts):
            array.flags.writeable = False

    def code(self, value: Any) -> int:
        """The code rows equal to ``value`` carry; -1 if none (or NULL)."""
        if value is None:
            return -1
        return self.code_for_key(group_key(value))

    def code_for_key(self, key: Any) -> int:
        """The code of an already computed group key; -1 if absent or NULL."""
        if key is None:
            return -1
        return self._code_of.get(key, -1)

    def lookup(self, value: Any) -> np.ndarray:
        """Ascending positions of the rows equal to ``value``."""
        code = self.code(value)
        if code < 0:
            return np.empty(0, dtype=np.int64)
        return self._order[self._starts[code] : self._starts[code + 1]]

    def expand(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Probe many codes at once (-1 never matches).

        Returns ``(probe index, position)`` pairs: probes in input order,
        each probe's matches in ascending position order.
        """
        hit = codes >= 0
        # gather only at hit codes: an empty column has no code to gather at
        starts = np.zeros(len(codes), dtype=np.int64)
        counts = np.zeros(len(codes), dtype=np.int64)
        starts[hit] = self._starts[codes[hit]]
        counts[hit] = self._starts[codes[hit] + 1] - starts[hit]
        probe = np.repeat(np.arange(len(codes)), counts)
        offset = np.arange(len(probe)) - np.repeat(np.cumsum(counts) - counts, counts)
        return probe, self._order[starts[probe] + offset]


class ColumnOrder:
    """The column's total order (:func:`~repro.sql.ordering.sort_key`) as ranks.

    ``rank[i]`` is the dense rank of row ``i``'s sort key: equal keys (the
    ties of a stable sort) share a rank, NULL ranks last.  ``keys`` lists
    the distinct keys in ascending order, so a bisect over it turns a range
    comparison into a rank interval.
    """

    __slots__ = ("keys", "rank")

    def __init__(self, values: np.ndarray):
        index_of: Dict[Tuple, int] = {}
        first = np.fromiter(
            (index_of.setdefault(sort_key(value), len(index_of)) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        distinct = list(index_of)
        ascending = sorted(range(len(distinct)), key=distinct.__getitem__)
        rank_of = np.empty(len(distinct), dtype=np.int64)
        rank_of[ascending] = np.arange(len(distinct))
        self.keys: List[Tuple] = [distinct[i] for i in ascending]
        self.rank: np.ndarray = rank_of[first]
        self.rank.flags.writeable = False

    def window(self, op: str, value: Any) -> Tuple[int, int]:
        """The rank interval ``[lo, hi)`` of the rows where ``column <op> value``.

        Only same-type-class rows can satisfy a range comparison (mixed
        classes never compare true), so the interval is clipped to the
        value's class; NULL is its own class and never inside it.
        """
        keys = self.keys
        probe = sort_key(value)
        # a 2-tuple prefix sorts before every longer key sharing it, so
        # these two probes bracket exactly the value's type class
        lo = bisect_left(keys, (probe[0], probe[1]))
        hi = bisect_left(keys, (probe[0], probe[1] + 1))
        if op == "<":
            return lo, bisect_left(keys, probe, lo, hi)
        if op == "<=":
            return lo, bisect_right(keys, probe, lo, hi)
        if op == ">":
            return bisect_right(keys, probe, lo, hi), hi
        if op == ">=":
            return bisect_left(keys, probe, lo, hi), hi
        raise SqlError(f"not a range operator: {op!r}")  # pragma: no cover

    def range_mask(self, op: str, value: Any, rows=slice(None)) -> np.ndarray:
        """Whether ``column <op> value`` holds, for each of ``rows`` (default all)."""
        lo, hi = self.window(op, value)
        rank = self.rank[rows]
        return (rank >= lo) & (rank < hi)


class VirtualTable:
    """One virtual table: its schema plus lazily captured columns."""

    def __init__(
        self,
        name: str,
        column_names: Sequence[str],
        row_count: int,
        capture: Callable[[str], List[Any]],
    ):
        self.name = name
        self.column_names: Tuple[str, ...] = tuple(column_names)
        self.row_count = row_count
        self._column_set = frozenset(self.column_names)
        self._capture = capture
        self._columns: Dict[str, ColumnData] = {}
        self._lock = threading.Lock()

    def has_column(self, name: str) -> bool:
        return name in self._column_set

    def column(self, name: str) -> ColumnData:
        """The captured column (captured now if no query named it before)."""
        if name not in self._column_set:
            raise SqlError(f"table {self.name!r} has no column {name!r}")
        return _memo(
            self._lock, self._columns, name, lambda: ColumnData(self._capture(name))
        )


class SqlContext:
    """One pinned (snapshot, metadata) pair with lazily captured columns."""

    def __init__(
        self,
        snapshot: EntitySnapshot,
        metadata: Optional[SqlMetadata] = None,
    ):
        self.snapshot = snapshot
        self.metadata = metadata if metadata is not None else SqlMetadata.empty()
        self._aliases = self.metadata.alias_map()
        self._lock = threading.Lock()
        self._tables: Dict[str, VirtualTable] = {}
        self._eq_indexes: Dict[Tuple[str, str], EqualityIndex] = {}
        self._orders: Dict[Tuple[str, str], ColumnOrder] = {}

    # -- table access ------------------------------------------------------

    def table_names(self) -> Tuple[str, ...]:
        """Every servable virtual table, name-sorted."""
        return VIRTUAL_TABLES

    def table(self, name: str, columns: Sequence[str] = ()) -> VirtualTable:
        """The :class:`VirtualTable` ``name``, with ``columns`` captured."""
        table = self._table(name)
        for column in columns:
            table.column(column)
        return table

    def _table(self, name: str) -> VirtualTable:
        if name not in _BUILDERS:
            known = ", ".join(VIRTUAL_TABLES)
            raise SqlError(f"unknown table {name!r} (known tables: {known})")
        return _memo(self._lock, self._tables, name, lambda: _BUILDERS[name](self))

    def resolve_column(self, table_name: str, column: str) -> Optional[str]:
        """Resolve ``column`` to a physical column of ``table_name``.

        Physical names win; otherwise the metadata alias map (source
        attribute → global attribute, the integrator's mappings) is
        consulted, so ``WHERE title = ...`` finds the curated
        ``show_name`` column it was mapped onto.  ``None`` if neither
        resolves.
        """
        table = self.table(table_name)
        if table.has_column(column):
            return column
        target = self._aliases.get(column)
        if target is not None and table.has_column(target):
            return target
        return None

    # -- per-column structures ---------------------------------------------

    def equality_index(self, table_name: str, column: str) -> EqualityIndex:
        """The lazily built per-(table, column) :class:`EqualityIndex`.

        Follows the same Python-equality semantics as a scan comparing
        values, so the indexed path is bit-identical to the scan path.
        """
        table = self._table(table_name)
        return _memo(
            self._lock,
            self._eq_indexes,
            (table_name, column),
            lambda: EqualityIndex(table.column(column).values),
        )

    def sorted_column(self, table_name: str, column: str) -> ColumnOrder:
        """The lazily built per-(table, column) :class:`ColumnOrder`.

        Built on the first range comparison or ``ORDER BY`` naming the
        column; its ranks order values exactly like :func:`sort_key`.
        """
        table = self._table(table_name)
        return _memo(
            self._lock,
            self._orders,
            (table_name, column),
            lambda: ColumnOrder(table.column(column).values),
        )


# -- table builders --------------------------------------------------------


def _build_entities(context: SqlContext) -> VirtualTable:
    entities = context.snapshot.entities
    attribute_names = sorted(
        {
            name
            for entity in entities
            for name in entity.attributes
            if name not in _ENTITY_BASE_COLUMNS
        }
    )

    def capture(column: str) -> List[Any]:
        if column == "entity_id":
            return [str(entity.entity_id) for entity in entities]
        if column == "size":
            return [int(entity.size) for entity in entities]
        if column == "source_count":
            return [len(set(entity.source_ids)) for entity in entities]
        if column == "sources":
            return [",".join(sorted(set(entity.source_ids))) for entity in entities]
        return [entity.attributes.get(column) for entity in entities]

    return VirtualTable(
        "entities",
        _ENTITY_BASE_COLUMNS + tuple(attribute_names),
        len(entities),
        capture,
    )


def _build_clusters(context: SqlContext) -> VirtualTable:
    entities = context.snapshot.entities

    def capture(column: str) -> List[Any]:
        if column == "entity_id":
            return [
                str(entity.entity_id)
                for entity in entities
                for _ in entity.member_record_ids
            ]
        if column == "record_id":
            return [
                str(record_id)
                for entity in entities
                for record_id in entity.member_record_ids
            ]
        if column == "member_index":
            return [
                index
                for entity in entities
                for index in range(len(entity.member_record_ids))
            ]
        return [entity.size for entity in entities for _ in entity.member_record_ids]

    row_count = sum(len(entity.member_record_ids) for entity in entities)
    return VirtualTable("clusters", _CLUSTER_COLUMNS, row_count, capture)


def _build_curation_status(context: SqlContext) -> VirtualTable:
    snapshot = context.snapshot
    row = {
        "version": snapshot.version,
        "watermark": snapshot.watermark,
        "schema_watermark": snapshot.schema_watermark,
        "entity_count": len(snapshot.entities),
        "source_count": len(context.metadata.sources),
        "instance_count": len(context.metadata.instances),
        "mapping_count": len(context.metadata.mappings),
    }
    return VirtualTable(
        "curation_status", _STATUS_COLUMNS, 1, lambda column: [row[column]]
    )


def _metadata_builder(name: str) -> Callable[[SqlContext], VirtualTable]:
    def build(context: SqlContext) -> VirtualTable:
        rows = getattr(context.metadata, name)
        return VirtualTable(
            name,
            _METADATA_COLUMNS[name],
            len(rows),
            lambda column: [row.get(column) for row in rows],
        )

    return build


_BUILDERS = {
    "clusters": _build_clusters,
    "curation_status": _build_curation_status,
    "entities": _build_entities,
    "global_attributes": _metadata_builder("global_attributes"),
    "instances": _metadata_builder("instances"),
    "mappings": _metadata_builder("mappings"),
    "sources": _metadata_builder("sources"),
}


# -- helpers ---------------------------------------------------------------


def _string_or_none(value: Any) -> Optional[str]:
    return None if value is None else str(value)


def _int_or_none(value: Any) -> Optional[int]:
    if value is None or isinstance(value, bool):
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None
