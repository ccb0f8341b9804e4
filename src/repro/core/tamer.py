"""The DataTamer facade: the public API of the reproduction.

One object wires the whole architecture of the paper's Figure 1 together.
A typical session (the paper's Section V demo) looks like::

    from repro import DataTamer, TamerConfig
    from repro.ingest import DictSource
    from repro.text import DomainParser, broadway_gazetteer

    tamer = DataTamer(TamerConfig.default())
    tamer.register_text_parser(DomainParser(broadway_gazetteer()))

    # 1. structured sources bootstrap the global schema
    for source in ftables_sources:
        tamer.ingest_structured_source(source)

    # 2. web text goes through the domain parser into WEBINSTANCE/WEBENTITIES
    tamer.ingest_text_documents(web_documents)

    # 3. query the fused result
    engine = tamer.build_query_engine()
    matilda = engine.lookup_show("Matilda")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cleaning.rules import RuleEngine
from ..cleaning.transforms import TransformEngine
from ..config import TamerConfig
from ..entity.consolidation import ConsolidatedEntity, EntityConsolidator, MergePolicy
from ..entity.dedup import DedupModel, LabeledPair
from ..entity.record import records_from_dicts
from ..errors import TamerError
from ..exec.executor import ShardedExecutor
from ..expert.routing import ExpertRouter, schema_match_oracle
from ..ingest.connectors import DictSource, Source
from ..ingest.flatten import Flattener
from ..ingest.loader import BatchLoader, IngestReport
from ..obs import TelemetryHub
from ..query.engine import QueryEngine
from ..query.fusion import FusionResult, fuse_entity_views
from ..query.topk import MentionCount, top_k_discussed
from ..schema.global_schema import GlobalSchema
from ..schema.integrator import SchemaIntegrator
from ..schema.mapping import SourceMappingReport
from ..storage.document_store import Collection, CollectionStats, DocumentStore
from ..stream.engine import DeltaApplyReport, StreamingTamer
from ..text.parser import DomainParser, ParsedDocument
from .catalog import SourceCatalog

#: Collection names mirroring the paper's ``dt.instance`` / ``dt.entity``.
INSTANCE_COLLECTION = "instance"
ENTITY_COLLECTION = "entity"
CURATED_COLLECTION = "curated"


@dataclass
class StructuredIngestReport:
    """Outcome of ingesting one structured source end-to-end."""

    source_id: str
    ingest: IngestReport
    mapping: SourceMappingReport
    curated_records: int

    @property
    def mapped_attributes(self) -> Dict[str, str]:
        """source attribute → global attribute for this source."""
        return self.mapping.translation()


@dataclass
class TextIngestReport:
    """Outcome of ingesting a batch of raw text documents."""

    documents: int
    fragments: int
    entities: int
    mapping: Optional[SourceMappingReport] = None


class DataTamer:
    """End-to-end text + structured data fusion system (paper Figure 1)."""

    def __init__(
        self,
        config: Optional[TamerConfig] = None,
        expert_router: Optional[ExpertRouter] = None,
        true_schema_mapping: Optional[Dict[str, str]] = None,
        parallelism: Optional[int] = None,
        batch_size: Optional[int] = None,
    ):
        self.config = (config or TamerConfig.default()).validate()
        if parallelism is not None or batch_size is not None:
            self.config = self.config.with_parallelism(
                (
                    parallelism
                    if parallelism is not None
                    else self.config.execution.parallelism
                ),
                batch_size=batch_size,
            )
        self._hub = TelemetryHub.from_config(self.config.obs)
        self._executor = ShardedExecutor(self.config.execution, hub=self._hub)
        self._retired_executors: List[ShardedExecutor] = []
        self.store = DocumentStore("dt", self.config.storage)
        self.catalog = SourceCatalog()
        self.global_schema = GlobalSchema()
        self.rule_engine = RuleEngine()
        self.transform_engine = TransformEngine()
        self._loader = BatchLoader(flattener=Flattener())
        self._parser: Optional[DomainParser] = None
        self._dedup_model: Optional[DedupModel] = None
        self._expert_router = expert_router
        self._stream: Optional[StreamingTamer] = None

        expert_callable = None
        if expert_router is not None and self.config.schema.use_expert_escalation:
            expert_callable = schema_match_oracle(
                expert_router, true_mapping=true_schema_mapping
            )
        self._schema_expert = expert_callable
        self.integrator = SchemaIntegrator(
            global_schema=self.global_schema,
            config=self.config.schema,
            expert=expert_callable,
        )

        # The three standing collections of the paper's deployment.
        self.store.create_collection(INSTANCE_COLLECTION).create_text_index("text_feed")
        entity_collection = self.store.create_collection(ENTITY_COLLECTION)
        for field_name in ("entity.name", "entity.type", "source_id"):
            entity_collection.create_index(field_name)
        self.store.create_collection(CURATED_COLLECTION).create_index("_source")

    # -- component access ---------------------------------------------------

    @property
    def instance_collection(self) -> Collection:
        """The WEBINSTANCE-equivalent collection (text fragments)."""
        return self.store.collection(INSTANCE_COLLECTION)

    @property
    def entity_collection(self) -> Collection:
        """The WEBENTITIES-equivalent collection (typed entity mentions)."""
        return self.store.collection(ENTITY_COLLECTION)

    @property
    def curated_collection(self) -> Collection:
        """Curated records expressed in global-schema attribute names."""
        return self.store.collection(CURATED_COLLECTION)

    @property
    def parser(self) -> Optional[DomainParser]:
        """The registered domain-specific text parser (may be ``None``)."""
        return self._parser

    @property
    def dedup_model(self) -> Optional[DedupModel]:
        """The trained deduplication model (``None`` until trained)."""
        return self._dedup_model

    def register_text_parser(self, parser: DomainParser) -> None:
        """Register the user-defined domain parser (Figure 1's pluggable box)."""
        self._parser = parser

    # -- execution knobs -----------------------------------------------------

    @property
    def executor(self) -> ShardedExecutor:
        """The sharded executor threaded through consolidation and query."""
        return self._executor

    @property
    def hub(self) -> TelemetryHub:
        """The telemetry hub every layer of this tamer records into."""
        return self._hub

    @property
    def parallelism(self) -> int:
        """Configured worker count (1 = sequential)."""
        return self._executor.parallelism

    @property
    def batch_size(self) -> int:
        """Configured pair-scoring batch size."""
        return self._executor.batch_size

    def set_parallelism(
        self, workers: int, batch_size: Optional[int] = None
    ) -> None:
        """Reconfigure the execution engine (e.g. to A/B parallel vs serial).

        A live stream keeps the executor it was started with (the entity
        curator's warm pool state lives in its workers): that executor is
        retired rather than closed, and :meth:`close` shuts it down with
        everything else.  Without a live stream the old executor closes.
        """
        self.config = self.config.with_parallelism(workers, batch_size=batch_size)
        old = self._executor
        self._executor = ShardedExecutor(self.config.execution, hub=self._hub)
        if self._stream is not None and not self._stream.closed:
            self._retired_executors.append(old)
        else:
            # the old executor may own persistent pool workers — stop them
            old.close()

    def close(self) -> None:
        """Release held resources: the stream tail, pool workers, telemetry."""
        self.stop_stream()
        for executor in self._retired_executors:
            executor.close()
        self._retired_executors.clear()
        self._executor.close()
        self._hub.close()

    # -- structured ingestion ------------------------------------------------

    def ingest_structured_source(
        self, source: Source, allow_new_attributes: bool = True
    ) -> StructuredIngestReport:
        """Ingest one structured source: clean, integrate schema, curate.

        Records are cleaned by the rule engine, the source's local schema is
        matched against (and may extend) the global schema, and the records —
        rewritten into global attribute names — are stored in the curated
        collection with provenance.
        """
        cleaned_records = [
            self.rule_engine.clean_record(record) for record in source.records()
        ]
        mapping = self.integrator.integrate_source(
            source.source_id, cleaned_records, allow_new_attributes=allow_new_attributes
        )
        translation = mapping.translation()
        curated = 0
        for record in cleaned_records:
            translated = {
                translation[name]: value
                for name, value in record.items()
                if name in translation and value not in (None, "")
            }
            if not translated:
                continue
            translated = self.transform_engine.transform_record(translated)
            translated["_source"] = source.source_id
            self.curated_collection.insert(translated)
            curated += 1
        ingest_report = IngestReport(
            source_id=source.source_id,
            collection=CURATED_COLLECTION,
            records_read=len(cleaned_records),
            records_loaded=curated,
            attributes_seen=list(translation),
        )
        self.catalog.register(
            source.source_id,
            kind=source.metadata.kind,
            description=source.metadata.description,
            collection=CURATED_COLLECTION,
            records_loaded=curated,
            attributes=list(translation.values()),
        )
        return StructuredIngestReport(
            source_id=source.source_id,
            ingest=ingest_report,
            mapping=mapping,
            curated_records=curated,
        )

    def ingest_structured_records(
        self,
        source_id: str,
        records: Sequence[Dict[str, Any]],
        description: str = "",
    ) -> StructuredIngestReport:
        """Convenience wrapper: ingest in-memory records as a structured source."""
        source = DictSource(source_id, list(records), description=description)
        return self.ingest_structured_source(source)

    # -- text ingestion --------------------------------------------------------

    def ingest_text_documents(
        self,
        documents: Iterable[Tuple[str, str]],
        source_id: str = "webtext",
        integrate_schema: bool = True,
    ) -> TextIngestReport:
        """Ingest raw text documents through the domain parser.

        ``documents`` is an iterable of ``(doc_id, text)``.  Fragments land
        in the instance collection, flattened entity mentions in the entity
        collection, and — when ``integrate_schema`` is set — a per-entity
        summary record (name/type keyed) is also pushed through schema
        integration into the curated collection so text-derived entities can
        be fused with structured data.
        """
        if self._parser is None:
            raise TamerError("no text parser registered; call register_text_parser")
        flattener = Flattener()
        n_documents = 0
        n_fragments = 0
        n_entities = 0
        text_records: List[Dict[str, Any]] = []
        for doc_id, text in documents:
            parsed: ParsedDocument = self._parser.parse(text, source_id=doc_id)
            n_documents += 1
            for fragment_doc in parsed.fragment_documents():
                fragment_doc["_source"] = source_id
                self.instance_collection.insert(fragment_doc)
                n_fragments += 1
            for entity_doc in parsed.entity_documents():
                flat = flattener.flatten(entity_doc)
                flat["_source"] = source_id
                self.entity_collection.insert(flat)
                n_entities += 1
            text_records.extend(
                self._text_entity_records(parsed)
            )
        mapping = None
        if integrate_schema and text_records:
            mapping = self.integrator.integrate_source(source_id, text_records)
            translation = mapping.translation()
            for record in text_records:
                translated = {
                    translation[name]: value
                    for name, value in record.items()
                    if name in translation and value not in (None, "")
                }
                if not translated:
                    continue
                translated["_source"] = source_id
                self.curated_collection.insert(translated)
        self.catalog.register(
            source_id,
            kind="unstructured",
            description="domain-parsed web text",
            collection=INSTANCE_COLLECTION,
            records_loaded=n_fragments,
            attributes=["show_name", "text_feed"],
        )
        return TextIngestReport(
            documents=n_documents,
            fragments=n_fragments,
            entities=n_entities,
            mapping=mapping,
        )

    @staticmethod
    def _text_entity_records(parsed: ParsedDocument) -> List[Dict[str, Any]]:
        """Build sparse text-derived records for shows/movies found in text.

        The demo scenario only fuses show-type entities, so only Movie
        mentions produce curated records; each carries the show name and the
        fragment it was found in — exactly the two attributes Table V shows.
        """
        records: List[Dict[str, Any]] = []
        fragments_by_entity: Dict[str, str] = {}
        for fragment in parsed.fragments:
            fragments_by_entity.setdefault(fragment.entity_canonical, fragment.text)
        for mention in parsed.mentions:
            if mention.entity_type != "Movie":
                continue
            records.append(
                {
                    "show_name": mention.canonical,
                    "text_feed": fragments_by_entity.get(mention.canonical, ""),
                }
            )
        return records

    # -- attribute resolution ----------------------------------------------------

    def resolve_attribute(self, name: str) -> str:
        """Resolve a requested attribute name to the global schema's name.

        Checks, in order: an exact global attribute, a recorded alias, the
        canonical snake_case form, and finally the most name-similar global
        attribute above 0.7 similarity.  Falls back to the canonical form of
        the request when nothing matches (the caller may be querying an
        attribute that does not exist yet).
        """
        from ..schema.matchers import canonical_attribute_name, name_similarity

        if name in self.global_schema:
            return name
        aliased = self.global_schema.lookup_alias(name)
        if aliased is not None:
            return aliased
        canonical = canonical_attribute_name(name)
        if canonical in self.global_schema:
            return canonical
        best_name, best_score = canonical, 0.0
        for attribute_name in self.global_schema.attribute_names():
            score = name_similarity(name, attribute_name)
            if score > best_score:
                best_name, best_score = attribute_name, score
        if best_score >= 0.7:
            return best_name
        return canonical

    # -- consolidation ---------------------------------------------------------

    def train_dedup_model(
        self, labeled_pairs: Sequence[LabeledPair], seed: Optional[int] = None
    ) -> DedupModel:
        """Train (and keep) the deduplication classifier."""
        model = DedupModel(
            config=self.config.entity,
            seed=self.config.seed if seed is None else seed,
        )
        model.fit(labeled_pairs)
        self._dedup_model = model
        return model

    def set_dedup_model(self, model: DedupModel) -> None:
        """Install an externally trained dedup model."""
        self._dedup_model = model

    def consolidate_curated(
        self,
        key_attribute: str = "show_name",
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
    ) -> List[ConsolidatedEntity]:
        """Consolidate the curated collection into composite entities.

        Requires a trained dedup model.  Records lacking the key attribute
        pass through as singletons.
        """
        if self._dedup_model is None:
            raise TamerError("no dedup model; call train_dedup_model first")
        resolved_key = self.resolve_attribute(key_attribute)
        rows = [
            {k: v for k, v in doc.items() if k not in ("_id",)}
            for doc in self.curated_collection.scan()
        ]
        records = records_from_dicts(rows, source_id="curated")
        consolidator = EntityConsolidator(
            model=self._dedup_model,
            config=self.config.entity,
            key_attribute=resolved_key,
            merge_policy=merge_policy,
            executor=self._executor,
            hub=self._hub,
        )
        return consolidator.consolidate(records)

    # -- streaming curation ----------------------------------------------------

    @property
    def stream(self) -> Optional[StreamingTamer]:
        """The active streaming curation engine (``None`` until started)."""
        return self._stream

    def start_stream(
        self,
        key_attribute: str = "show_name",
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
        schema_integration: Optional[bool] = None,
    ) -> StreamingTamer:
        """Start incremental curation of the curated collection.

        Bootstraps a :class:`~repro.stream.engine.StreamingTamer` from the
        collection's current contents and tails every subsequent write
        through the change-data-capture hook.  Requires a trained dedup
        model.  Restarting replaces (and detaches) any previous stream.

        ``schema_integration`` overrides ``StreamConfig.schema_integration``
        for this stream: when on, the stream's operator chain also keeps a
        bottom-up global schema of the streamed sources fresh (the schema
        view lives on ``stream.integrator`` — it curates the *streamed*
        collection and never mutates the ingest-time
        :attr:`DataTamer.global_schema`).

        Note the streaming view keys records by their stable document
        ``_id`` (so a record's identity survives writes), where the batch
        :meth:`consolidate_curated` assigns positional ids per run.
        """
        if self._dedup_model is None:
            raise TamerError("no dedup model; call train_dedup_model first")
        if self._stream is not None:
            self._stream.close()
        stream_config = self.config.stream
        if schema_integration is not None:
            from dataclasses import replace

            stream_config = replace(
                stream_config, schema_integration=schema_integration
            )
        self._stream = StreamingTamer(
            self.curated_collection,
            self._dedup_model,
            entity_config=self.config.entity,
            stream_config=stream_config,
            executor=self._executor,
            key_attribute=self.resolve_attribute(key_attribute),
            merge_policy=merge_policy,
            schema_config=self.config.schema,
            schema_expert=self._schema_expert,
        )
        return self._stream

    def stop_stream(self) -> None:
        """Detach the streaming engine from the curated collection."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _require_stream(self) -> StreamingTamer:
        if self._stream is None or self._stream.closed:
            raise TamerError("no active stream; call start_stream first")
        return self._stream

    def apply_delta(self) -> DeltaApplyReport:
        """Drain pending curated-collection changes into the streaming state."""
        return self._require_stream().apply_delta()

    def refresh(self) -> List[ConsolidatedEntity]:
        """Apply pending deltas and return the streaming curated entities."""
        return self._require_stream().refresh()

    # -- query / fusion --------------------------------------------------------

    def build_query_engine(
        self,
        key_attribute: str = "show_name",
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
    ) -> QueryEngine:
        """Consolidate the curated collection and return a query engine over it."""
        entities = self.consolidate_curated(
            key_attribute=key_attribute, merge_policy=merge_policy
        )
        return QueryEngine(entities)

    def create_server(
        self,
        key_attribute: str = "show_name",
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
        serve_config=None,
    ):
        """Build a :class:`~repro.serve.server.QueryServer` over this system.

        With an active stream, the server shares the stream's cached query
        engine: every ``stream.query_engine()`` (or the driver's
        ``tamer.refresh()`` + ``query_engine()``) publish atomically swaps
        the snapshot concurrent requests read, and the server's result
        cache invalidates and re-primes in the background.  Without a
        stream, the curated collection is batch-consolidated once and
        served as a static view.

        The server is returned unstarted — run it with
        :func:`repro.serve.server.serve_in_background` (or ``await
        server.start()`` inside an event loop).  Request evaluation hands
        off to this tamer's executor-managed worker threads, so closing
        the tamer also releases the serving workers.
        """
        from ..serve.server import QueryServer
        from ..sql import SqlMetadata

        name_attribute = self.resolve_attribute(key_attribute)
        stream = self._stream if self._stream and not self._stream.closed else None
        if stream is not None:
            engine = stream.query_engine()
        else:
            entities = self.consolidate_curated(
                key_attribute=key_attribute, merge_policy=merge_policy
            )
            engine = QueryEngine(entities)
        prefer = [
            entry.source_id for entry in self.catalog.entries(kind="structured")
        ]
        return QueryServer(
            engine,
            config=serve_config or self.config.serve,
            stream=stream,
            curated_documents=self.curated_collection.scan,
            instance_collection=self.instance_collection,
            name_attribute=name_attribute,
            prefer_sources=prefer,
            executor=self._executor,
            hub=self._hub,
            # re-captured on the writer thread at every publish so the sql
            # op's catalog/schema/instance tables track this tamer's state
            sql_metadata=lambda: SqlMetadata.from_tamer(self),
        )

    def top_discussed_shows(self, k: int = 10) -> List[MentionCount]:
        """The Table IV query: most discussed shows in the text collection."""
        return top_k_discussed(self.instance_collection, k=k, entity_types=("Movie",))

    def fuse_show(
        self, show_name: str, prefer_structured: bool = True
    ) -> FusionResult:
        """Assemble the fused record for one show across curated records.

        This is the Table VI operation: every curated record (text-derived or
        structured-derived) for the show contributes its attributes; on
        conflicts structured sources win by default (they are cleaner).
        """
        from ..text.normalize import TextNormalizer

        normalizer = TextNormalizer()
        name_attribute = self.resolve_attribute("show_name")
        target = normalizer.normalize(show_name)
        views: List[Tuple[str, Dict[str, Any]]] = []
        for doc in self.curated_collection.scan():
            name = normalizer.normalize(str(doc.get(name_attribute, "")))
            if name != target:
                continue
            source = str(doc.get("_source", "unknown"))
            values = {
                k: v for k, v in doc.items() if k not in ("_id", "_source")
            }
            views.append((source, values))
        prefer: List[str] = []
        if prefer_structured:
            prefer = [
                entry.source_id
                for entry in self.catalog.entries(kind="structured")
            ]
        return fuse_entity_views(show_name, views, prefer_sources=prefer)

    # -- statistics --------------------------------------------------------------

    def collection_stats(self) -> Dict[str, CollectionStats]:
        """Statistics for every collection (Tables I and II)."""
        return self.store.stats()

    def summary(self) -> Dict[str, Any]:
        """A one-call overview of system state (sources, schema, collections)."""
        return {
            "sources": [entry.as_dict() for entry in self.catalog.entries()],
            "global_schema": self.global_schema.summary(),
            "collections": {
                name: stats.as_dict()
                for name, stats in self.collection_stats().items()
            },
        }
