"""The streaming curation facade — an incremental-operator host.

:class:`StreamingTamer` wires the incremental stack together for one
collection: a :class:`~repro.stream.changelog.Changelog` tails the
collection's change hook (optionally mirrored to an append-only JSONL file
for crash recovery), a
:class:`~repro.stream.scheduler.MicroBatchScheduler` drains it into
bounded delta batches, and an **ordered chain of
:class:`~repro.stream.operators.DeltaOperator`\\ s** consumes every batch:

* :class:`~repro.stream.delta_curation.DeltaCurator` keeps the
  consolidated entities fresh (always present);
* :class:`~repro.stream.delta_schema.DeltaIntegrator` keeps the streamed
  global schema and per-source mappings fresh
  (``StreamConfig.schema_integration``).

Each operator carries its own watermark; the cached
:class:`~repro.query.engine.QueryEngine` is stamped with the *entity*
operator's watermark and rebuilt only when entity curation advanced past
it — schema-only staleness never invalidates entity queries.

Typical use, through the :class:`~repro.core.tamer.DataTamer` facade::

    tamer.train_dedup_model(pairs)
    stream = tamer.start_stream()          # bootstraps every operator
    tamer.curated_collection.insert({...}) # writes flow into the changelog
    entities = tamer.refresh()             # incremental delta curation
    schema = stream.global_schema()        # incremental schema integration
    engine = stream.query_engine()         # watermark-aware invalidation
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import EntityConfig, SchemaConfig, StreamConfig
from ..entity.consolidation import ConsolidatedEntity, MergePolicy
from ..entity.dedup import DedupModel
from ..errors import TamerError
from ..fault import injector_for, resolve_plan
from ..obs import DEFAULT_SIZE_BUCKETS, TelemetryHub, default_hub
from ..query.engine import QueryEngine
from ..query.snapshot import EntitySnapshot
from ..schema.global_schema import GlobalSchema
from ..schema.integrator import ExpertOracle
from ..storage.persistence import ChangelogWriter
from .changelog import Changelog, tail_collection
from .delta_curation import DeltaCurator
from .delta_schema import DeltaIntegrator
from .operators import DeltaOperator, OperatorReport
from .scheduler import DeltaBatch, MicroBatchScheduler


@dataclass(frozen=True)
class DeltaApplyReport:
    """Outcome of one :meth:`StreamingTamer.apply_delta` call."""

    batches: int
    raw_events: int
    watermark: int
    rebuilt: bool
    #: Per-operator reports of the final applied batch (empty when no batch
    #: was pending), in chain order.
    operator_reports: Tuple[OperatorReport, ...] = field(default_factory=tuple)


def _stream_gauge(hub, name: str) -> float:
    """Read a lag/age gauge off the hub's current stream (0 when gone)."""
    source = getattr(hub, "_stream_gauge_source", None)
    if source is None:
        return 0.0
    if name == "pending_events":
        return float(source.pending_events)
    return float(source.watermark_age_seconds)


class StreamingTamer:
    """Host an operator chain keeping one collection's curated views fresh."""

    def __init__(
        self,
        collection,
        model: DedupModel,
        entity_config: Optional[EntityConfig] = None,
        stream_config: Optional[StreamConfig] = None,
        executor=None,
        key_attribute: Optional[str] = None,
        merge_policy: MergePolicy = MergePolicy.MAJORITY,
        max_cluster_size: Optional[int] = 50,
        source_id: str = "curated",
        clock: Callable[[], float] = time.monotonic,
        schema_config: Optional[SchemaConfig] = None,
        schema_expert: Optional[ExpertOracle] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self._collection = collection
        self._executor = executor
        if hub is None:
            hub = getattr(executor, "hub", None) or default_hub()
        self._hub = hub
        self._clock = clock
        self._last_advance = clock()
        registry = hub.registry
        self._m_batches = registry.counter(
            "stream_batches_total", "Micro-batches applied"
        )
        self._m_events = registry.counter(
            "stream_events_total", "Raw changelog events applied"
        )
        self._m_batch_size = registry.histogram(
            "stream_batch_size",
            "Raw events per applied micro-batch",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_operator_apply = registry.histogram(
            "stream_operator_apply_seconds",
            "Apply time per operator per micro-batch",
            labels=("operator",),
        )
        self._m_refresh_work = registry.histogram(
            "stream_refresh_work",
            "Delta work per entity refresh: pairs classified, components "
            "re-clustered, entities re-stamped",
            labels=("work",),
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._observed_refresh = None
        self._m_rebuilds = registry.counter(
            "stream_rebuilds_total", "Full-rebuild fallback runs"
        )
        self._m_compactions = registry.counter(
            "stream_compactions_total",
            "Changelog snapshot-rewrite compactions",
        )
        self._m_publishes = registry.counter(
            "stream_publishes_total", "Entity-snapshot publishes"
        )
        self._m_watermark = registry.gauge(
            "stream_watermark", "Changelog watermark every operator reached"
        )
        # lag/age read live through the hub's current stream: a hub usually
        # hosts one stream at a time, and re-pointing on construction keeps
        # the callbacks valid after a stream is closed and replaced
        hub._stream_gauge_source = self
        registry.gauge(
            "stream_pending_events",
            "Watermark lag: recorded events not yet applied",
            callback=lambda: _stream_gauge(hub, "pending_events"),
        )
        registry.gauge(
            "stream_watermark_age_seconds",
            "Seconds since the stream watermark last advanced",
            callback=lambda: _stream_gauge(hub, "watermark_age_seconds"),
        )
        self._stream_config = stream_config or StreamConfig()
        self._stream_config.validate()
        self._faults = injector_for(resolve_plan(self._stream_config.fault_plan))
        self._writer: Optional[ChangelogWriter] = None
        if self._stream_config.changelog_path is not None:
            self._writer = ChangelogWriter(
                self._stream_config.changelog_path, faults=self._faults
            )
            self._writer.write_snapshot(collection.scan())
        changelog = Changelog(
            sink=self._writer.append if self._writer is not None else None
        )
        self._changelog, self._unsubscribe = tail_collection(
            collection, changelog
        )
        try:
            self._scheduler = MicroBatchScheduler(
                self._changelog,
                config=self._stream_config,
                executor=executor,
                clock=clock,
                faults=self._faults,
            )
            self._curator = DeltaCurator(
                model,
                config=entity_config,
                key_attribute=key_attribute,
                merge_policy=merge_policy,
                max_cluster_size=max_cluster_size,
                executor=executor,
                source_id=source_id,
            )
            self._operators: List[DeltaOperator] = [self._curator]
            self._integrator: Optional[DeltaIntegrator] = None
            if self._stream_config.schema_integration:
                self._integrator = DeltaIntegrator(
                    config=schema_config,
                    expert=schema_expert,
                    source_id=source_id,
                )
                self._operators.append(self._integrator)
            for operator in self._operators:
                operator.bootstrap(collection.scan())
                operator.mark_current(self._scheduler.watermark)
        except BaseException:
            # never leak the change listener (or the writer) on a failed
            # bootstrap
            self._unsubscribe()
            if self._writer is not None:
                self._writer.close()
            raise
        self._events_since_rebuild = 0
        self._rebuild_count = 0
        self._engine: Optional[QueryEngine] = None
        self._snapshot_listeners: List[Callable[[EntitySnapshot], None]] = []
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def changelog(self) -> Changelog:
        """The changelog tailing the collection."""
        return self._changelog

    @property
    def scheduler(self) -> MicroBatchScheduler:
        """The micro-batch scheduler draining the changelog."""
        return self._scheduler

    @property
    def operators(self) -> List[DeltaOperator]:
        """The operator chain, in application order."""
        return list(self._operators)

    @property
    def curator(self) -> DeltaCurator:
        """The incremental entity-consolidation operator."""
        return self._curator

    @property
    def integrator(self) -> Optional[DeltaIntegrator]:
        """The incremental schema-integration operator (``None`` when
        ``StreamConfig.schema_integration`` is off)."""
        return self._integrator

    @property
    def changelog_writer(self) -> Optional[ChangelogWriter]:
        """The crash-recovery changelog mirror (``None`` when disabled)."""
        return self._writer

    @property
    def watermark(self) -> int:
        """Changelog watermark through which *every* operator is current."""
        return min(
            (operator.watermark for operator in self._operators),
            default=self._scheduler.watermark,
        )

    def watermarks(self) -> Dict[str, int]:
        """Per-operator watermarks, keyed by operator name."""
        return {
            operator.name: operator.watermark for operator in self._operators
        }

    @property
    def pending_events(self) -> int:
        """Recorded events not yet applied to the curated state."""
        return self._scheduler.pending()

    @property
    def watermark_age_seconds(self) -> float:
        """Seconds since a micro-batch last advanced the watermark."""
        return max(0.0, self._clock() - self._last_advance)

    @property
    def rebuild_count(self) -> int:
        """How many times the full-rebuild fallback has fired."""
        return self._rebuild_count

    @property
    def closed(self) -> bool:
        """Whether the stream has been detached from the collection."""
        return self._closed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from the collection's change hook and close the changelog
        writer; idempotent."""
        if not self._closed:
            self._unsubscribe()
            if self._writer is not None:
                self._writer.close()
            self._closed = True

    def __enter__(self) -> "StreamingTamer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise TamerError("streaming engine is closed")

    # -- curation ----------------------------------------------------------

    def apply_batch(self, batch: DeltaBatch) -> List[OperatorReport]:
        """Apply one coalesced batch to every operator, in chain order.

        Counts the batch's raw events toward the rebuild threshold — every
        driver (``apply_delta``, a pipeline operator stage) shares the same
        accounting; call :meth:`maybe_rebuild` after a drain to let the
        fallback fire.
        """
        self._ensure_open()
        reports = []
        with self._hub.tracer.span(
            "stream.batch",
            tags={
                "events": len(batch),
                "raw_events": batch.raw_event_count,
                "high_watermark": batch.high_watermark,
            },
        ):
            for operator in self._operators:
                start = time.perf_counter()
                with self._hub.tracer.span(
                    "stream.operator", tags={"operator": operator.name}
                ):
                    reports.append(operator.apply(batch))
                self._m_operator_apply.labels(operator=operator.name).observe(
                    time.perf_counter() - start
                )
        self._events_since_rebuild += batch.raw_event_count
        self._m_batches.inc()
        self._m_events.inc(batch.raw_event_count)
        self._m_batch_size.observe(batch.raw_event_count)
        self._m_watermark.set(self.watermark)
        self._last_advance = self._clock()
        return reports

    def _rebuild_all(self) -> None:
        with self._hub.tracer.span("stream.rebuild"):
            for operator in self._operators:
                operator.rebuild(self._collection.scan())
        self._events_since_rebuild = 0
        self._rebuild_count += 1
        self._m_rebuilds.inc()
        self.compact_changelog()

    def compact_changelog(self) -> int:
        """Snapshot + truncate the persisted changelog (recovery stays exact).

        Every event written so far is already reflected in the collection,
        so the log's replayed history is replaced by one bootstrap snapshot
        of the current documents (atomic rename — a crash mid-compaction
        leaves a complete log either way).  Replaying the compacted log
        reproduces the collection bit-identically, now at a cost bounded by
        collection size instead of stream lifetime.  Returns the snapshot
        document count (0 when changelog persistence is off or the writer
        is closed).
        """
        if self._writer is None:
            return 0
        before = self._writer.snapshot_rewrites
        count = self._writer.rewrite_snapshot(self._collection.scan())
        if self._writer.snapshot_rewrites > before:
            self._m_compactions.inc()
        return count

    @property
    def compaction_count(self) -> int:
        """How many times the persisted changelog has been compacted."""
        return self._writer.snapshot_rewrites if self._writer else 0

    def maybe_rebuild(self) -> bool:
        """Fire the periodic full-rebuild fallback if it is due.

        When the applied-event count crosses
        ``StreamConfig.rebuild_threshold``, every operator's incremental
        state is discarded and rebuilt from the collection (the incremental
        paths are exactly equivalent, so this is hygiene against unbounded
        cache drift, not a correctness valve).
        """
        threshold = self._stream_config.rebuild_threshold
        if threshold and self._events_since_rebuild >= threshold:
            self._rebuild_all()
            return True
        return False

    def apply_delta(self) -> DeltaApplyReport:
        """Drain all pending micro-batches through the operator chain,
        then let the periodic rebuild fallback fire (:meth:`maybe_rebuild`)."""
        self._ensure_open()
        batches = 0
        raw_events = 0
        reports: List[OperatorReport] = []
        for batch in self._scheduler.drain():
            reports = self.apply_batch(batch)
            batches += 1
            raw_events += batch.raw_event_count
        rebuilt = self.maybe_rebuild()
        return DeltaApplyReport(
            batches=batches,
            raw_events=raw_events,
            watermark=self.watermark,
            rebuilt=rebuilt,
            operator_reports=tuple(reports),
        )

    def poll(self) -> Optional[DeltaApplyReport]:
        """Apply pending deltas only when the scheduler says a flush is due
        (full batch pending, or pending events older than the flush
        interval); returns ``None`` when not due."""
        self._ensure_open()
        if not self._scheduler.due():
            return None
        return self.apply_delta()

    def _meter_refresh(self) -> None:
        """Record the curator's latest refresh in the hub, once."""
        stats = self._curator.last_stats
        if stats is self._observed_refresh:
            return
        self._observed_refresh = stats
        for work in (
            "pairs_classified",
            "components_recomputed",
            "entities_restamped",
        ):
            self._m_refresh_work.labels(work=work).observe(getattr(stats, work))

    def refresh(self) -> List[ConsolidatedEntity]:
        """Apply pending deltas and return the curated entities."""
        self.apply_delta()
        entities = self._curator.entities()
        self._meter_refresh()
        return entities

    def global_schema(self) -> GlobalSchema:
        """Apply pending deltas and return the streamed global schema.

        Requires ``StreamConfig.schema_integration``.
        """
        integrator = self._require_integrator()
        self.apply_delta()
        return integrator.global_schema

    def _require_integrator(self) -> DeltaIntegrator:
        if self._integrator is None:
            raise TamerError(
                "schema integration is not enabled on this stream; set "
                "StreamConfig.schema_integration"
            )
        return self._integrator

    def full_rebuild(self) -> List[ConsolidatedEntity]:
        """Force the full-rebuild fallback now and return its entities."""
        self._ensure_open()
        self.apply_delta()
        self._rebuild_all()
        return self.refresh()

    def batch_reference(self) -> List[ConsolidatedEntity]:
        """A from-scratch batch consolidation over the current records.

        The entity-operator equivalence oracle: always bit-identical to
        :meth:`refresh`.  (The schema operator exposes its own oracle —
        ``stream.integrator.batch_reference()``.)
        """
        self.apply_delta()
        return self._curator.batch_reference()

    # -- query -------------------------------------------------------------

    def subscribe_snapshots(
        self, callback: Callable[[EntitySnapshot], None]
    ) -> Callable[[], None]:
        """Register a callback fired after every entity-snapshot publish.

        The serving tier's invalidation hook: whenever :meth:`query_engine`
        swaps a fresh view into the cached engine, every subscriber
        receives the newly published immutable
        :class:`~repro.query.snapshot.EntitySnapshot` (entity tuple plus
        entity/schema watermark pair).  Callbacks run on the thread that
        drove the refresh — subscribers needing to react elsewhere (an
        asyncio server loop) must trampoline themselves.  Returns an
        unsubscribe callable; unsubscribing twice is a no-op.
        """
        self._snapshot_listeners.append(callback)

        def unsubscribe() -> None:
            if callback in self._snapshot_listeners:
                self._snapshot_listeners.remove(callback)

        return unsubscribe

    def _publish(self, snapshot: EntitySnapshot) -> None:
        self._m_publishes.inc()
        for listener in list(self._snapshot_listeners):
            listener(snapshot)

    def query_engine(self) -> QueryEngine:
        """A query engine over the current entities.

        The engine is stamped with the **entity operator's** watermark
        (plus the schema operator's, when integration is on) and cached;
        further writes advance the changelog, and the next call refreshes
        curation and publishes the new entity view with one atomic
        snapshot swap — concurrent readers of the cached engine never
        block and never observe a torn view.  Holders of the engine can
        check :meth:`QueryEngine.is_stale` against
        :attr:`StreamingTamer.watermark` (or the per-operator
        :meth:`watermarks`) themselves.
        """
        self.apply_delta()
        watermark = self._curator.watermark
        schema_watermark = (
            self._integrator.watermark if self._integrator is not None else None
        )
        if self._engine is not None and self._engine.watermark == watermark:
            return self._engine
        # the curator's per-refresh tuple goes into the snapshot as is: a
        # publish right after refresh() copies nothing
        entities = self._curator.entity_tuple()
        self._meter_refresh()
        if self._engine is None:
            self._engine = QueryEngine(
                entities,
                watermark=watermark,
                schema_watermark=schema_watermark,
            )
            self._publish(self._engine.snapshot)
        else:
            snapshot = self._engine.replace_entities(
                entities,
                watermark=watermark,
                schema_watermark=schema_watermark,
            )
            self._publish(snapshot)
        return self._engine
