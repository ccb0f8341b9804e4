"""Configuration objects for the Data Tamer reproduction.

The original Data Tamer system exposes a handful of operator-tunable knobs:
the schema-matching acceptance threshold, the entity-consolidation match
threshold, how aggressively to block candidate pairs, and how much work to
send to human experts.  :class:`TamerConfig` collects those knobs in one
immutable-by-convention dataclass that the :class:`repro.core.tamer.DataTamer`
facade threads through every subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .errors import ConfigError
from .fault import FaultPlan


@dataclass
class StorageConfig:
    """Settings for the sharded document store substrate.

    The paper's deployment stores collections in 2 GB extents across a
    MongoDB cluster.  At laptop scale we keep the same extent mechanics but
    default to much smaller extents so the extent machinery is exercised
    (Tables I and II report ``numExtents``) without gigabytes of RAM.
    """

    extent_size_bytes: int = 2 * 1024 * 1024
    num_shards: int = 4

    def validate(self) -> None:
        if self.extent_size_bytes <= 0:
            raise ConfigError("extent_size_bytes must be positive")
        if self.num_shards <= 0:
            raise ConfigError("num_shards must be positive")


@dataclass
class SchemaConfig:
    """Settings for schema integration.

    ``accept_threshold`` is the paper's user-selected score below which a
    suggested match is escalated to an expert; ``new_attribute_threshold`` is
    the score below which an incoming attribute is considered genuinely new
    and proposed for addition to the global schema.
    """

    accept_threshold: float = 0.75
    new_attribute_threshold: float = 0.35
    matcher_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "name": 0.45,
            "value": 0.35,
            "type": 0.10,
            "stats": 0.10,
        }
    )
    use_expert_escalation: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.accept_threshold <= 1.0:
            raise ConfigError("accept_threshold must be in [0, 1]")
        if not 0.0 <= self.new_attribute_threshold <= 1.0:
            raise ConfigError("new_attribute_threshold must be in [0, 1]")
        if self.new_attribute_threshold > self.accept_threshold:
            raise ConfigError(
                "new_attribute_threshold must not exceed accept_threshold"
            )
        if not self.matcher_weights:
            raise ConfigError("matcher_weights must not be empty")
        if any(w < 0 for w in self.matcher_weights.values()):
            raise ConfigError("matcher_weights must be non-negative")
        if sum(self.matcher_weights.values()) <= 0:
            raise ConfigError("matcher_weights must sum to a positive value")


@dataclass
class EntityConfig:
    """Settings for entity consolidation (deduplication).

    ``candidate_filtering`` enables the provable candidate-pair filter
    (:class:`repro.entity.kernel.CandidateFilter`): blocked pairs whose
    linear classifier score provably cannot reach ``match_threshold`` are
    pruned before feature extraction.  The filter never changes the matched
    pairs — and therefore never changes clusters or entities — it only
    skips scoring work; it silently deactivates for non-linear classifiers
    (naive Bayes).
    """

    match_threshold: float = 0.55
    blocking_strategy: str = "token"
    max_block_size: int = 200
    classifier: str = "logistic"
    crossval_folds: int = 10
    candidate_filtering: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ConfigError("match_threshold must be in [0, 1]")
        if self.blocking_strategy not in {"token", "ngram", "sorted", "none"}:
            raise ConfigError(
                f"unknown blocking_strategy: {self.blocking_strategy!r}"
            )
        if self.max_block_size <= 1:
            raise ConfigError("max_block_size must be > 1")
        if self.classifier not in {"logistic", "naive_bayes"}:
            raise ConfigError(f"unknown classifier: {self.classifier!r}")
        if self.crossval_folds < 2:
            raise ConfigError("crossval_folds must be >= 2")


@dataclass
class ExecConfig:
    """Settings for the parallel sharded execution engine.

    ``parallelism`` is the worker count used when a stage fans out over
    shards: 1 runs every fan-out inline in the caller, anything above runs
    it on one persistent process pool with warm worker state (see
    :class:`repro.exec.pool.PersistentWorkerPool`) — records ship to the
    long-lived workers once and later fan-outs send only ids and deltas.
    ``batch_size`` bounds how many candidate pairs are featurized per
    scoring chunk.  ``pool_idle_timeout`` stops idle pool workers after
    that many seconds (0 keeps them until the executor is closed);
    restarting re-syncs the warm state automatically.

    ``backend`` and ``pool`` each accept exactly one value (``"process"``
    and ``"persistent"``, the defaults): the thread, serial, ephemeral and
    cold-pool variants were measured slower than both inline and the warm
    pool and were removed.  The two fields stay only because the end-to-end
    benchmark's ``curate_pool2`` workload still constructs
    ``ExecConfig(backend="process", pool="persistent")``; they go once that
    benchmark stops passing them.

    ``dispatch_deadline`` bounds how long one dispatched shard may sit on a
    persistent worker before the worker is presumed hung, killed, respawned,
    and the shard re-dispatched (0 disables the watchdog — a crashed worker
    is still detected via its broken pipe either way).  ``fault_plan`` arms
    the deterministic fault-injection harness on the pool's fault points
    (see :mod:`repro.fault`); None defers to the ``REPRO_FAULT_PLAN``
    environment variable, so production default is "off".
    """

    parallelism: int = 1
    batch_size: int = 256
    backend: str = "process"
    pool: str = "persistent"
    pool_idle_timeout: float = 300.0
    dispatch_deadline: float = 0.0
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.backend != "process":
            raise ConfigError(
                f"exec backend {self.backend!r} was removed: parallel work "
                'always runs on the process pool (only backend="process" '
                "is accepted)"
            )
        if self.pool != "persistent":
            raise ConfigError(
                f"exec pool flavour {self.pool!r} was removed: the process "
                'pool is always persistent (only pool="persistent" is '
                "accepted)"
            )
        if self.pool_idle_timeout < 0:
            raise ConfigError("pool_idle_timeout must be >= 0")
        if self.dispatch_deadline < 0:
            raise ConfigError("dispatch_deadline must be >= 0")
        if self.fault_plan is not None:
            self.fault_plan.validate()


@dataclass
class StreamConfig:
    """Settings for the incremental streaming curation engine.

    ``max_batch_size`` bounds how many changelog events one micro-batch may
    carry; ``flush_interval`` is how long (seconds, measured from when the
    scheduler first observes them) pending events may wait before a flush
    is due even though the batch is not full (0 means every poll flushes);
    ``rebuild_threshold`` is the number of applied
    events after which the engine discards its incremental state and falls
    back to a full from-scratch rebuild (0 disables the fallback — the
    incremental path is exactly equivalent, so the rebuild is hygiene, not
    correctness).

    ``schema_integration`` adds the incremental schema integrator
    (:class:`repro.stream.delta_schema.DeltaIntegrator`) as a second
    operator on the stream's chain, keeping a bottom-up global schema and
    per-source mappings fresh alongside entity consolidation.
    ``changelog_path`` enables crash recovery: every recorded change event
    (plus a bootstrap snapshot of the collection at stream start) is
    appended to that JSONL file, and
    :func:`repro.storage.persistence.recover_collection` replays it into an
    empty collection after a crash — reproducing the live curated state
    bit-identically.

    Every full rebuild compacts the changelog: the replayed history is
    atomically replaced by a fresh bootstrap snapshot of the collection, so
    recovery cost stops growing with stream lifetime.  ``fault_plan`` arms
    fault injection on the stream's fault points (``changelog.write``,
    ``scheduler.drain``).
    """

    max_batch_size: int = 256
    flush_interval: float = 0.0
    rebuild_threshold: int = 10_000
    schema_integration: bool = False
    changelog_path: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.flush_interval < 0:
            raise ConfigError("flush_interval must be >= 0")
        if self.rebuild_threshold < 0:
            raise ConfigError("rebuild_threshold must be >= 0")
        if self.changelog_path is not None and not str(self.changelog_path):
            raise ConfigError("changelog_path must be a non-empty path or None")
        if self.fault_plan is not None:
            self.fault_plan.validate()


@dataclass
class ServeConfig:
    """Settings for the concurrent query-serving tier.

    ``host``/``port`` are the listen address (port 0 binds an ephemeral
    port, reported by :attr:`repro.serve.server.QueryServer.port` once
    started).  ``request_workers`` sizes the thread pool query evaluation
    is handed off to, keeping the asyncio event loop free for I/O.
    ``cache_size`` bounds the watermark-keyed result cache (0 disables
    caching entirely); ``refresh_limit`` is how many of the hottest cached
    queries are re-evaluated in the background when a new snapshot is
    published (0 disables background refresh — stale entries then refresh
    lazily on their next miss).  ``max_request_bytes`` bounds one request
    line on the wire.

    Resilience knobs: ``max_inflight`` bounds how many requests may occupy
    evaluation workers at once — beyond it the server *sheds* instead of
    queueing, replying with an ``Overloaded`` error carrying
    ``retry_after_seconds`` as a backoff hint (0 disables admission
    control).  ``request_deadline`` bounds one evaluation's wall time; a
    miss answers ``DeadlineExceeded`` instead of holding the connection
    (0 disables).  ``degraded_after_seconds`` enables degraded reads: when
    the published snapshot is older than this *and* stream events are
    pending, cacheable queries may be answered from stale cache entries
    stamped with their original watermark and flagged ``degraded: true``
    (0 disables — never serve stale).  ``drain_timeout`` is how long
    :meth:`~repro.serve.server.QueryServer.stop` waits for in-flight
    requests to finish before force-closing connections.  ``fault_plan``
    arms injection on ``serve.socket_read`` / ``serve.evaluate``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    request_workers: int = 4
    cache_size: int = 1024
    refresh_limit: int = 32
    max_request_bytes: int = 1 << 20
    max_inflight: int = 0
    request_deadline: float = 0.0
    retry_after_seconds: float = 0.05
    degraded_after_seconds: float = 0.0
    drain_timeout: float = 5.0
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        if not self.host:
            raise ConfigError("host must be a non-empty address")
        if not 0 <= self.port <= 65535:
            raise ConfigError("port must be in [0, 65535]")
        if self.request_workers < 1:
            raise ConfigError("request_workers must be >= 1")
        if self.cache_size < 0:
            raise ConfigError("cache_size must be >= 0")
        if self.refresh_limit < 0:
            raise ConfigError("refresh_limit must be >= 0")
        if self.max_request_bytes < 1024:
            raise ConfigError("max_request_bytes must be >= 1024")
        if self.max_inflight < 0:
            raise ConfigError("max_inflight must be >= 0")
        if self.request_deadline < 0:
            raise ConfigError("request_deadline must be >= 0")
        if self.retry_after_seconds <= 0:
            raise ConfigError("retry_after_seconds must be positive")
        if self.degraded_after_seconds < 0:
            raise ConfigError("degraded_after_seconds must be >= 0")
        if self.drain_timeout < 0:
            raise ConfigError("drain_timeout must be >= 0")
        if self.fault_plan is not None:
            self.fault_plan.validate()


@dataclass
class ObsConfig:
    """Settings for the unified observability layer.

    ``enabled`` switches the whole telemetry plane: when off, every layer
    receives the shared no-op instruments and tracing context managers
    collapse to near-zero cost (the CI overhead gate holds the enabled
    path within 5% of disabled throughput, so the default is on).
    ``trace_buffer`` bounds how many finished spans the in-memory ring
    retains for the ``metrics`` op's trace summary.
    ``trace_sample_every`` thins the highest-rate span site — the serve
    tier records a ``serve.request`` span for one request in every N
    (1 = every request); metrics stay exact regardless, only trace
    volume is sampled.  Low-rate spans (micro-batches, pipeline stages,
    shard fan-outs) are never sampled.  ``snapshot_path`` enables the
    periodic JSONL snapshot writer (one registry snapshot appended
    every ``snapshot_interval_seconds``) for offline analysis.

    Alert thresholds feed the in-process rule evaluator surfaced through
    the serve ``status`` op: ``alert_watermark_age_seconds`` fires when the
    published snapshot's watermark age exceeds it, and
    ``alert_respawn_rate_per_minute`` when pool worker respawns (crash or
    hung-kill) within the sliding ``alert_window_seconds`` exceed that
    per-minute rate.  Setting either threshold to 0 disables that rule.
    """

    enabled: bool = True
    trace_buffer: int = 1024
    trace_sample_every: int = 10
    snapshot_path: Optional[str] = None
    snapshot_interval_seconds: float = 10.0
    alert_watermark_age_seconds: float = 300.0
    alert_respawn_rate_per_minute: float = 30.0
    alert_window_seconds: float = 60.0

    def validate(self) -> None:
        if self.trace_buffer < 1:
            raise ConfigError("trace_buffer must be >= 1")
        if self.trace_sample_every < 1:
            raise ConfigError("trace_sample_every must be >= 1")
        if self.snapshot_path is not None and not str(self.snapshot_path):
            raise ConfigError("snapshot_path must be a non-empty path or None")
        if self.snapshot_interval_seconds <= 0:
            raise ConfigError("snapshot_interval_seconds must be positive")
        if self.alert_watermark_age_seconds < 0:
            raise ConfigError("alert_watermark_age_seconds must be >= 0")
        if self.alert_respawn_rate_per_minute < 0:
            raise ConfigError("alert_respawn_rate_per_minute must be >= 0")
        if self.alert_window_seconds <= 0:
            raise ConfigError("alert_window_seconds must be positive")


@dataclass
class ExpertConfig:
    """Settings for the expert-sourcing subsystem."""

    max_tasks_per_expert: int = 1000
    min_answers_per_task: int = 1

    def validate(self) -> None:
        if self.max_tasks_per_expert <= 0:
            raise ConfigError("max_tasks_per_expert must be positive")
        if self.min_answers_per_task <= 0:
            raise ConfigError("min_answers_per_task must be positive")


@dataclass
class TamerConfig:
    """Top-level configuration threaded through every subsystem."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    schema: SchemaConfig = field(default_factory=SchemaConfig)
    entity: EntityConfig = field(default_factory=EntityConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)
    execution: ExecConfig = field(default_factory=ExecConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    seed: Optional[int] = 0

    def validate(self) -> "TamerConfig":
        """Validate every section and return ``self`` for chaining."""
        self.storage.validate()
        self.schema.validate()
        self.entity.validate()
        self.expert.validate()
        self.execution.validate()
        self.stream.validate()
        self.serve.validate()
        self.obs.validate()
        return self

    def with_seed(self, seed: int) -> "TamerConfig":
        """Return a copy of this config with a different random seed."""
        return replace(self, seed=seed)

    @classmethod
    def default(cls) -> "TamerConfig":
        """Return a validated default configuration."""
        return cls().validate()

    @classmethod
    def small(cls) -> "TamerConfig":
        """A configuration sized for unit tests: tiny extents, two shards."""
        cfg = cls(
            storage=StorageConfig(extent_size_bytes=64 * 1024, num_shards=2),
        )
        return cfg.validate()

    @classmethod
    def parallel(cls, workers: int, batch_size: int = 256) -> "TamerConfig":
        """A default configuration with the parallel execution engine enabled."""
        cfg = cls(
            execution=ExecConfig(parallelism=workers, batch_size=batch_size),
        )
        return cfg.validate()

    def with_parallelism(
        self, workers: int, batch_size: Optional[int] = None
    ) -> "TamerConfig":
        """Return a copy of this config with different execution knobs."""
        execution = replace(
            self.execution,
            parallelism=workers,
            batch_size=(
                batch_size if batch_size is not None else self.execution.batch_size
            ),
        )
        return replace(self, execution=execution).validate()
