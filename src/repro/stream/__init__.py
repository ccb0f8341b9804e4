"""Incremental streaming curation.

Full-batch re-curation is wasteful when records trickle in continuously —
the paper's deployment curates collections that grow by the hour.  This
package keeps the curated state fresh as writes stream in:

* :mod:`repro.stream.changelog` — change-data-capture: every write to a
  tailed collection becomes a :class:`ChangeEvent` with a monotonic
  sequence number; watermarks mark how far consumers have applied; an
  optional sink mirrors the log to disk for crash recovery.
* :mod:`repro.stream.scheduler` — :class:`MicroBatchScheduler` drains the
  changelog into bounded, per-document-coalesced :class:`DeltaBatch`\\ es.
* :mod:`repro.stream.operators` — the :class:`DeltaOperator` contract
  every incremental consumer implements: bootstrap-from-batch, coalesced
  delta application with per-operator watermarks, and a rebuild fallback.
* :mod:`repro.stream.delta_curation` — :class:`DeltaCurator`, the entity
  operator: incremental blocking, cached pair features, union/split
  clustering — provably bit-identical to a from-scratch batch run.
* :mod:`repro.stream.delta_schema` — :class:`DeltaIntegrator`, the schema
  operator: mergeable per-column profile statistics, memoized matcher
  scoring, deterministic expert replay — provably bit-identical to batch
  re-integration.
* :mod:`repro.stream.engine` — :class:`StreamingTamer`, the operator host
  the :class:`~repro.core.tamer.DataTamer` exposes through
  ``start_stream()`` / ``apply_delta()`` / ``refresh()``, with
  watermark-aware query-engine invalidation and changelog persistence.
"""

from .changelog import ChangeEvent, Changelog, tail_collection
from .delta_curation import DeltaCurator, RefreshStats, record_from_document
from .delta_schema import DeltaIntegrator, SchemaRefreshStats, schema_snapshot
from .engine import DeltaApplyReport, StreamingTamer
from .operators import DeltaOperator, OperatorReport
from .scheduler import DeltaBatch, MicroBatchScheduler, coalesce_events

__all__ = [
    "ChangeEvent",
    "Changelog",
    "tail_collection",
    "DeltaBatch",
    "MicroBatchScheduler",
    "coalesce_events",
    "DeltaOperator",
    "OperatorReport",
    "DeltaCurator",
    "RefreshStats",
    "record_from_document",
    "DeltaIntegrator",
    "SchemaRefreshStats",
    "schema_snapshot",
    "DeltaApplyReport",
    "StreamingTamer",
]
