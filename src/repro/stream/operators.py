"""The incremental-operator contract shared by every streaming consumer.

PR 2's streaming engine hard-wired entity consolidation as *the* delta
consumer; every other curation step still paid full batch re-runs per
write.  This module extracts the contract that made the consolidation path
incremental, so any curation step can plug into the same changelog:

* **bootstrap from batch** — an operator is seeded once from the
  collection's current documents (``bootstrap``), then never reads the
  collection again;
* **delta application** — each coalesced
  :class:`~repro.stream.scheduler.DeltaBatch` is applied in order
  (``apply``), doing work proportional to the delta, and returns an
  :class:`OperatorReport`;
* **watermark** — the operator remembers the changelog sequence number its
  state is current through, so downstream consumers (query engines, other
  hosts) can reason about staleness per operator rather than per stream;
* **rebuild fallback** — ``rebuild`` discards all incremental state and
  re-bootstraps (hygiene against cache drift; every operator's incremental
  path is exactly equivalent, so this is never a correctness valve).

The host is :class:`~repro.stream.engine.StreamingTamer`: one changelog,
one scheduler, an ordered chain of operators sharing each drained batch.
:class:`~repro.stream.delta_curation.DeltaCurator` (entity consolidation)
and :class:`~repro.stream.delta_schema.DeltaIntegrator` (schema
integration) are the two operators in the chain today; the contract is what
every later operator reuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from .scheduler import DeltaBatch


@dataclass(frozen=True)
class OperatorReport:
    """Outcome of applying one delta batch to one operator."""

    #: The operator's stable name (unique within a host's chain).
    operator: str
    #: Coalesced events the operator consumed from the batch.
    events: int
    #: Raw changelog events the batch covered.
    raw_events: int
    #: Changelog watermark the operator's state is current through.
    watermark: int
    #: Operator-specific bookkeeping (counts of work done vs reused).
    details: Dict[str, object] = field(default_factory=dict)


class DeltaOperator:
    """Base class for incremental consumers of a collection changelog.

    Subclasses implement :meth:`bootstrap`, :meth:`_apply_events` and
    :meth:`rebuild`; the base class provides the shared watermark
    bookkeeping and the :meth:`apply` entry point the host drives.  The
    defining obligation is **batch equivalence**: after any applied event
    sequence the operator's state must be bit-identical to recomputing it
    from scratch over the same documents (each operator exposes its own
    oracle — e.g. ``batch_reference`` — and the equivalence suites enforce
    it).
    """

    #: Stable operator name; subclasses override.
    name: str = "operator"

    def __init__(self) -> None:
        self._watermark = 0

    @property
    def watermark(self) -> int:
        """Changelog seq this operator's state is current through."""
        return self._watermark

    def mark_current(self, watermark: int) -> None:
        """Stamp the operator as current through ``watermark``.

        Hosts call this after bootstrapping an operator from the collection:
        the bootstrap snapshot already reflects every event at or below the
        scheduler's watermark.
        """
        self._watermark = watermark

    # -- contract ----------------------------------------------------------

    def bootstrap(self, documents: Iterable[dict]) -> None:
        """Seed the operator's state from the collection's documents."""
        raise NotImplementedError

    def rebuild(self, documents: Iterable[dict]) -> None:
        """Discard all incremental state and re-bootstrap from scratch."""
        raise NotImplementedError

    def _apply_events(self, batch: DeltaBatch) -> Dict[str, object]:
        """Consume one batch's coalesced events; returns report details."""
        raise NotImplementedError

    def apply(self, batch: DeltaBatch) -> OperatorReport:
        """Apply one coalesced delta batch and advance the watermark."""
        details = self._apply_events(batch) or {}
        self._watermark = max(self._watermark, batch.high_watermark)
        return OperatorReport(
            operator=self.name,
            events=len(batch),
            raw_events=batch.raw_event_count,
            watermark=self._watermark,
            details=details,
        )
