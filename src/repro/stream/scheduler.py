"""Micro-batch scheduling over a changelog.

The scheduler drains a :class:`~repro.stream.changelog.Changelog` into
bounded :class:`DeltaBatch` objects.  Within a batch, events are *coalesced*
to one net event per document id — ``insert → update → update`` collapses to
a single insert carrying the final post-image, ``insert → delete`` cancels
out entirely — so the delta curator never processes a document twice per
batch.

Coalescing preserves *position semantics*: the document store keeps
documents in insertion order (a delete + re-insert moves a document to the
end, an in-place update does not), and the sorted-neighborhood blocker's
tie-breaking depends on that order.  A coalesced event therefore keeps the
sequence number of the write that determines the document's final position
(its last insert, if any), and batches replay coalesced events in that
order.  Coalescing runs in the caller on every executor: folding a
thousand events inline takes a few milliseconds, less than shipping them
to the process pool and back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import StreamConfig
from ..fault import NO_FAULTS
from .changelog import ChangeEvent, Changelog


@dataclass(frozen=True)
class DeltaBatch:
    """One bounded, coalesced micro-batch of change events.

    ``events`` hold at most one event per document id, ordered by the
    sequence number that determines each document's final position.
    ``low_watermark``/``high_watermark`` span the *raw* event range drained
    into this batch: applying the batch advances a consumer watermark to
    ``high_watermark``.
    """

    events: Tuple[ChangeEvent, ...]
    low_watermark: int
    high_watermark: int

    def __len__(self) -> int:
        return len(self.events)

    @property
    def raw_event_count(self) -> int:
        """Number of raw changelog events this batch covers."""
        return self.high_watermark - self.low_watermark + 1


def _coalesce_one(events: Sequence[ChangeEvent]) -> ChangeEvent:
    """Fold one document's events (in seq order) into the net event.

    * any insert after the last delete moves the document to the end of the
      collection, so the net op is ``insert`` stamped with that insert's
      seq (later updates change content, not position);
    * updates alone fold to an ``update`` stamped with the last seq;
    * a trailing delete folds to ``delete``; a pure insert+delete within
      the batch nets out to the delete (the curator treats a delete of an
      unknown id as a no-op).
    """
    last = events[-1]
    if last.op == "delete":
        return last
    position_seq = last.seq
    for event in events:
        if event.op == "insert":
            position_seq = event.seq
    op = "insert" if any(e.op == "insert" for e in events) else "update"
    return ChangeEvent(
        seq=position_seq, op=op, doc_id=last.doc_id, document=last.document
    )


def coalesce_events(events: Sequence[ChangeEvent]) -> List[ChangeEvent]:
    """Net events per document id, ordered by position-determining seq."""
    by_doc: Dict[object, List[ChangeEvent]] = {}
    for event in events:
        by_doc.setdefault(event.doc_id, []).append(event)
    merged = [_coalesce_one(doc_events) for doc_events in by_doc.values()]
    merged.sort(key=lambda event: event.seq)
    return merged


class MicroBatchScheduler:
    """Drain a changelog into bounded, coalesced delta batches."""

    def __init__(
        self,
        changelog: Changelog,
        config: Optional[StreamConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        faults=None,
    ):
        self._changelog = changelog
        self._config = config or StreamConfig()
        self._config.validate()
        self._clock = clock
        self._faults = faults if faults is not None else NO_FAULTS
        self._watermark = changelog.watermark
        self._pending_since: Optional[float] = None

    @property
    def watermark(self) -> int:
        """Consumer watermark: all events at or below it have been drained."""
        return self._watermark

    @property
    def config(self) -> StreamConfig:
        """The validated streaming configuration."""
        return self._config

    def pending(self) -> int:
        """Raw events recorded but not yet drained."""
        return self._changelog.pending(self._watermark)

    def due(self) -> bool:
        """Whether a flush is due: a full batch is pending, or pending
        events have been waiting for at least ``flush_interval``.

        The scheduler is poll-driven (the changelog does not push), so the
        age of pending events is measured from the first ``due`` poll that
        observed them — a trickle of writes is batched up for
        ``flush_interval`` from when the scheduler first sees it.
        """
        pending = self.pending()
        if pending == 0:
            self._pending_since = None
            return False
        if pending >= self._config.max_batch_size:
            return True
        if self._pending_since is None:
            self._pending_since = self._clock()
        return (self._clock() - self._pending_since) >= self._config.flush_interval

    def next_batch(self) -> Optional[DeltaBatch]:
        """Assemble (but do not consume) the next micro-batch.

        Returns ``None`` when nothing is pending.  The batch is not
        consumed until :meth:`commit` is called with it, so a consumer
        whose apply fails can retry: the events stay in the changelog and
        the same batch is re-assembled on the next call (at-least-once
        delivery; coalesced batches re-apply idempotently).
        """
        raw = self._changelog.read_since(
            self._watermark, limit=self._config.max_batch_size
        )
        if not raw:
            return None
        # fired only when events are pending: an injected error here leaves
        # the batch unconsumed, exercising at-least-once redelivery
        self._faults.fire("scheduler.drain", key=raw[-1].seq)
        return DeltaBatch(
            events=tuple(coalesce_events(raw)),
            low_watermark=raw[0].seq,
            high_watermark=raw[-1].seq,
        )

    def commit(self, batch: DeltaBatch) -> None:
        """Mark a batch as applied: advance the watermark, prune its events.

        Only commit after the batch has been fully applied — committing
        first would turn an apply failure into silent data loss.
        """
        if batch.high_watermark <= self._watermark:
            return
        self._watermark = batch.high_watermark
        self._changelog.prune(self._watermark)
        self._pending_since = None

    def drain(self) -> Iterator[DeltaBatch]:
        """Yield batches until the changelog is fully consumed.

        Each batch is committed when the consumer comes back for the next
        one — i.e. only after the consumer finished processing it.  If the
        consumer raises (or abandons the iterator), the in-flight batch
        stays uncommitted and its events are redelivered on the next drain.
        """
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch
            self.commit(batch)
