"""Timing, tracing and reporting helpers shared by the e2e workloads.

Nothing here knows a workload: the pieces are a nearest-rank percentile that
refuses percentiles the sample cannot support, an input digest, a peak-RSS
reader, and the :class:`Tracer` that records spans at layer boundaries from
*outside* the product — either around a harness-side call (:meth:`Tracer.span`)
or through a timing shim installed on a public entry point for the length of a
traced run (:meth:`Tracer.install`, undone by :meth:`Tracer.restore`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
#: Candidate tail percentiles, highest first; the median is the fallback.
TAIL_CANDIDATES = (99, 95, 90, 75)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    index = min(len(sorted_values) - 1, round(q / 100.0 * (len(sorted_values) - 1)))
    return sorted_values[index]


def tail_percentile(n_samples: int) -> int:
    """The highest percentile ``n_samples`` supports (50 when none does)."""
    for q in TAIL_CANDIDATES:
        if n_samples * (100 - q) / 100.0 >= MIN_SAMPLES_BEYOND:
            return q
    return 50


def digest(*parts: Any) -> str:
    """blake2b over the canonical JSON of the generated inputs."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        text = json.dumps(part, sort_keys=True, separators=(",", ":"), default=str)
        h.update(text.encode())
    return h.hexdigest()


def peak_rss_mb(include_children: bool = False) -> float:
    """``ru_maxrss`` of this process (plus the largest reaped child) in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(stolen, total) CPU ticks of the machine so far; None off Linux.

    A shared sandbox loses cores to its neighbours for minutes at a time; the
    share of ticks stolen while a region ran says whether its numbers mean
    anything.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def canonical(payload: Any) -> Any:
    """What ``payload`` looks like after a trip over the JSON wire."""
    return json.loads(json.dumps(payload, default=str))


@dataclass
class Measurement:
    """What one timed region produced.

    ``throughput`` is work units per second as the workload defines them,
    ``latencies_ms`` the per-operation samples behind the median and the tail,
    ``t0``/``t1`` the region's bounds on the ``perf_counter`` clock (spans are
    clipped to it), ``raw`` whatever the workload's oracle and per-layer
    accounting need afterwards.
    """

    throughput: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    t0: float
    t1: float
    raw: Dict[str, Any] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, Tuple[float, int]]:
        """metric name → (value, n_samples) for the three timing metrics."""
        ordered = sorted(self.latencies_ms)
        n = len(ordered)
        return {
            "throughput_per_s": (self.throughput, n),
            "latency_p50_ms": (percentile(ordered, 50), n),
            "latency_tail_ms": (percentile(ordered, tail_percentile(n)), n),
        }


# -- tracing ----------------------------------------------------------------

#: One finished span: (span_id, parent_id, op_id, layer, name, start, end).
Span = Tuple[int, Optional[int], Optional[int], str, str, float, float]

#: A shim spec: (owner, attribute, layer, span name, after-hook or None).  The
#: hook receives ``(tracer, args, result)`` and records counts off public
#: arguments, return values and properties.
Shim = Tuple[Any, str, str, Any, Optional[Callable[["Tracer", tuple, Any], None]]]


class Tracer:
    """In-memory span and count recorder; a no-op until :meth:`install`.

    Spans nest per thread (a span's parent is the span open on the same
    thread when it started) and inherit their parent's ``op_id``; the harness
    opens one root span per operation with :meth:`span`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: scratch for count hooks (last-seen cumulative counters)
        self.seen: Dict[Any, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, op_id: Optional[int]) -> Tuple[list, int, Optional[int], Any]:
        stack = self._stack()
        parent_id, parent_op = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        op = op_id if op_id is not None else parent_op
        stack.append((span_id, op))
        return stack, span_id, parent_id, op

    @contextmanager
    def span(self, layer: str, name: str, op_id: Optional[int] = None):
        """Record one span around the body (nothing when tracing is off)."""
        if not self.enabled:
            yield
            return
        stack, span_id, parent_id, op = self._open(op_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent_id, op, layer, name, start, end))

    # -- shims -------------------------------------------------------------

    def install(self, shims: Sequence[Shim]) -> None:
        """Wrap each ``owner.attribute`` with a shim; record once ``enabled``.

        Installed before set-up, because objects built there bind entry
        points for good (the stream hands ``ChangelogWriter.append`` to its
        changelog as a bound method); switched on for the timed region only.
        """
        for owner, attribute, layer, name, after in shims:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._shim(original, layer, name, after))
            self._installed.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped attribute back and stop recording."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        self.enabled = False

    def _shim(self, original, layer, name, after):
        tracer, spans, clock = self, self.spans, time.perf_counter

        @functools.wraps(original)
        def shim(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            # span() spelled out: shims sit on calls made 10^4 times a second
            span_name = name(args[0]) if callable(name) else name
            stack, span_id, parent_id, op = tracer._open(None)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent_id, op, layer, span_name, start, end))
            if after is not None:
                after(tracer, args, result)
            return result

        return shim

    # -- analysis ----------------------------------------------------------

    def clipped(self, t0: float, t1: float) -> List[Span]:
        """Spans overlapping ``[t0, t1]``, clipped to it."""
        out = []
        for span_id, parent, op, layer, name, start, end in self.spans:
            if end > t0 and start < t1:
                out.append(
                    (span_id, parent, op, layer, name, max(start, t0), min(end, t1))
                )
        return out

    def write_jsonl(self, path) -> None:
        keys = ("span_id", "parent_id", "op_id", "layer", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def inclusive_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """span name → total duration of spans with that name."""
    totals: Dict[str, float] = {}
    for _id, _parent, _op, _layer, name, start, end in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """layer → self time: span durations minus what their children cover."""
    child_seconds: Dict[int, float] = {}
    for _id, parent, _op, _layer, _name, start, end in spans:
        if parent is not None:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _parent, _op, layer, _name, start, end in spans:
        own = (end - start) - child_seconds.get(span_id, 0.0)
        totals[layer] = totals.get(layer, 0.0) + max(0.0, own)
    return totals


def covered_seconds(spans: Sequence[Span]) -> float:
    """Length of the union of the spans' intervals (any thread)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted((s[5], s[6]) for s in spans):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
