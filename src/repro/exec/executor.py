"""The sharded fan-out/fan-in executor.

Design rules that make parallel runs equivalent to sequential ones:

* **Deterministic partitioning.**  Items are routed to shards by hashing a
  caller-supplied key through :class:`~repro.storage.sharding.ShardRouter`
  (blake2b, never Python's randomized ``hash``), so the same inputs land on
  the same shards in every run and every process.
* **Stable merge order.**  Results are always returned indexed by shard (or
  chunk) position, never by completion order.
* **Order-preserving shards.**  Within a shard, items keep their relative
  input order, so callers that need the exact sequential order can carry the
  original index through the fan-out and sort on it when merging.

Execution has two modes and no option to choose between them: with
``parallelism == 1`` every fan-out runs inline in the caller; above it,
fan-outs run on the executor's persistent warm-worker process pool
(:class:`~repro.exec.pool.PersistentWorkerPool`).  Workers passed to
:meth:`ShardedExecutor.map_shards` must therefore pickle: module-level
functions or :func:`functools.partial` of them, never lambdas or closures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from ..config import ExecConfig
from ..errors import TamerError
from ..fault import resolve_plan
from ..obs import TelemetryHub, default_hub
from ..storage.sharding import ShardRouter
from .pool import PersistentWorkerPool

T = TypeVar("T")


@dataclass(frozen=True)
class ShardTiming:
    """Wall time and item count for one shard (or chunk) of a fan-out.

    ``seconds`` is pure compute time measured inside the worker;
    ``queue_seconds`` is everything else the parent observed between
    dispatch and result — pool queueing, payload pickling and IPC (0 for
    inline execution).  Separating the two makes pool wins attributable:
    a persistent warm pool shrinks ``queue_seconds``, not ``seconds``.
    """

    shard: int
    seconds: float
    items: int
    queue_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Compute plus queue/IPC time for this shard."""
        return self.seconds + self.queue_seconds


def _item_count(part: Any) -> int:
    """Items in one partition (1 for a partition without a length)."""
    return len(part) if hasattr(part, "__len__") else 1


class ShardedExecutor:
    """Partition work deterministically and fan it out to a worker pool."""

    def __init__(
        self,
        config: Optional[ExecConfig] = None,
        *,
        parallelism: Optional[int] = None,
        batch_size: Optional[int] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        base = config or ExecConfig()
        overrides = {
            key: value
            for key, value in (
                ("parallelism", parallelism),
                ("batch_size", batch_size),
            )
            if value is not None
        }
        self._config = replace(base, **overrides)
        self._config.validate()
        self._last_timings: List[ShardTiming] = []
        self._pool: Optional[PersistentWorkerPool] = None
        self._request_pool: Optional[ThreadPoolExecutor] = None
        self._hub = hub if hub is not None else default_hub()
        registry = self._hub.registry
        self._m_fanouts = registry.counter(
            "exec_fanouts_total",
            "Shard fan-outs dispatched",
            labels=("backend",),
        )
        self._m_shard_compute = registry.histogram(
            "exec_shard_compute_seconds", "In-worker compute time per shard"
        )
        self._m_shard_queue = registry.histogram(
            "exec_shard_queue_seconds",
            "Queue/IPC overhead per shard (0 for inline runs)",
        )

    @property
    def hub(self) -> TelemetryHub:
        """The telemetry hub this executor reports into."""
        return self._hub

    @property
    def config(self) -> ExecConfig:
        """The validated execution configuration."""
        return self._config

    @property
    def parallelism(self) -> int:
        """Configured worker count (1 means sequential)."""
        return self._config.parallelism

    @property
    def batch_size(self) -> int:
        """Configured scoring batch size."""
        return self._config.batch_size

    @property
    def fans_out(self) -> bool:
        """Whether fan-outs run on the persistent process pool.

        True whenever more than one worker is configured; with one worker
        the plain sequential code paths run instead.
        """
        return self._config.parallelism > 1

    @property
    def pool(self) -> Optional[PersistentWorkerPool]:
        """The persistent pool, if one has been started (else ``None``)."""
        return self._pool

    def ensure_pool(self) -> PersistentWorkerPool:
        """The persistent pool for this executor, created (not started) lazily.

        Worker processes themselves start on the first fan-out/sync, so a
        parallel executor costs nothing until pooled work actually runs.
        """
        if not self.fans_out:
            raise TamerError(
                "a parallelism=1 executor runs inline and has no process pool"
            )
        if self._pool is None:
            self._pool = PersistentWorkerPool(
                workers=self.parallelism,
                idle_timeout=self._config.pool_idle_timeout,
                hub=self._hub,
                dispatch_deadline=self._config.dispatch_deadline,
                fault_plan=resolve_plan(self._config.fault_plan),
            )
        return self._pool

    def request_pool(self, max_workers: Optional[int] = None) -> ThreadPoolExecutor:
        """The long-lived thread pool request serving hands evaluation to.

        The serving tier runs query evaluation here rather than on the
        asyncio event loop, so slow scans never stall protocol I/O for
        other clients.  Threads (not processes) are deliberate: server
        workers read the immutable published snapshot in place — shipping
        it to another process would copy the very state the atomic pointer
        swap exists to share.  Created lazily on first call
        (``max_workers`` defaults to :attr:`parallelism`; later calls
        reuse the existing pool regardless), shut down by :meth:`close`.
        """
        if self._request_pool is None:
            workers = max_workers if max_workers is not None else self.parallelism
            if workers < 1:
                raise TamerError("request_pool max_workers must be >= 1")
            self._request_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="serve-request"
            )
        return self._request_pool

    def close(self) -> None:
        """Shut down the pools, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._request_pool is not None:
            self._request_pool.shutdown(wait=True)
            self._request_pool = None

    @property
    def last_shard_timings(self) -> List[ShardTiming]:
        """Per-shard timings of the most recent ``map_shards``/``map_chunks``."""
        return list(self._last_timings)

    # -- partitioning --------------------------------------------------------

    def partition(
        self,
        items: Sequence[T],
        key: Callable[[T], object],
        num_shards: Optional[int] = None,
    ) -> List[List[T]]:
        """Split ``items`` into shards by hashing ``key(item)``.

        Empty shards are kept so shard indices are stable regardless of the
        data; relative item order within a shard follows input order.
        """
        n = num_shards if num_shards is not None else max(1, self.parallelism)
        if n < 1:
            raise TamerError("num_shards must be >= 1")
        router = ShardRouter(n)
        parts: List[List[T]] = [[] for _ in range(n)]
        for item in items:
            parts[router.shard_for(key(item))].append(item)
        return parts

    def chunk(
        self, items: Sequence[T], batch_size: Optional[int] = None
    ) -> List[List[T]]:
        """Split ``items`` into contiguous chunks of at most ``batch_size``."""
        size = batch_size if batch_size is not None else self.batch_size
        if size < 1:
            raise TamerError("batch_size must be >= 1")
        return [list(items[i : i + size]) for i in range(0, len(items), size)]

    # -- fan-out -------------------------------------------------------------

    def map_shards(
        self,
        func: Callable[[List[T]], Any],
        partitions: Sequence[List[T]],
        *,
        always_fan_out: bool = False,
    ) -> List[Any]:
        """Apply ``func`` to every partition; results ordered by shard index.

        Per-shard wall times are recorded in :attr:`last_shard_timings`.
        On a parallel executor, two or more partitions run on the
        executor's long-lived :class:`~repro.exec.pool.PersistentWorkerPool`;
        a single partition (or ``parallelism == 1``) runs inline.

        ``always_fan_out`` forces even a single partition through the
        persistent pool — warm-state featurization needs this, because its
        workers hold state that only exists in the pool processes (a
        streaming micro-batch is often exactly one chunk).
        """
        # reset first so a raising worker leaves no stale timings behind
        self._last_timings = []
        use_pool = self.fans_out and (
            len(partitions) > 1 or (always_fan_out and len(partitions) == 1)
        )
        label = "process" if use_pool else "inline"
        with self._hub.tracer.span(
            "exec.fan_out",
            tags={"backend": label, "shards": len(partitions)},
        ):
            if use_pool:
                results = self._map_on_pool(func, partitions)
            else:
                results = self._map_inline(func, partitions)
        self._m_fanouts.labels(backend=label).inc()
        for timing in self._last_timings:
            self._m_shard_compute.observe(timing.seconds)
            self._m_shard_queue.observe(timing.queue_seconds)
        return results

    def _map_inline(
        self, func: Callable[[List[T]], Any], partitions: Sequence[List[T]]
    ) -> List[Any]:
        """Run every partition in the calling thread, in shard order."""
        results: List[Any] = []
        timings: List[ShardTiming] = []
        for index, part in enumerate(partitions):
            start = time.perf_counter()
            results.append(func(part))
            timings.append(
                ShardTiming(
                    shard=index,
                    seconds=time.perf_counter() - start,
                    items=_item_count(part),
                )
            )
        self._last_timings = timings
        return results

    def _map_on_pool(
        self, func: Callable[[List[T]], Any], partitions: Sequence[List[T]]
    ) -> List[Any]:
        """Fan partitions out on the persistent pool (stable task order)."""
        pool = self.ensure_pool()
        results, task_timings = pool.run_tasks([(func, part) for part in partitions])
        self._last_timings = [
            ShardTiming(
                shard=index,
                seconds=timing.compute_seconds,
                items=_item_count(part),
                queue_seconds=timing.queue_seconds,
            )
            for index, (part, timing) in enumerate(zip(partitions, task_timings))
        ]
        return results

    def map_chunks(
        self,
        func: Callable[[List[T]], Any],
        items: Sequence[T],
        batch_size: Optional[int] = None,
    ) -> List[Any]:
        """Chunk ``items`` and apply ``func`` per chunk, preserving order."""
        return self.map_shards(func, self.chunk(items, batch_size))
