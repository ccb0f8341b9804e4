"""Persistent warm-worker pool: process fan-out without re-paying startup.

A process pool spawned per fan-out pays two taxes every time: interpreter
start and imports, and — for pair scoring — a chunk-local
:class:`~repro.entity.kernel.ScoringKernel` rebuild in each worker, because
records ship inside every payload.  With the vectorized kernel the
remaining per-chunk compute is small enough that those taxes dominate at
laptop scale (see docs/parallel_execution.md).  This pool, the only
parallel path of :class:`~repro.exec.executor.ShardedExecutor`, removes
both:

* :class:`PersistentWorkerPool` keeps worker *processes* alive across
  fan-outs (and across pipeline stages, streaming micro-batches, and whole
  ``DataTamer`` sessions — the executor owns one pool);
* a **warm-state protocol** ships each record to the workers **once**:
  :meth:`PersistentWorkerPool.sync_records` broadcasts only upserts whose
  content actually changed (plus deletes), and every worker maintains its
  own long-lived :class:`~repro.entity.kernel.ScoringKernel` with an
  interned :class:`~repro.entity.kernel.TokenVocabulary` over the synced
  records, so per-shard scoring work is pure columnar featurization;
* lifecycle management: workers start lazily on first use, an idle timer
  stops them after :attr:`idle_timeout` seconds of inactivity (the next
  fan-out restarts them and re-syncs the warm state in one message), and a
  crashed worker is respawned, fully re-synced, and its unfinished tasks
  re-dispatched — results are unchanged because every task is a pure
  function of its inputs.

Pair scoring (:func:`warm_featurize` / :func:`warm_score`, dispatched by
:class:`~repro.exec.batch.BatchScorer`) is the only product work the pool
runs; blocking, cluster merging and changelog coalescing stay in the caller
because shipping them costs more than running them.

Determinism: tasks are dispatched round-robin by task index, and results
are always merged by task index — never by completion order — so the
stable-ordered-merge guarantee of :class:`~repro.exec.executor
.ShardedExecutor` is preserved verbatim.  Equivalence is structural: warm
workers featurize through the same pure ``ScoringKernel`` as the inline
path, and the kernel's features are id-order independent, so a worker that
interned records in a different order (or across many syncs) produces
bit-identical rows.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import InjectedFault, TamerError
from ..fault import FaultPlan, injector_for
from ..obs import TelemetryHub, default_hub
from ..obs.trace import Tracer

#: How long (seconds) the collector waits on worker pipes before checking
#: for crashed workers.
_POLL_INTERVAL = 0.05

#: How many times one task may be re-dispatched after worker crashes before
#: the batch is abandoned.
_MAX_TASK_ATTEMPTS = 3

#: Module-global warm state, populated only inside pool worker processes.
_WORKER_STATE: Optional["_WarmState"] = None


class _WarmState:
    """Per-worker warm state: synced records plus long-lived kernels.

    One kernel is kept per ``compare_attributes`` restriction so several
    scorers (e.g. a consolidator and a streaming curator with different
    models) can share one pool without invalidating each other's interned
    vocabulary.
    """

    def __init__(self) -> None:
        self.records: Dict[str, Any] = {}
        self.kernels: Dict[Optional[Tuple[str, ...]], Any] = {}
        self.syncs_applied = 0

    def kernel_for(self, restriction: Optional[Tuple[str, ...]]):
        kernel = self.kernels.get(restriction)
        if kernel is None:
            # imported lazily: exec.batch imports this module for the warm
            # worker entry points, so a module-level import would be circular
            from ..entity.kernel import ScoringKernel
            from .batch import cached_tokenize

            kernel = ScoringKernel(
                compare_attributes=(
                    list(restriction) if restriction is not None else None
                ),
                tokenizer=cached_tokenize,
            )
            self.kernels[restriction] = kernel
        return kernel

    def apply(self, upserts: Sequence[Any], deletes: Sequence[str]) -> None:
        """Apply one sync message (changed records in, deleted ids out).

        Deletes are applied **before** upserts so a message that both
        deletes and re-ships one id (a delete + re-insert folded into one
        sync epoch) keeps the live record.  Updated records simply replace
        their slot: the kernel revalidates cached per-record data by
        content on next use, so stale interned data never leaks into a
        feature row.
        """
        for record_id in deletes:
            self.records.pop(record_id, None)
            for kernel in self.kernels.values():
                kernel.discard(record_id)
        for record in upserts:
            self.records[record.record_id] = record
        self.syncs_applied += 1


def warm_featurize(restriction: Optional[Tuple[str, ...]], chunk: tuple):
    """Featurize one chunk of candidate pairs against the warm kernel.

    Runs inside a pool worker: the records were already shipped by the
    warm-state protocol, so the task payload is just the pair ids.  Raises
    (loudly, never silently diverging) if a referenced record was never
    synced.
    """
    state = _WORKER_STATE
    if state is None:
        raise TamerError(
            "warm_featurize must run inside a persistent pool worker"
        )
    kernel = state.kernel_for(restriction)
    try:
        return kernel.features_for_pairs(state.records, list(chunk))
    except KeyError as exc:  # pragma: no cover - defensive
        raise TamerError(
            f"warm worker is missing record {exc!s}; state sync is incomplete"
        ) from exc


def warm_score(
    restriction: Optional[Tuple[str, ...]],
    weights: Tuple[float, ...],
    bias: float,
    threshold: float,
    chunk: tuple,
):
    """Featurize *and classify* one chunk of candidate pairs in the worker.

    Extends :func:`warm_featurize` with the linear decision: the feature
    matrix is assembled against the warm kernel and scored through
    :func:`repro.ml.linear.linear_proba` right here, so the result shipped
    back over the pipe is one float and one bool per pair instead of a full
    feature row.  ``linear_proba`` evaluates every row through the same
    fixed-order float operations whatever the chunk size, so the
    probabilities are bit-identical to the parent scoring the full matrix.
    """
    import numpy as np

    from ..ml.linear import linear_proba

    state = _WORKER_STATE
    if state is None:
        raise TamerError("warm_score must run inside a persistent pool worker")
    kernel = state.kernel_for(restriction)
    try:
        features = kernel.features_for_pairs(state.records, list(chunk))
    except KeyError as exc:  # pragma: no cover - defensive
        raise TamerError(
            f"warm worker is missing record {exc!s}; state sync is incomplete"
        ) from exc
    probabilities = linear_proba(features, np.asarray(weights, dtype=float), bias)
    return probabilities, probabilities >= threshold


def warm_state_snapshot(_: Any = None) -> Dict[str, Any]:
    """Introspect the calling worker's warm state (for tests/diagnostics)."""
    state = _WORKER_STATE
    if state is None:
        raise TamerError(
            "warm_state_snapshot must run inside a persistent pool worker"
        )
    vocabulary_sizes = {}
    cached_records = {}
    for restriction, kernel in state.kernels.items():
        key = ",".join(restriction) if restriction is not None else "*"
        vocabulary_sizes[key] = len(kernel.vocabulary)
        cached_records[key] = kernel.cached_records
    return {
        "records": len(state.records),
        "record_ids": sorted(state.records),
        "syncs_applied": state.syncs_applied,
        "vocabulary_sizes": vocabulary_sizes,
        "cached_records": cached_records,
    }


def _worker_main(
    slot: int, conn, trace: bool = False, fault_plan: Optional[FaultPlan] = None
) -> None:
    """The worker loop: apply syncs, run calls, report timed results.

    With ``trace`` on, each call's compute span is recorded by a
    worker-local tracer and shipped back inside the result message; the
    parent re-attaches the records under its live fan-out span (span trees
    cannot share a context var across the process boundary, so
    ship-and-reattach is the propagation protocol).

    ``fault_plan`` arms the worker-side fault points.  They fire keyed by
    ``(task index, attempt)``, so a respawned worker makes exactly the same
    injection decisions its predecessor would have — except where a rule
    keys on the attempt number, which is how "hang once, succeed on
    re-dispatch" schedules are written.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _WORKER_STATE
    _WORKER_STATE = _WarmState()
    faults = injector_for(fault_plan)
    tracer = Tracer(enabled=trace, buffer=16)
    pid = multiprocessing.current_process().pid
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "sync":
            _, upserts, deletes = message
            _WORKER_STATE.apply(upserts, deletes)
            continue
        # ("call", index, func, arg, attempt)
        _, index, func, arg, attempt = message
        start = time.perf_counter()
        try:
            faults.fire("pool.worker_hang", key=(index, attempt))
            faults.fire("pool.worker_compute", key=(index, attempt))
            with tracer.span(
                "pool.compute",
                tags={"slot": slot, "pid": pid, "task_index": index},
            ):
                result = func(arg)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            tracer.export(clear=True)
            _send_error(conn, index, exc)
            continue
        elapsed = time.perf_counter() - start
        spans = tracer.export(clear=True) if trace else None
        try:
            conn.send(("result", index, elapsed, result, spans))
        except Exception as exc:  # unpicklable result
            _send_error(conn, index, exc)


def _send_error(conn, index: int, exc: BaseException) -> None:
    formatted = traceback.format_exc()
    try:
        conn.send(("error", index, exc, formatted))
    except Exception:
        # the exception itself does not pickle; ship its description
        conn.send(("error", index, None, formatted))


@dataclass(frozen=True)
class PoolTaskTiming:
    """Where one pooled task's wall time went."""

    compute_seconds: float
    queue_seconds: float
    worker_slot: int


@dataclass
class _Worker:
    slot: int
    process: Any
    connection: Any


def _terminate_workers(box: List[_Worker]) -> None:
    """GC/exit safety net: make sure no worker process outlives the pool."""
    for worker in list(box):
        try:
            if worker.process.is_alive():
                worker.process.terminate()
        except Exception:
            pass


def _idle_check_weak(pool_ref) -> None:
    """Idle-timer callback: run the pool's idle check if it still exists."""
    pool = pool_ref()
    if pool is not None:
        pool._idle_check()


class PersistentWorkerPool:
    """Long-lived worker processes with broadcast warm state.

    One pool instance is owned by one :class:`~repro.exec.executor
    .ShardedExecutor` (and therefore shared by every fan-out of a
    ``DataTamer``/``StreamingTamer`` session).  All public methods are
    serialized by an internal lock; the pool is not designed for concurrent
    fan-outs from multiple threads.
    """

    def __init__(
        self,
        workers: int,
        idle_timeout: float = 0.0,
        poll_interval: float = _POLL_INTERVAL,
        hub: Optional[TelemetryHub] = None,
        dispatch_deadline: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers < 1:
            raise TamerError("pool workers must be >= 1")
        if dispatch_deadline < 0:
            raise TamerError("dispatch_deadline must be >= 0")
        self._n_workers = workers
        self._idle_timeout = float(idle_timeout)
        self._poll_interval = float(poll_interval)
        self._dispatch_deadline = float(dispatch_deadline)
        self._fault_plan = fault_plan
        self._faults = injector_for(fault_plan)
        self._hub = hub if hub is not None else default_hub()
        registry = self._hub.registry
        self._m_starts = registry.counter(
            "pool_starts_total", "Worker-set (re)starts"
        )
        self._m_respawns = registry.counter(
            "pool_respawns_total", "Individual crashed-worker respawns"
        )
        self._m_hung_respawns = registry.counter(
            "pool_hung_respawns_total",
            "Workers killed and respawned after missing the dispatch deadline",
        )
        self._m_syncs = registry.counter(
            "pool_syncs_total", "Warm-state delta broadcasts"
        )
        self._m_tasks = registry.counter(
            "pool_tasks_total", "Tasks completed by the pool"
        )
        self._m_compute = registry.histogram(
            "pool_task_compute_seconds", "In-worker compute time per task"
        )
        self._m_queue = registry.histogram(
            "pool_task_queue_seconds", "Queue/IPC overhead per task"
        )
        self._m_sync_time = registry.histogram(
            "pool_sync_seconds", "Wall time per warm-state record sync"
        )
        self._m_workers_alive = registry.gauge(
            "pool_workers_alive", "Live pool worker processes"
        )
        self._m_warm_records = registry.gauge(
            "pool_warm_records", "Records held by the warm-state protocol"
        )
        self._context = multiprocessing.get_context()
        self._lock = threading.RLock()
        self._worker_box: List[_Worker] = []
        self._workers: Optional[List[_Worker]] = None
        self._warm_records: Dict[str, Any] = {}
        self._idle_timer: Optional[threading.Timer] = None
        self._last_used = time.monotonic()
        self._closed = False
        self._start_count = 0
        self._respawn_count = 0
        self._hung_respawn_count = 0
        self._sync_count = 0
        self._records_shipped = 0
        self._last_sync_seconds = 0.0
        self._total_sync_seconds = 0.0
        self._total_queue_seconds = 0.0
        self._total_compute_seconds = 0.0
        self._tasks_completed = 0
        self._finalizer = weakref.finalize(
            self, _terminate_workers, self._worker_box
        )

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured worker count."""
        return self._n_workers

    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._workers is not None

    @property
    def idle_timeout(self) -> float:
        """Seconds of inactivity before workers are stopped (0 = never)."""
        return self._idle_timeout

    @property
    def start_count(self) -> int:
        """How many times the worker set has been (re)started."""
        return self._start_count

    @property
    def respawn_count(self) -> int:
        """How many individual crashed workers have been respawned."""
        return self._respawn_count

    @property
    def hung_respawn_count(self) -> int:
        """How many workers were killed for missing the dispatch deadline.

        A hung-kill also increments :attr:`respawn_count` once the reaper
        respawns the worker; this counter isolates the deadline watchdog's
        contribution.
        """
        return self._hung_respawn_count

    @property
    def dispatch_deadline(self) -> float:
        """Seconds one dispatched task may run before its worker is killed."""
        return self._dispatch_deadline

    @property
    def sync_count(self) -> int:
        """How many delta sync messages have been broadcast."""
        return self._sync_count

    @property
    def records_shipped(self) -> int:
        """Total record payloads broadcast by the warm-state delta protocol.

        Fan-out equivalence tests assert this stays flat across warm reruns:
        once the workers mirror the corpus, dispatches ship pair ids only,
        never records.
        """
        return self._records_shipped

    @property
    def warm_record_count(self) -> int:
        """Records currently held by the warm-state protocol."""
        return len(self._warm_records)

    @property
    def last_sync_seconds(self) -> float:
        """Wall time of the most recent :meth:`sync_records` call."""
        return self._last_sync_seconds

    @property
    def total_sync_seconds(self) -> float:
        """Cumulative wall time spent shipping warm-state deltas."""
        return self._total_sync_seconds

    @property
    def total_queue_seconds(self) -> float:
        """Cumulative per-task queue/IPC overhead across all batches."""
        return self._total_queue_seconds

    @property
    def total_compute_seconds(self) -> float:
        """Cumulative in-worker compute time across all batches."""
        return self._total_compute_seconds

    @property
    def tasks_completed(self) -> int:
        """Total tasks the pool has completed."""
        return self._tasks_completed

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty when stopped)."""
        with self._lock:
            if self._workers is None:
                return []
            return [worker.process.pid for worker in self._workers]

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(slot, child_conn, self._hub.tracer.enabled, self._fault_plan),
            name=f"repro-pool-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(slot=slot, process=process, connection=parent_conn)
        if self._warm_records:
            # state re-sync: a fresh worker receives the full warm state in
            # one message before any task can reach it (the pipe is FIFO)
            worker.connection.send(
                ("sync", list(self._warm_records.values()), [])
            )
        return worker

    def _ensure_started(self) -> List[_Worker]:
        if self._closed:
            raise TamerError("persistent worker pool is closed")
        if self._workers is None:
            self._workers = [
                self._spawn_worker(slot) for slot in range(self._n_workers)
            ]
            self._worker_box[:] = self._workers
            self._start_count += 1
            self._m_starts.inc()
            self._m_workers_alive.set(len(self._workers))
        return self._workers

    def ensure_started(self) -> None:
        """Start the workers now (they normally start lazily on first use)."""
        with self._lock:
            self._ensure_started()
            self._touch()

    def _stop_workers(self) -> None:
        if self._workers is None:
            return
        for worker in self._workers:
            try:
                worker.connection.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 1.0
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.connection.close()
        self._workers = None
        self._worker_box[:] = []
        self._m_workers_alive.set(0)

    def shutdown(self) -> None:
        """Stop the workers but keep the warm state.

        The next fan-out restarts the pool and re-syncs every warm record in
        one message — this is what the idle timer calls, and what tests use
        to exercise the restart path.
        """
        with self._lock:
            self._cancel_idle_timer()
            self._stop_workers()

    def close(self) -> None:
        """Stop the workers and discard all pool state (terminal)."""
        with self._lock:
            self._cancel_idle_timer()
            self._stop_workers()
            self._warm_records.clear()
            self._closed = True

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- idle shutdown -----------------------------------------------------

    def _touch(self) -> None:
        self._last_used = time.monotonic()
        self._schedule_idle_timer()

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _schedule_idle_timer(self) -> None:
        self._cancel_idle_timer()
        if self._idle_timeout <= 0 or self._workers is None:
            return
        # the timer holds only a weak reference: a pending timer must not
        # keep an unreferenced pool (and its workers) alive until it fires
        timer = threading.Timer(
            self._idle_timeout, _idle_check_weak, args=(weakref.ref(self),)
        )
        timer.daemon = True
        timer.start()
        self._idle_timer = timer

    def _idle_check(self) -> None:
        with self._lock:
            if self._workers is None or self._closed:
                return
            idle_for = time.monotonic() - self._last_used
            if idle_for + 1e-3 >= self._idle_timeout:
                self._stop_workers()
                self._idle_timer = None
            else:
                self._schedule_idle_timer()

    # -- warm-state protocol -----------------------------------------------

    def sync_records(
        self,
        records: Mapping[str, Any],
        deletes: Sequence[str] = (),
    ) -> float:
        """Ship record *deltas* to every worker; returns seconds spent.

        Only records whose content differs from what the workers already
        hold are sent (record value equality — :class:`~repro.entity.record
        .Record` is a frozen dataclass), so steady-state micro-batches ship
        a handful of records, not the corpus.
        """
        with self._lock:
            start = time.perf_counter()
            self._ensure_started()
            # a worker that died since the last batch must be respawned
            # (with the pre-delta state) before we broadcast the delta —
            # sending on its dead pipe would raise BrokenPipeError
            self._reap_crashed({}, None)
            upserts = []
            for record_id, record in records.items():
                known = self._warm_records.get(record_id)
                if known is None or known != record:
                    upserts.append(record)
                    self._warm_records[record_id] = record
            # an id that is both deleted and re-shipped in this epoch (a
            # delete + re-insert between syncs) is alive: never delete it
            removed = [
                record_id
                for record_id in deletes
                if record_id not in records
                and self._warm_records.pop(record_id, None) is not None
            ]
            if upserts or removed:
                self._records_shipped += len(upserts)
                for slot in range(len(self._workers)):
                    try:
                        self._workers[slot].connection.send(
                            ("sync", upserts, removed)
                        )
                    except (BrokenPipeError, OSError):
                        # died between the reap above and this send: a
                        # respawned worker receives the full post-delta
                        # state, so skipping the delta message is correct
                        self._workers[slot].connection.close()
                        self._workers[slot] = self._spawn_worker(slot)
                        self._worker_box[:] = self._workers
                        self._respawn_count += 1
                        self._m_respawns.inc()
                self._sync_count += 1
                self._m_syncs.inc()
            self._touch()
            self._last_sync_seconds = time.perf_counter() - start
            self._total_sync_seconds += self._last_sync_seconds
            self._m_sync_time.observe(self._last_sync_seconds)
            self._m_warm_records.set(len(self._warm_records))
            return self._last_sync_seconds

    # -- fan-out -----------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Tuple[Callable[[Any], Any], Any]]
    ) -> Tuple[List[Any], List[PoolTaskTiming]]:
        """Run ``(func, arg)`` tasks on the pool; results by task index.

        Each worker holds at most one task in flight (so a large payload and
        a large result can never both saturate one pipe — the classic
        bidirectional-pipe deadlock); results are always merged by task
        index, never completion order.  A worker that crashes mid-batch is
        respawned, re-synced with the full warm state, and its unfinished
        task is re-dispatched; a task that keeps killing workers raises
        after :data:`_MAX_TASK_ATTEMPTS` attempts.  A task that raises a
        normal exception aborts the batch (the workers are stopped so no
        stale result can leak into a later batch) and re-raises in the
        caller.
        """
        with self._lock:
            self._cancel_idle_timer()
            self._ensure_started()
            self._reap_crashed({}, None)
            n_tasks = len(tasks)
            results: List[Any] = [None] * n_tasks
            timings: List[Optional[PoolTaskTiming]] = [None] * n_tasks
            if n_tasks == 0:
                return results, []
            remaining = set(range(n_tasks))
            undispatched = list(range(n_tasks - 1, -1, -1))  # popped from the end
            in_flight: Dict[int, int] = {}  # worker slot -> task index
            submitted_at: Dict[int, float] = {}
            attempts: Dict[int, int] = {}

            def feed(slot: int) -> None:
                if not undispatched:
                    return
                index = undispatched.pop()
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] > _MAX_TASK_ATTEMPTS:
                    self._stop_workers()
                    raise TamerError(
                        f"pool task {index} failed {_MAX_TASK_ATTEMPTS} times "
                        "on crashed or hung workers; giving up"
                    )
                func, arg = tasks[index]
                submitted_at[index] = time.perf_counter()
                try:
                    message = ForkingPickler.dumps(
                        ("call", index, func, arg, attempts[index])
                    )
                except (pickle.PicklingError, AttributeError, TypeError) as exc:
                    if in_flight:
                        # results of tasks already out must not leak into
                        # a later batch
                        self._stop_workers()
                    raise TamerError(
                        "shard workers and their payloads must pickle to run "
                        "on the process pool (parallelism > 1): use a "
                        "module-level function or a functools.partial of "
                        f"one, not a lambda or closure ({exc})"
                    ) from exc
                in_flight[slot] = index
                try:
                    self._faults.fire(
                        "pool.pipe_send", key=(index, attempts[index])
                    )
                    self._workers[slot].connection.send_bytes(message)
                except (BrokenPipeError, OSError, InjectedFault):
                    # the pipe failed (or an injected fault stood in for it):
                    # the peer is unreachable, so treat the worker as dead —
                    # kill it and requeue; the reaper respawns it and the
                    # task is re-dispatched on a fresh pipe
                    in_flight.pop(slot, None)
                    undispatched.append(index)
                    process = self._workers[slot].process
                    try:
                        process.kill()
                        # SIGKILL lands asynchronously; wait for it, or a
                        # worker that still looks alive when the reaper next
                        # runs sits out the rest of the batch un-respawned
                        process.join(timeout=1.0)
                    except Exception:
                        pass

            def handle(slot: int, message) -> None:
                kind = message[0]
                if kind == "error":
                    _, index, exc, formatted = message
                    self._stop_workers()
                    if isinstance(exc, BaseException):
                        raise exc
                    raise TamerError(f"pool worker failed:\n{formatted}")
                if kind == "result":
                    _, index, compute_seconds, payload, spans = message
                    if index in remaining:
                        total = time.perf_counter() - submitted_at[index]
                        results[index] = payload
                        timings[index] = PoolTaskTiming(
                            compute_seconds=compute_seconds,
                            queue_seconds=max(0.0, total - compute_seconds),
                            worker_slot=slot,
                        )
                        remaining.discard(index)
                        if spans:
                            # graft the worker's compute span under the live
                            # fan-out span; attachment is parent-side and
                            # keyed by the task result, so a respawned
                            # worker's spans land under the same parent
                            self._hub.tracer.attach(spans)
                    if in_flight.get(slot) == index:
                        del in_flight[slot]

            for slot in range(len(self._workers)):
                feed(slot)

            while remaining:
                needs_reap = (
                    self._kill_overdue(in_flight, submitted_at, undispatched) > 0
                )
                slot_by_connection = {
                    worker.connection: worker.slot for worker in self._workers
                }
                ready = _connection_wait(
                    list(slot_by_connection), timeout=self._poll_interval
                )
                progressed = False
                for connection in ready:
                    slot = slot_by_connection[connection]
                    try:
                        message = connection.recv()
                    except (EOFError, OSError):
                        needs_reap = True  # dead pipe: reap promptly below
                        continue
                    progressed = True
                    handle(slot, message)
                    if slot not in in_flight:
                        feed(slot)
                if needs_reap or not progressed:
                    respawned = self._reap_crashed(in_flight, handle, undispatched)
                    for slot in respawned:
                        feed(slot)
            self._touch()
            completed = [timing for timing in timings if timing is not None]
            self._tasks_completed += len(completed)
            self._m_tasks.inc(len(completed))
            for timing in completed:
                self._m_compute.observe(timing.compute_seconds)
                self._m_queue.observe(timing.queue_seconds)
            self._total_compute_seconds += sum(
                timing.compute_seconds for timing in completed
            )
            self._total_queue_seconds += sum(
                timing.queue_seconds for timing in completed
            )
            return results, completed

    def _kill_overdue(
        self,
        in_flight: Dict[int, int],
        submitted_at: Dict[int, float],
        undispatched: List[int],
    ) -> int:
        """Kill workers whose dispatched task missed the deadline.

        A *hung* worker never reports back and never breaks its pipe, so
        the crash reaper alone would wait forever.  The watchdog SIGKILLs
        any worker whose in-flight task has been out longer than
        ``dispatch_deadline`` and requeues the task immediately (taking it
        out of ``in_flight`` so a slow exit cannot be killed twice); the
        reaper then respawns the slot, and :data:`_MAX_TASK_ATTEMPTS`
        still bounds a task that hangs every worker it touches.  Returns
        how many workers were killed.
        """
        if self._dispatch_deadline <= 0 or not in_flight:
            return 0
        now = time.perf_counter()
        killed = 0
        for slot, index in list(in_flight.items()):
            if now - submitted_at[index] <= self._dispatch_deadline:
                continue
            del in_flight[slot]
            undispatched.append(index)
            try:
                self._workers[slot].process.kill()
            except Exception:
                pass
            killed += 1
            self._hung_respawn_count += 1
            self._m_hung_respawns.inc()
        return killed

    def _reap_crashed(
        self,
        in_flight: Dict[int, int],
        handle,
        undispatched: Optional[List[int]] = None,
    ) -> List[int]:
        """Respawn dead workers; requeue their in-flight task (next first).

        Returns the respawned worker slots so the caller can feed them.
        """
        respawned: List[int] = []
        if self._workers is None:
            return respawned
        for slot, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            # drain any result the worker managed to send before dying
            if handle is not None:
                try:
                    while worker.connection.poll(0):
                        handle(slot, worker.connection.recv())
                except (EOFError, OSError):
                    pass
            worker.connection.close()
            worker.process.join(timeout=0.1)
            lost = in_flight.pop(slot, None)
            self._workers[slot] = self._spawn_worker(slot)
            self._worker_box[:] = self._workers
            self._respawn_count += 1
            self._m_respawns.inc()
            if lost is not None and undispatched is not None:
                undispatched.append(lost)
            respawned.append(slot)
        return respawned
