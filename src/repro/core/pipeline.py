"""The curation pipeline: named stages with timing and error capture.

Figure 1 of the paper is a staged architecture (ingest → parse/flatten →
store → schema integration → consolidation → cleaning/transformation →
query).  :class:`CurationPipeline` is a small, explicit representation of
such a staged run: each stage is a named callable over a shared context
dictionary, stages run in order, and the pipeline records per-stage wall
time and outcome — which is exactly what the Figure 1 scale-sweep benchmark
reports.

Stages come in three flavours:

* :class:`PipelineStage` — one callable, run inline.
* :class:`ParallelStage` — a fan-out/fan-in stage: ``fan_out`` splits the
  work into partitions, a :class:`~repro.exec.executor.ShardedExecutor`
  maps ``worker`` over the partitions (inline, or on its process pool), and
  ``fan_in`` merges the per-shard results in stable shard order.  Per-shard
  wall times are captured in :attr:`StageResult.shard_seconds`.
* :class:`StreamingStage` — a micro-batch stage: ``source`` yields delta
  batches (e.g. a scheduler drain), ``apply`` processes each in order, and
  per-batch wall times land in :attr:`StageResult.shard_seconds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from ..errors import TamerError
from ..exec.executor import ShardedExecutor
from ..obs import TelemetryHub, default_hub

StageFunc = Callable[[Dict[str, Any]], Any]


@dataclass
class PipelineStage:
    """One named stage of the curation pipeline."""

    name: str
    func: StageFunc
    description: str = ""


@dataclass
class ParallelStage:
    """A fan-out/fan-in stage executed over shard partitions.

    ``fan_out(context)`` returns a list of partitions; ``worker(partition)``
    processes one partition.  On a parallel executor it runs in another
    interpreter, so it must pickle (a module-level function or a
    :func:`functools.partial` of one) and cannot mutate the shared
    context; a lambda raises :class:`~repro.errors.TamerError`.
    ``fan_in(context, results)`` merges the per-shard results, which always
    arrive ordered by shard index.  When ``fan_in`` is omitted the ordered
    result list itself becomes the stage output.
    """

    name: str
    fan_out: Callable[[Dict[str, Any]], List[Any]]
    worker: Callable[[Any], Any]
    fan_in: Optional[Callable[[Dict[str, Any], List[Any]], Any]] = None
    description: str = ""


@dataclass
class StreamingStage:
    """A micro-batch stage: apply a function per batch from a source.

    ``source(context)`` returns an iterable of micro-batches (typically a
    :meth:`~repro.stream.scheduler.MicroBatchScheduler.drain`);
    ``apply(context, batch)`` processes one batch and its wall time is
    recorded per batch; ``finalize(context, outputs)`` merges the per-batch
    outputs (defaults to the output list itself).  Unlike
    :class:`ParallelStage`, batches run strictly in order — deltas are
    causally dependent.
    """

    name: str
    source: Callable[[Dict[str, Any]], Any]
    apply: Callable[[Dict[str, Any], Any], Any]
    finalize: Optional[Callable[[Dict[str, Any], List[Any]], Any]] = None
    description: str = ""


@dataclass
class StageResult:
    """Outcome of running one stage."""

    name: str
    seconds: float
    ok: bool
    output: Any = None
    error: Optional[str] = None
    #: Per-shard compute times (per-batch for streaming stages; empty for
    #: sequential stages).
    shard_seconds: List[float] = field(default_factory=list)
    #: Per-shard queue/sync overhead (pool queueing, pickling, IPC) paired
    #: with :attr:`shard_seconds`; all zeros for inline execution.  Keeping
    #: the split visible is what makes persistent-pool wins attributable:
    #: the pool shrinks this column, not the compute one.
    shard_queue_seconds: List[float] = field(default_factory=list)


class CurationPipeline:
    """Run an ordered list of stages over a shared context."""

    def __init__(
        self,
        stages: Optional[
            List[Union[PipelineStage, ParallelStage, StreamingStage]]
        ] = None,
        executor: Optional[ShardedExecutor] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self._stages: List[Union[PipelineStage, ParallelStage, StreamingStage]] = list(
            stages or []
        )
        self._results: List[StageResult] = []
        self._executor = executor if executor is not None else ShardedExecutor()
        if hub is None:
            hub = getattr(self._executor, "hub", None) or default_hub()
        self._hub = hub
        registry = hub.registry
        self._m_runs = registry.counter(
            "pipeline_runs_total", "Completed CurationPipeline.run calls"
        )
        self._m_stages = registry.counter(
            "pipeline_stages_total",
            "Pipeline stage executions by outcome",
            labels=("outcome",),
        )
        self._m_stage_time = registry.histogram(
            "pipeline_stage_seconds",
            "Wall time of one pipeline stage execution",
            labels=("stage",),
        )

    @property
    def stages(self) -> List[Union[PipelineStage, ParallelStage, StreamingStage]]:
        """The configured stages in execution order."""
        return list(self._stages)

    @property
    def results(self) -> List[StageResult]:
        """Results of the most recent run."""
        return list(self._results)

    @property
    def executor(self) -> ShardedExecutor:
        """The executor used for :class:`ParallelStage` fan-outs."""
        return self._executor

    def add_stage(
        self, name: str, func: StageFunc, description: str = ""
    ) -> "CurationPipeline":
        """Append a sequential stage; returns ``self`` for chaining."""
        if not name:
            raise TamerError("stage name must be non-empty")
        self._stages.append(
            PipelineStage(name=name, func=func, description=description)
        )
        return self

    def add_parallel_stage(
        self,
        name: str,
        fan_out: Callable[[Dict[str, Any]], List[Any]],
        worker: Callable[[Any], Any],
        fan_in: Optional[Callable[[Dict[str, Any], List[Any]], Any]] = None,
        description: str = "",
    ) -> "CurationPipeline":
        """Append a fan-out/fan-in stage; returns ``self`` for chaining."""
        if not name:
            raise TamerError("stage name must be non-empty")
        self._stages.append(
            ParallelStage(
                name=name,
                fan_out=fan_out,
                worker=worker,
                fan_in=fan_in,
                description=description,
            )
        )
        return self

    def add_streaming_stage(
        self,
        name: str,
        source: Callable[[Dict[str, Any]], Any],
        apply: Callable[[Dict[str, Any], Any], Any],
        finalize: Optional[Callable[[Dict[str, Any], List[Any]], Any]] = None,
        description: str = "",
    ) -> "CurationPipeline":
        """Append a micro-batch streaming stage; returns ``self``."""
        if not name:
            raise TamerError("stage name must be non-empty")
        self._stages.append(
            StreamingStage(
                name=name,
                source=source,
                apply=apply,
                finalize=finalize,
                description=description,
            )
        )
        return self

    def add_operator_stage(
        self, name: str, stream, description: str = ""
    ) -> "CurationPipeline":
        """Append a stage draining a streaming host's operator chain.

        ``stream`` is a :class:`~repro.stream.engine.StreamingTamer`: the
        stage drains its scheduler and pushes every micro-batch through the
        whole operator chain (entity curation, schema integration, …) in
        order, with per-batch wall times in :attr:`StageResult
        .shard_seconds`.  ``apply_batch`` shares the host's rebuild
        accounting (and closed-stream check), and the finalizer lets the
        periodic rebuild fallback fire, exactly like ``apply_delta``.  The
        stage output is the flat list of
        :class:`~repro.stream.operators.OperatorReport`\\ s.
        """
        if not name:
            raise TamerError("stage name must be non-empty")

        def source(_context: Dict[str, Any]):
            return stream.scheduler.drain()

        def apply(_context: Dict[str, Any], batch):
            return stream.apply_batch(batch)

        def finalize(_context: Dict[str, Any], outputs: List[Any]):
            stream.maybe_rebuild()
            return [report for reports in outputs for report in reports]

        return self.add_streaming_stage(
            name,
            source=source,
            apply=apply,
            finalize=finalize,
            description=description
            or "drain pending deltas through the stream's operator chain",
        )

    def _run_streaming(
        self, stage: StreamingStage, context: Dict[str, Any]
    ) -> tuple:
        outputs: List[Any] = []
        batch_seconds: List[float] = []
        for batch in stage.source(context):
            start = time.perf_counter()
            outputs.append(stage.apply(context, batch))
            batch_seconds.append(time.perf_counter() - start)
        if stage.finalize is not None:
            output = stage.finalize(context, outputs)
        else:
            output = outputs
        return output, batch_seconds

    def _run_parallel(
        self, stage: ParallelStage, context: Dict[str, Any]
    ) -> tuple:
        partitions = stage.fan_out(context)
        results = self._executor.map_shards(stage.worker, partitions)
        timings = self._executor.last_shard_timings
        shard_seconds = [t.seconds for t in timings]
        shard_queue_seconds = [t.queue_seconds for t in timings]
        if stage.fan_in is not None:
            output = stage.fan_in(context, results)
        else:
            output = results
        return output, shard_seconds, shard_queue_seconds

    def run(
        self,
        context: Optional[Dict[str, Any]] = None,
        stop_on_error: bool = True,
    ) -> Dict[str, Any]:
        """Run all stages in order over a shared context dictionary.

        Each stage receives the context and may mutate it; its return value
        is stored under ``context[stage.name]`` as well as in the stage
        result.  With ``stop_on_error`` (default) the first failing stage
        aborts the run; otherwise later stages still execute.  A failing
        stage never leaves a ``context[stage.name]`` entry behind — not even
        one written by a previous run over the same context dictionary.
        """
        context = context if context is not None else {}
        self._results = []
        with self._hub.tracer.span(
            "pipeline.run", tags={"stages": len(self._stages)}
        ):
            for stage in self._stages:
                start = time.perf_counter()
                shard_seconds: List[float] = []
                shard_queue_seconds: List[float] = []
                span = self._hub.tracer.span(
                    "pipeline.stage", tags={"stage": stage.name}
                )
                try:
                    with span:
                        if isinstance(stage, ParallelStage):
                            (
                                output,
                                shard_seconds,
                                shard_queue_seconds,
                            ) = self._run_parallel(stage, context)
                        elif isinstance(stage, StreamingStage):
                            output, shard_seconds = self._run_streaming(
                                stage, context
                            )
                        else:
                            output = stage.func(context)
                    elapsed = time.perf_counter() - start
                    context[stage.name] = output
                    self._observe_stage(stage.name, elapsed, ok=True)
                    self._results.append(
                        StageResult(
                            name=stage.name,
                            seconds=elapsed,
                            ok=True,
                            output=output,
                            shard_seconds=shard_seconds,
                            shard_queue_seconds=shard_queue_seconds,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - reported, optionally re-raised
                    elapsed = time.perf_counter() - start
                    context.pop(stage.name, None)
                    self._observe_stage(stage.name, elapsed, ok=False)
                    self._results.append(
                        StageResult(
                            name=stage.name,
                            seconds=elapsed,
                            ok=False,
                            error=str(exc),
                            shard_seconds=shard_seconds,
                            shard_queue_seconds=shard_queue_seconds,
                        )
                    )
                    if stop_on_error:
                        raise
            self._m_runs.inc()
        return context

    def _observe_stage(self, name: str, seconds: float, ok: bool) -> None:
        self._m_stages.labels(outcome="ok" if ok else "error").inc()
        self._m_stage_time.labels(stage=name).observe(seconds)

    def timing_summary(self) -> Dict[str, float]:
        """Stage name → seconds for the most recent run."""
        return {result.name: result.seconds for result in self._results}

    def shard_timing_summary(self) -> Dict[str, List[float]]:
        """Stage name → per-shard compute seconds for the most recent run.

        Sequential stages map to an empty list.
        """
        return {result.name: list(result.shard_seconds) for result in self._results}

    def shard_queue_summary(self) -> Dict[str, List[float]]:
        """Stage name → per-shard queue/sync seconds for the most recent run.

        The overhead column paired with :meth:`shard_timing_summary`;
        sequential stages map to an empty list.
        """
        return {
            result.name: list(result.shard_queue_seconds)
            for result in self._results
        }

    @property
    def total_seconds(self) -> float:
        """Total wall time of the most recent run."""
        return sum(result.seconds for result in self._results)

    @property
    def succeeded(self) -> bool:
        """Whether every stage of the most recent run succeeded."""
        return bool(self._results) and all(result.ok for result in self._results)
