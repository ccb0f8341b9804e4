"""Tests for repro.core.pipeline."""

import pytest

from repro.config import ExecConfig
from repro.core.pipeline import CurationPipeline, ParallelStage
from repro.errors import TamerError
from repro.exec import ShardedExecutor


class TestCurationPipeline:
    def test_stages_run_in_order_and_share_context(self):
        pipeline = CurationPipeline()
        pipeline.add_stage("ingest", lambda ctx: 10)
        pipeline.add_stage("integrate", lambda ctx: ctx["ingest"] + 5)
        context = pipeline.run()
        assert context["ingest"] == 10
        assert context["integrate"] == 15

    def test_results_record_timing_and_success(self):
        pipeline = CurationPipeline().add_stage("a", lambda ctx: 1)
        pipeline.run()
        result = pipeline.results[0]
        assert result.ok
        assert result.seconds >= 0
        assert pipeline.succeeded
        assert pipeline.total_seconds >= 0

    def test_stop_on_error_raises_and_records(self):
        pipeline = CurationPipeline()
        pipeline.add_stage("bad", lambda ctx: 1 / 0)
        pipeline.add_stage("never", lambda ctx: 1)
        with pytest.raises(ZeroDivisionError):
            pipeline.run()
        assert not pipeline.succeeded
        assert len(pipeline.results) == 1
        assert pipeline.results[0].error is not None

    def test_continue_on_error(self):
        pipeline = CurationPipeline()
        pipeline.add_stage("bad", lambda ctx: 1 / 0)
        pipeline.add_stage("after", lambda ctx: "ran")
        context = pipeline.run(stop_on_error=False)
        assert context["after"] == "ran"
        assert not pipeline.succeeded
        assert len(pipeline.results) == 2

    def test_initial_context_passed_through(self):
        pipeline = CurationPipeline().add_stage("use", lambda ctx: ctx["n"] * 2)
        context = pipeline.run({"n": 21})
        assert context["use"] == 42

    def test_empty_stage_name_rejected(self):
        with pytest.raises(TamerError):
            CurationPipeline().add_stage("", lambda ctx: 1)

    def test_timing_summary_keys(self):
        pipeline = CurationPipeline()
        pipeline.add_stage("x", lambda ctx: 1)
        pipeline.add_stage("y", lambda ctx: 2)
        pipeline.run()
        assert set(pipeline.timing_summary()) == {"x", "y"}

    def test_chaining_add_stage(self):
        pipeline = (
            CurationPipeline().add_stage("a", lambda c: 1).add_stage("b", lambda c: 2)
        )
        assert [s.name for s in pipeline.stages] == ["a", "b"]

    def test_succeeded_false_before_any_run(self):
        assert not CurationPipeline().succeeded

    def test_failing_stage_does_not_leave_stale_context_entry(self):
        """Regression: a stage failing on run 2 must clear its run-1 output.

        The pipeline used to leave ``context[stage.name]`` from a previous
        run over the same context dictionary when the stage later failed
        with ``stop_on_error=False``; downstream stages then silently
        consumed the stale value.
        """
        flag = {"fail": False}

        def sometimes(ctx):
            if flag["fail"]:
                raise ValueError("boom")
            return "fresh"

        pipeline = CurationPipeline().add_stage("flaky", sometimes)
        context = {}
        pipeline.run(context)
        assert context["flaky"] == "fresh"

        flag["fail"] = True
        pipeline.run(context, stop_on_error=False)
        assert "flaky" not in context
        assert not pipeline.succeeded

    def test_failing_stage_clears_context_with_stop_on_error(self):
        pipeline = CurationPipeline().add_stage("flaky", lambda ctx: 1 / ctx["d"])
        context = {"d": 1}
        pipeline.run(context)
        assert context["flaky"] == 1.0
        context["d"] = 0
        with pytest.raises(ZeroDivisionError):
            pipeline.run(context)
        assert "flaky" not in context


def _square_sum(part):
    return sum(n * n for n in part)


def _one_over_first(part):
    return 1 // part[0]


@pytest.fixture(scope="class")
def pooled():
    """One 4-worker executor (and process pool) shared by the class."""
    executor = ShardedExecutor(ExecConfig(parallelism=4))
    yield executor
    executor.close()


class TestParallelStage:
    def test_fan_out_worker_fan_in(self, pooled):
        pipeline = CurationPipeline(executor=pooled)
        pipeline.add_stage("numbers", lambda ctx: list(range(100)))
        pipeline.add_parallel_stage(
            "square_sum",
            fan_out=lambda ctx: pipeline.executor.partition(
                ctx["numbers"], key=lambda n: n
            ),
            worker=_square_sum,
            fan_in=lambda ctx, results: sum(results),
        )
        context = pipeline.run()
        assert context["square_sum"] == sum(n * n for n in range(100))

    def test_default_fan_in_returns_ordered_results(self, pooled):
        pipeline = CurationPipeline(executor=pooled)
        pipeline.add_parallel_stage(
            "lengths",
            fan_out=lambda ctx: [[1], [2, 2], [3, 3, 3]],
            worker=len,
        )
        context = pipeline.run()
        assert context["lengths"] == [1, 2, 3]

    def test_shard_seconds_captured_in_stage_result(self, pooled):
        pipeline = CurationPipeline(executor=pooled)
        pipeline.add_stage("seq", lambda ctx: 1)
        pipeline.add_parallel_stage(
            "par",
            fan_out=lambda ctx: [[1], [2], [3]],
            worker=sum,
        )
        pipeline.run()
        by_name = {r.name: r for r in pipeline.results}
        assert by_name["seq"].shard_seconds == []
        assert len(by_name["par"].shard_seconds) == 3
        assert all(s >= 0 for s in by_name["par"].shard_seconds)
        assert pipeline.shard_timing_summary()["par"] == by_name["par"].shard_seconds

    def test_parallel_stage_failure_recorded(self, pooled):
        pipeline = CurationPipeline(executor=pooled)
        pipeline.add_parallel_stage(
            "bad",
            fan_out=lambda ctx: [[1], [0]],
            worker=_one_over_first,
        )
        with pytest.raises(ZeroDivisionError):
            pipeline.run()
        assert not pipeline.succeeded
        assert pipeline.results[0].error is not None

    def test_lambda_worker_on_the_pool_raises_a_clear_error(self):
        executor = ShardedExecutor(ExecConfig(parallelism=2))
        try:
            pipeline = CurationPipeline(executor=executor)
            pipeline.add_parallel_stage(
                "lam",
                fan_out=lambda ctx: [[1], [2]],
                worker=lambda part: part,
            )
            with pytest.raises(TamerError, match="must pickle"):
                pipeline.run()
            assert pipeline.results[0].error is not None
            # the pool stays usable for picklable workers
            assert executor.map_shards(len, [[1], [2, 2]]) == [1, 2]
        finally:
            executor.close()

    def test_parallel_stage_listed_in_stages(self):
        pipeline = CurationPipeline()
        pipeline.add_parallel_stage(
            "p", fan_out=lambda ctx: [], worker=lambda part: part
        )
        assert isinstance(pipeline.stages[0], ParallelStage)
        with pytest.raises(TamerError):
            pipeline.add_parallel_stage(
                "", fan_out=lambda ctx: [], worker=lambda part: part
            )
