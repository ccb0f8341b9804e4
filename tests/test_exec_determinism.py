"""Determinism of the sharded execution engine across repeated runs.

Shard assignment hashes through blake2b (never Python's randomized ``hash``),
fan-out results merge in shard order, and parallel stages report the same
stage names — so running the same sharded pipeline twice must give the same
answer, in the same order, with the same bookkeeping.
"""

import pytest

from repro.config import ExecConfig
from repro.core.pipeline import CurationPipeline
from repro.entity.consolidation import EntityConsolidator
from repro.entity.dedup import DedupModel
from repro.exec import ShardedExecutor
from repro.query.engine import QueryEngine
from repro.workloads import DedupCorpusGenerator


@pytest.fixture(scope="module")
def corpus():
    return DedupCorpusGenerator(seed=31).generate(
        n_entities=40, variants_per_entity=2
    )


@pytest.fixture(scope="module")
def model(corpus):
    return DedupModel(seed=0).fit(corpus.pairs)


_EXECUTORS = []


def make_executor(workers: int = 8) -> ShardedExecutor:
    """A fresh executor; its process pool is closed when the module ends."""
    executor = ShardedExecutor(ExecConfig(parallelism=workers, batch_size=32))
    _EXECUTORS.append(executor)
    return executor


@pytest.fixture(scope="module", autouse=True)
def _close_executors():
    yield
    for executor in _EXECUTORS:
        executor.close()
    _EXECUTORS.clear()


def _one_over_first(part):
    return 1 // part[0]


class TestShardAssignmentStability:
    def test_partition_is_stable_across_executors(self, corpus):
        ids = [r.record_id for r in corpus.records]
        first = make_executor().partition(ids, key=lambda x: x)
        second = make_executor().partition(ids, key=lambda x: x)
        assert first == second

    def test_partition_preserves_within_shard_order(self):
        items = list(range(200))
        parts = make_executor(4).partition(items, key=lambda x: f"id{x}")
        for part in parts:
            assert part == sorted(part)
        assert sorted(x for part in parts for x in part) == items

    def test_chunking_is_contiguous_and_complete(self):
        items = list(range(103))
        chunks = make_executor().chunk(items, batch_size=10)
        assert [len(c) for c in chunks] == [10] * 10 + [3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_shard_timings_report_true_item_counts(self, corpus, model):
        from repro.exec import BatchScorer

        records = corpus.records
        by_id = {r.record_id: r for r in records}
        pairs = [
            (records[i].record_id, records[i + 1].record_id)
            for i in range(0, 40, 2)
        ]
        executor = make_executor(2)
        BatchScorer(model, executor=executor, batch_size=8).score_pairs(by_id, pairs)
        assert [t.items for t in executor.last_shard_timings] == [8, 8, 4]

    def test_failed_fan_out_leaves_no_stale_timings(self):
        executor = make_executor(2)
        executor.map_shards(sum, [[1], [2], [3]])
        assert len(executor.last_shard_timings) == 3
        with pytest.raises(ZeroDivisionError):
            executor.map_shards(_one_over_first, [[1], [0]])
        assert executor.last_shard_timings == []


def _build_sharded_pipeline(model, records, executor):
    """The consolidation slice of Figure 1 as a fan-out/fan-in pipeline."""
    consolidator = EntityConsolidator(model=model, executor=executor)
    pipeline = CurationPipeline(executor=executor)
    pipeline.add_stage("load", lambda ctx: records)
    pipeline.add_parallel_stage(
        "shard_sizes",
        fan_out=lambda ctx: executor.partition(
            ctx["load"], key=lambda r: r.record_id
        ),
        worker=len,
    )
    pipeline.add_stage(
        "consolidate", lambda ctx: consolidator.consolidate(ctx["load"])
    )
    pipeline.add_stage(
        "query",
        lambda ctx: [
            e.entity_id
            for e in QueryEngine(ctx["consolidate"]).search("show")
        ],
    )
    return pipeline


class TestPipelineDeterminism:
    def test_same_pipeline_twice_is_stable(self, corpus, model):
        runs = []
        for _ in range(2):
            executor = make_executor()
            pipeline = _build_sharded_pipeline(model, corpus.records, executor)
            context = pipeline.run()
            runs.append((pipeline, context))

        (first_pipe, first_ctx), (second_pipe, second_ctx) = runs

        # identical stage names, in order
        assert list(first_pipe.timing_summary()) == list(second_pipe.timing_summary())
        assert list(first_pipe.timing_summary()) == [
            "load", "shard_sizes", "consolidate", "query",
        ]
        # stable shard assignment: the fan-out saw identical partitions
        assert first_ctx["shard_sizes"] == second_ctx["shard_sizes"]
        # stable ordering: consolidated entities and query results match
        # element by element, not just as sets
        assert first_ctx["consolidate"] == second_ctx["consolidate"]
        assert first_ctx["query"] == second_ctx["query"]
        # parallel stages report one timing per shard in both runs
        assert len(first_pipe.shard_timing_summary()["shard_sizes"]) == len(
            second_pipe.shard_timing_summary()["shard_sizes"]
        )

    def test_consolidation_twice_is_stable(self, corpus, model):
        executor = make_executor()
        consolidator = EntityConsolidator(model=model, executor=executor)
        first = consolidator.consolidate(corpus.records)
        second = consolidator.consolidate(corpus.records)
        assert first == second
        assert [e.entity_id for e in first] == [e.entity_id for e in second]

    def test_worker_count_does_not_change_results(self, corpus, model):
        outputs = []
        for workers in (1, 2, 8):
            executor = make_executor(workers)
            pipeline = _build_sharded_pipeline(model, corpus.records, executor)
            context = pipeline.run()
            outputs.append((context["consolidate"], context["query"]))
        assert outputs[0] == outputs[1] == outputs[2]
