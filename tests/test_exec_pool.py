"""Lifecycle and equivalence properties of the persistent warm-worker pool.

The pool's contract has two halves:

* **lifecycle** — lazy start, idle shutdown with clean restart, crashed
  workers respawned with a full warm-state re-sync and their unfinished
  tasks re-dispatched, task errors propagated without poisoning later
  batches;
* **equivalence** — everything that runs through the pool (generic shard
  fan-outs, warm-state featurization, streaming micro-batches) is
  bit-identical to the serial path, because every task is a pure function
  and the warm kernel's features are id-order independent.

Both halves are enforced here over seeded corpora.
"""

import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref

import pytest

from repro.config import ExecConfig, StorageConfig, StreamConfig
from repro.entity.consolidation import EntityConsolidator
from repro.entity.dedup import DedupModel
from repro.errors import ConfigError, TamerError
from repro.exec import BatchScorer, PersistentWorkerPool, ShardedExecutor
from repro.exec.pool import warm_state_snapshot
from repro.storage.document_store import DocumentStore
from repro.stream.engine import StreamingTamer
from repro.workloads import DedupCorpusGenerator


def _square(value):
    return value * value


def _boom(_value):
    raise ValueError("intentional task failure")


def _crash_once(arg):
    """Die abruptly on first execution; succeed on the re-dispatch."""
    flag_path, value = arg
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        os._exit(13)
    return value * value


def pooled_executor(workers=2, batch_size=64, idle_timeout=0.0):
    return ShardedExecutor(
        ExecConfig(
            parallelism=workers,
            batch_size=batch_size,
            pool_idle_timeout=idle_timeout,
        )
    )


@pytest.fixture(scope="module")
def corpus():
    return DedupCorpusGenerator(seed=29).generate(
        n_entities=40, variants_per_entity=2
    )


@pytest.fixture(scope="module")
def model(corpus):
    return DedupModel(seed=0).fit(corpus.pairs)


@pytest.fixture(scope="module")
def sequential_entities(corpus, model):
    return EntityConsolidator(model=model).consolidate(corpus.records)


class TestConfig:
    def test_pool_knobs_validate(self):
        ExecConfig(pool_idle_timeout=0.0).validate()
        with pytest.raises(ConfigError):
            ExecConfig(pool="bogus").validate()
        with pytest.raises(ConfigError):
            ExecConfig(pool_idle_timeout=-1.0).validate()

    def test_removed_backends_and_pool_flavours_are_rejected(self):
        # the curate_pool2 benchmark workload's configuration still validates
        config = ExecConfig(parallelism=2, backend="process", pool="persistent")
        config.validate()
        assert config == ExecConfig(parallelism=2)
        for removed in (
            ExecConfig(parallelism=2, backend="thread"),
            ExecConfig(parallelism=2, backend="serial"),
            ExecConfig(parallelism=2, pool="ephemeral"),
        ):
            with pytest.raises(ConfigError, match="removed"):
                removed.validate()

    def test_only_process_backend_uses_the_pool(self):
        executor = pooled_executor()
        try:
            assert executor.fans_out
            assert executor.ensure_pool() is executor.pool
        finally:
            executor.close()
        inline = ShardedExecutor(ExecConfig(parallelism=1))
        assert not inline.fans_out
        with pytest.raises(TamerError):
            inline.ensure_pool()

    def test_pool_is_lazy(self):
        executor = pooled_executor()
        assert executor.pool is None  # nothing spawned until work arrives
        pool = executor.ensure_pool()
        assert not pool.running
        executor.close()


class TestRunTasks:
    def test_results_ordered_by_task_index(self):
        with PersistentWorkerPool(workers=2) as pool:
            results, timings = pool.run_tasks([(_square, n) for n in range(7)])
            assert results == [n * n for n in range(7)]
            assert len(timings) == 7
            assert all(t.compute_seconds >= 0.0 for t in timings)
            assert all(t.queue_seconds >= 0.0 for t in timings)

    def test_task_error_propagates_and_pool_recovers(self):
        with PersistentWorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="intentional"):
                pool.run_tasks([(_square, 2), (_boom, 0), (_square, 3)])
            # the errored batch stopped the workers; the next batch restarts
            assert not pool.running
            results, _ = pool.run_tasks([(_square, n) for n in range(4)])
            assert results == [0, 1, 4, 9]

    def test_unpicklable_task_raises_and_leaks_no_stale_result(self):
        with PersistentWorkerPool(workers=2) as pool:
            # task 0 is already out on a worker when task 1 fails to pickle
            with pytest.raises(TamerError, match="must pickle"):
                pool.run_tasks([(_square, 2), (_square, threading.Lock())])
            results, _ = pool.run_tasks([(_square, 3), (_square, 4)])
            assert results == [9, 16]

    def test_closed_pool_rejects_work(self):
        pool = PersistentWorkerPool(workers=1)
        pool.close()
        with pytest.raises(TamerError):
            pool.run_tasks([(_square, 1)])


class TestCrashRecovery:
    def test_crash_mid_shard_respawns_and_redispatches(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        with PersistentWorkerPool(workers=2) as pool:
            tasks = [(_square, n) for n in range(6)]
            tasks[3] = (_crash_once, (flag, 3))
            results, _ = pool.run_tasks(tasks)
            assert results == [0, 1, 4, 9, 16, 25]
            assert pool.respawn_count == 1

    def test_crash_between_batches_respawns(self):
        with PersistentWorkerPool(workers=2) as pool:
            first, _ = pool.run_tasks([(_square, n) for n in range(4)])
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            second, _ = pool.run_tasks([(_square, n) for n in range(4)])
            assert first == second == [0, 1, 4, 9]
            assert pool.respawn_count == 1

    def test_crashed_worker_state_resync_keeps_results_identical(
        self, corpus, model, sequential_entities
    ):
        executor = pooled_executor()
        try:
            consolidator = EntityConsolidator(model=model, executor=executor)
            assert consolidator.consolidate(corpus.records) == sequential_entities
            pool = executor.pool
            synced_before = pool.warm_record_count
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            # the respawned worker receives the full warm state in one
            # message before any task reaches it
            assert consolidator.consolidate(corpus.records) == sequential_entities
            assert pool.respawn_count == 1
            assert pool.warm_record_count == synced_before
        finally:
            executor.close()

    def test_task_that_keeps_killing_workers_gives_up(self):
        with PersistentWorkerPool(workers=1) as pool:
            with pytest.raises(TamerError, match="giving up"):
                pool.run_tasks([(_always_crash, None)])


def _always_crash(_arg):
    os._exit(13)


class TestIdleShutdown:
    def test_idle_workers_stop_and_restart_cleanly(
        self, corpus, model, sequential_entities
    ):
        executor = pooled_executor(idle_timeout=0.2)
        try:
            consolidator = EntityConsolidator(model=model, executor=executor)
            assert consolidator.consolidate(corpus.records) == sequential_entities
            pool = executor.pool
            assert pool.running
            deadline = time.monotonic() + 5.0
            while pool.running and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not pool.running, "idle timer should have stopped the workers"
            # reuse restarts the workers and re-syncs the warm state
            assert consolidator.consolidate(corpus.records) == sequential_entities
            assert pool.start_count == 2
        finally:
            executor.close()

    def test_pending_idle_timer_does_not_keep_a_dropped_pool_alive(self):
        """An unreferenced executor's workers stop at garbage collection,
        not when its (here 300 s) idle timer would have fired."""
        executor = pooled_executor(workers=2, idle_timeout=300.0)
        executor.map_shards(len, [[1, 2], [3, 4]], always_fan_out=True)
        pool_ref = weakref.ref(executor.pool)
        pids = set(executor.pool.worker_pids())
        assert len(pids) == 2
        del executor
        gc.collect()
        try:
            deadline = time.monotonic() + 5.0
            alive = pids
            while alive and time.monotonic() < deadline:
                # active_children() also reaps the workers that have exited
                alive = pids & {p.pid for p in multiprocessing.active_children()}
                if alive:
                    time.sleep(0.05)
            assert not alive, "a pending idle timer kept the pool alive"
            assert pool_ref() is None
        finally:
            leaked = pool_ref()
            if leaked is not None:
                leaked.close()

    def test_zero_timeout_disables_idle_shutdown(self):
        with PersistentWorkerPool(workers=1, idle_timeout=0.0) as pool:
            pool.run_tasks([(_square, 1)])
            time.sleep(0.15)
            assert pool.running


class TestWarmStateProtocol:
    def test_unchanged_records_are_not_reshipped(self, corpus, model):
        executor = pooled_executor()
        try:
            consolidator = EntityConsolidator(model=model, executor=executor)
            consolidator.consolidate(corpus.records)
            pool = executor.pool
            syncs = pool.sync_count
            consolidator.consolidate(corpus.records)
            assert pool.sync_count == syncs  # content unchanged: no delta
        finally:
            executor.close()

    def test_worker_state_mirrors_synced_records(self, corpus, model):
        executor = pooled_executor(workers=2)
        try:
            by_id = {r.record_id: r for r in corpus.records}
            scorer = BatchScorer(model, executor=executor)
            pairs = sorted(zip(sorted(by_id)[:-1], sorted(by_id)[1:]))
            scorer.featurize_pairs(by_id, pairs)
            pool = executor.pool
            snapshots, _ = pool.run_tasks(
                [(warm_state_snapshot, None) for _ in range(pool.workers)]
            )
            for snapshot in snapshots:
                assert snapshot["records"] == pool.warm_record_count
                assert set(snapshot["record_ids"]) <= set(by_id)
        finally:
            executor.close()

    def test_warm_featurization_matches_local_kernel(self, corpus, model):
        by_id = {r.record_id: r for r in corpus.records}
        ids = sorted(by_id)
        pairs = sorted(zip(ids[:-1], ids[1:]))

        local = BatchScorer(model, executor=ShardedExecutor())
        expected = local.featurize_pairs(by_id, pairs)

        executor = pooled_executor(batch_size=7)
        try:
            warm = BatchScorer(model, executor=executor)
            actual = warm.featurize_pairs(by_id, pairs)
            assert (actual == expected).all()
            # and the scores downstream of the matrix are identical too
            assert warm.score_pairs(by_id, pairs) == local.score_pairs(
                by_id, pairs
            )
        finally:
            executor.close()


class TestPooledEquivalence:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_pooled_consolidation_identical_to_serial(
        self, corpus, model, sequential_entities, workers
    ):
        executor = pooled_executor(workers=workers)
        try:
            pooled = EntityConsolidator(
                model=model, executor=executor
            ).consolidate(corpus.records)
            assert pooled == sequential_entities
        finally:
            executor.close()

    def test_shard_timings_split_queue_from_compute(self, corpus, model):
        executor = pooled_executor(batch_size=16)
        try:
            by_id = {r.record_id: r for r in corpus.records}
            ids = sorted(by_id)
            pairs = sorted(zip(ids[:-1], ids[1:]))
            BatchScorer(model, executor=executor).featurize_pairs(by_id, pairs)
            timings = executor.last_shard_timings
            assert timings, "pool fan-out must record per-shard timings"
            for timing in timings:
                assert timing.seconds >= 0.0
                assert timing.queue_seconds >= 0.0
                assert timing.total_seconds >= timing.seconds
        finally:
            executor.close()


class TestFacadeLifecycle:
    def test_set_parallelism_keeps_a_live_streams_executor(self, corpus, model):
        """Reconfiguring execution must not strand a live stream's pool:
        the old executor is retired and closed with the facade."""
        from repro import DataTamer, TamerConfig

        tamer = DataTamer(TamerConfig.parallel(workers=2, batch_size=32))
        for record in corpus.records[:30]:
            row = dict(record.as_dict())
            row["_source"] = record.source_id
            tamer.curated_collection.insert(row)
        tamer.train_dedup_model(corpus.pairs)
        tamer.start_stream(key_attribute="name")
        before = tamer.refresh()
        stream_executor = tamer.stream._executor

        tamer.set_parallelism(4, batch_size=64)
        assert tamer.executor is not stream_executor
        # the stream still works through its original (retired) executor
        row = dict(corpus.records[30].as_dict())
        row["_source"] = "late"
        tamer.curated_collection.insert(row)
        after = tamer.refresh()
        assert len(after) >= len(before)

        retired_pool = stream_executor.pool
        tamer.close()
        assert retired_pool is None or not retired_pool.running
        new_pool = tamer.executor.pool
        assert new_pool is None or not new_pool.running


class TestStreamingWarmPool:
    def _make_collection(self, corpus, n_initial=20):
        store = DocumentStore("pool-test", StorageConfig())
        collection = store.create_collection("curated")
        rows = [dict(r.as_dict()) for r in corpus.records]
        for index, row in enumerate(rows[:n_initial]):
            row["_id"] = f"d{index}"
            collection.insert(row)
        return collection, rows

    def test_streaming_upsert_delta_sync_matches_cold_rebuild(
        self, corpus, model
    ):
        collection, rows = self._make_collection(corpus)
        executor = pooled_executor(batch_size=16)
        stream = StreamingTamer(
            collection,
            model,
            executor=executor,
            stream_config=StreamConfig(rebuild_threshold=0),
        )
        try:
            assert stream.refresh() == stream.batch_reference()
            pool = executor.pool
            bootstrap_syncs = pool.sync_count

            # streaming upserts: inserts, an update, a delete
            for offset, row in enumerate(rows[20:26]):
                row["_id"] = f"d{20 + offset}"
                collection.insert(row)
            collection.update("d3", {"price": 1234})
            collection.delete("d5")

            incremental = stream.refresh()
            assert pool.sync_count > bootstrap_syncs  # deltas were shipped
            # the warm workers' vocabulary/record state after delta sync
            # must behave exactly like a cold rebuild of all state
            assert incremental == stream.batch_reference()
            cold = stream.full_rebuild()
            assert incremental == cold

            # the deleted record was forgotten by the warm protocol
            assert pool.warm_record_count == collection.count()
        finally:
            stream.close()
            executor.close()

    def test_delete_then_reinsert_keeps_warm_workers_consistent(
        self, corpus, model
    ):
        """A record deleted in one micro-batch and re-inserted in a later
        one must survive the combined sync epoch (regression: deletes used
        to be applied after upserts and clobber the re-inserted record)."""
        collection, rows = self._make_collection(corpus)
        executor = pooled_executor(batch_size=16)
        stream = StreamingTamer(
            collection,
            model,
            executor=executor,
            stream_config=StreamConfig(rebuild_threshold=0),
        )
        try:
            stream.refresh()
            reinserted = dict(collection.get("d4"))
            collection.delete("d4")
            stream.refresh()  # the delete is applied (and queued for sync)
            collection.insert(reinserted)  # same id, same content
            incremental = stream.refresh()
            assert incremental == stream.batch_reference()
            # the re-inserted record is live in the warm workers
            pool = executor.pool
            snapshots, _ = pool.run_tasks(
                [(warm_state_snapshot, None) for _ in range(pool.workers)]
            )
            for snapshot in snapshots:
                assert "d4" in snapshot["record_ids"]
        finally:
            stream.close()
            executor.close()

    def test_worker_crash_before_delta_sync_recovers(self, corpus, model):
        """A worker killed between batches must be respawned by the next
        non-empty warm-state sync, not crash it with BrokenPipeError.

        Drives ``sync_records`` directly through the scorer (no generic
        fan-out in between that would reap the corpse first)."""
        by_id = {r.record_id: r for r in corpus.records}
        ids = sorted(by_id)
        executor = pooled_executor(batch_size=16)
        try:
            scorer = BatchScorer(model, executor=executor)
            first_half = {rid: by_id[rid] for rid in ids[:20]}
            pairs = sorted(zip(ids[:19], ids[1:20]))
            expected = BatchScorer(
                model, executor=ShardedExecutor()
            ).featurize_pairs(by_id, pairs)
            assert (scorer.featurize_pairs(first_half, pairs) == expected).all()

            pool = executor.pool
            os.kill(pool.worker_pids()[0], signal.SIGKILL)

            # unseen records: the sync delta is non-empty and is the very
            # first pool interaction after the crash
            more_pairs = sorted(zip(ids[19:-1], ids[20:]))
            expected_more = BatchScorer(
                model, executor=ShardedExecutor()
            ).featurize_pairs(by_id, more_pairs)
            actual = scorer.featurize_pairs(by_id, more_pairs)
            assert (actual == expected_more).all()
            assert pool.respawn_count >= 1
        finally:
            executor.close()

    def test_pooled_streaming_identical_to_serial_streaming(
        self, corpus, model
    ):
        def run(executor):
            collection, rows = self._make_collection(corpus)
            stream = StreamingTamer(
                collection,
                model,
                executor=executor,
                stream_config=StreamConfig(rebuild_threshold=0),
            )
            try:
                stream.refresh()
                for offset, row in enumerate(rows[20:28]):
                    row["_id"] = f"d{20 + offset}"
                    collection.insert(row)
                collection.update("d1", {"name": "renamed show"})
                collection.delete("d2")
                return stream.refresh()
            finally:
                stream.close()

        serial = run(None)
        executor = pooled_executor(batch_size=16)
        try:
            assert run(executor) == serial
        finally:
            executor.close()


def _read_context(key):
    from repro.exec.pool import warm_context

    return warm_context(key)


class TestWarmContexts:
    """The generic broadcast channel for non-record warm state."""

    def test_context_ships_once_per_version(self):
        with PersistentWorkerPool(workers=2) as pool:
            assert pool.sync_context("table", 1, {"a": 1})
            assert not pool.sync_context("table", 1, {"a": 1})  # same version
            results, _ = pool.run_tasks(
                [(_read_context, "table") for _ in range(2)]
            )
            assert results == [{"a": 1}, {"a": 1}]
            assert pool.sync_context("table", 2, {"a": 2})
            results, _ = pool.run_tasks([(_read_context, "table")])
            assert results == [{"a": 2}]

    def test_missing_context_raises_loudly(self):
        with PersistentWorkerPool(workers=1) as pool:
            with pytest.raises(TamerError):
                pool.run_tasks([(_read_context, "never-shipped")])

    def test_restarted_workers_receive_every_context(self):
        with PersistentWorkerPool(workers=2) as pool:
            pool.sync_context("alpha", 1, "A")
            pool.sync_context("beta", 7, "B")
            pool.shutdown()  # idle-style stop; contexts survive in the parent
            results, _ = pool.run_tasks(
                [(_read_context, "alpha"), (_read_context, "beta")]
            )
            assert results == ["A", "B"]

    def test_crashed_worker_respawns_with_contexts(self):
        with PersistentWorkerPool(workers=2) as pool:
            pool.sync_context("table", 3, "warm")
            pool.run_tasks([(_square, 2)])
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            results, _ = pool.run_tasks(
                [(_read_context, "table") for _ in range(4)]
            )
            assert results == ["warm"] * 4

    def test_executor_passthrough_requires_warm_pool(self):
        serial = ShardedExecutor(ExecConfig(parallelism=1))
        assert not serial.sync_warm_context("k", 1, "v")
        pooled = ShardedExecutor(ExecConfig(parallelism=2))
        try:
            assert pooled.sync_warm_context("k", 1, "v")
        finally:
            pooled.close()


class TestDispatchDeadline:
    """The hung-worker watchdog: kill, respawn, re-dispatch, count."""

    def test_hung_worker_is_killed_and_task_redispatched(self):
        from repro.fault import FaultPlan, FaultRule

        # task 0 hangs for 30s on its first attempt only; the watchdog must
        # kill that worker well before the sleep ends and the retry succeed
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    "pool.worker_hang", "hang", seconds=30.0, keys=((0, 1),)
                ),
            ),
        )
        with PersistentWorkerPool(
            workers=2, dispatch_deadline=0.4, fault_plan=plan
        ) as pool:
            start = time.perf_counter()
            results, _ = pool.run_tasks([(_square, n) for n in range(6)])
            elapsed = time.perf_counter() - start
            assert results == [n * n for n in range(6)]
            assert pool.hung_respawn_count == 1
            assert elapsed < 10.0  # nowhere near the 30s hang

    def test_pipe_send_fault_respawns_and_recovers(self):
        from repro.fault import FaultPlan, FaultRule

        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    "pool.pipe_send", "error", keys=((2, 1),), times=1
                ),
            ),
        )
        with PersistentWorkerPool(workers=2, fault_plan=plan) as pool:
            results, _ = pool.run_tasks([(_square, n) for n in range(6)])
            assert results == [n * n for n in range(6)]
            # task 2's first dispatch always carries key (2, 1), so the rule
            # fires exactly once whatever order the workers drain tasks in;
            # the failed send reaps its worker before the batch goes on, so
            # the respawn lands inside this batch, not at the next one
            assert pool._faults.fired("pool.pipe_send") == 1
            assert pool.respawn_count == 1

    def test_worker_compute_crash_respawns_and_recovers(self):
        from repro.fault import FaultPlan, FaultRule

        # first attempt of task 1 dies with os._exit inside the worker; the
        # respawned worker's second attempt has a different key and runs
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(
                    "pool.worker_compute", "crash", keys=((1, 1),), times=1
                ),
            ),
        )
        with PersistentWorkerPool(workers=2, fault_plan=plan) as pool:
            results, _ = pool.run_tasks([(_square, n) for n in range(6)])
            assert results == [n * n for n in range(6)]
            assert pool.respawn_count == 1

    def test_deadline_knob_validates(self):
        ExecConfig(dispatch_deadline=0.5).validate()
        with pytest.raises(ConfigError):
            ExecConfig(dispatch_deadline=-0.1).validate()
        with pytest.raises(TamerError):
            PersistentWorkerPool(workers=1, dispatch_deadline=-1.0)

    def test_deadline_threads_through_executor(self):
        executor = ShardedExecutor(ExecConfig(parallelism=2, dispatch_deadline=1.5))
        try:
            assert executor.ensure_pool().dispatch_deadline == 1.5
        finally:
            executor.close()
