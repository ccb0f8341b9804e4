"""Chaos suite: seeded fault schedules against the live stack.

Each test arms a deterministic :class:`~repro.fault.FaultPlan` (seed taken
from the ``CHAOS_SEED`` environment variable, default 7 — CI runs a small
seed matrix) and drives a real workload through it:

* concurrent retrying clients against a live server while a writer keeps
  publishing, with socket reads aborted and evaluations delayed at random;
* the persistent process pool with a hung worker and seeded compute
  crashes, racing the dispatch-deadline watchdog;
* a changelog whose writer dies mid-line (a torn write), then recovery.

The assertions are the stack's standing invariants — responses
bit-identical to the sequential oracle, monotonic reads per connection,
recovery reproducing the last durable state — which must hold under every
schedule, not just the happy path.  When an invariant breaks, the fired
fault schedule is dumped to ``chaos_artifacts/`` so CI can upload it and
the failure replays exactly (same seed, same schedule).
"""

import contextlib
import json
import os
import threading
from pathlib import Path

from repro import DataTamer, TamerConfig
from repro.config import EntityConfig, ExecConfig, ServeConfig
from repro.errors import InjectedFault
from repro.exec import PersistentWorkerPool
from repro.fault import FaultInjector, FaultPlan, FaultRule
from repro.serve import QueryClient, serve_in_background
from repro.serve.protocol import QueryRequest
from repro.serve.server import evaluate_request
from repro.storage.persistence import ChangelogWriter, recover_collection
from repro.stream import tail_collection
from repro.stream.changelog import Changelog
from repro.workloads import DedupCorpusGenerator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))
ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "chaos_artifacts"

N_CLIENTS = 3
REQUESTS_PER_CLIENT = 30
PUBLISH_ROUNDS = 5


def _canonical(payload):
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


@contextlib.contextmanager
def _schedule_artifact(name, *injector_sources):
    """Dump the fired fault schedules if the block fails, then re-raise.

    ``injector_sources`` are zero-arg callables resolved at failure time
    (the injector may live on an object that is rebuilt mid-test).
    """
    try:
        yield
    except BaseException:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        schedules = []
        for source in injector_sources:
            injector = source()
            dump = getattr(injector, "schedule_dump", None)
            if dump is not None:
                schedules.append(dump())
        path = ARTIFACT_DIR / f"{name}-seed{CHAOS_SEED}.json"
        path.write_text(
            json.dumps(
                {"seed": CHAOS_SEED, "test": name, "schedules": schedules},
                indent=2,
                default=str,
            ),
            encoding="utf-8",
        )
        raise


# -- serving under connection and evaluation faults -------------------------


def _serve_chaos_plan() -> FaultPlan:
    return FaultPlan(
        seed=CHAOS_SEED,
        rules=(
            # aborted reads force client reconnects mid-traffic
            FaultRule("serve.socket_read", "error", p=0.08),
            # slow evaluations shuffle response interleavings
            FaultRule("serve.evaluate", "delay", seconds=0.02, p=0.15),
        ),
    )


def _chaos_stack():
    config = TamerConfig.small()
    config.entity = EntityConfig(blocking_strategy="token")
    config.execution = ExecConfig(parallelism=2, dispatch_deadline=10.0)
    tamer = DataTamer(config.validate())
    corpus = DedupCorpusGenerator(seed=41).generate(n_entities=40)
    tamer.train_dedup_model(corpus.pairs)
    seed, updates = corpus.records[:16], corpus.records[16:]
    for record in seed:
        tamer.curated_collection.insert(dict(record.as_dict(), _source="seed"))
    stream = tamer.start_stream(key_attribute="name")
    server = tamer.create_server(
        key_attribute="name",
        serve_config=ServeConfig(fault_plan=_serve_chaos_plan()),
    )
    return tamer, stream, server, seed, updates


def test_serving_invariants_hold_under_connection_chaos():
    tamer, stream, server, seed, updates = _chaos_stack()
    try:
        with _schedule_artifact("serve", lambda: server._faults):
            views = {server.view.version: server.view}

            def record(_snapshot):
                view = server.view
                views[view.version] = view

            unsubscribe = stream.subscribe_snapshots(record)
            names = [record_.as_dict()["name"] for record_ in seed[:8]]
            start = threading.Barrier(N_CLIENTS + 1)
            logs = [[] for _ in range(N_CLIENTS)]
            errors = []

            def client_thread(idx):
                try:
                    client = QueryClient(
                        "127.0.0.1",
                        handle.port,
                        retries=8,
                        backoff_base=0.01,
                        jitter_seed=idx,
                    ).connect()
                    start.wait()
                    for i in range(REQUESTS_PER_CLIENT):
                        name = names[(idx + i) % len(names)]
                        op, params = [
                            ("find_equal", {"attribute": "name", "value": name}),
                            ("search", {"phrase": name}),
                            ("lookup_show", {"show_name": name}),
                            ("top_k", {"k": 5}),
                            ("fuse", {"show_name": name}),
                        ][i % 5]
                        response = client.request(op, dict(params))
                        # tag with the connection epoch: a reconnect opens
                        # a new session, restarting the monotonic guarantee
                        logs[idx].append(
                            (op, params, response, client.reconnects)
                        )
                    client.close()
                except Exception as exc:
                    errors.append((idx, repr(exc)))

            with serve_in_background(server) as handle:
                threads = [
                    threading.Thread(target=client_thread, args=(i,))
                    for i in range(N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                start.wait()
                chunk = max(1, len(updates) // PUBLISH_ROUNDS)
                for round_ in range(PUBLISH_ROUNDS):
                    for record_ in updates[
                        round_ * chunk : (round_ + 1) * chunk
                    ]:
                        tamer.curated_collection.insert(
                            dict(record_.as_dict(), _source=f"u{round_}")
                        )
                    stream.query_engine()
                for thread in threads:
                    thread.join(timeout=120)
            unsubscribe()

            assert errors == []
            assert all(not t.is_alive() for t in threads)
            # the schedule actually did something: reads were aborted
            assert server._faults.fired("serve.socket_read") > 0

            oracle_cache = {}
            for idx, client_log in enumerate(logs):
                assert len(client_log) == REQUESTS_PER_CLIENT
                last = (-1, -1)  # (connection epoch, version)
                for op, params, response, epoch in client_log:
                    assert response["ok"], (idx, op, params, response)
                    version = response["version"]
                    assert version in views, (idx, op, version, sorted(views))
                    view = views[version]
                    assert response["watermark"] == view.watermark
                    # monotonic reads within each connection epoch
                    if epoch == last[0]:
                        assert version >= last[1], (idx, op, epoch, version)
                    last = (epoch, version)
                    cache_key = (version, op, _canonical(params))
                    if cache_key not in oracle_cache:
                        oracle_cache[cache_key] = _canonical(
                            evaluate_request(
                                view,
                                QueryRequest(op=op, params=params),
                                "name",
                            )
                        )
                    assert (
                        _canonical(response["result"])
                        == oracle_cache[cache_key]
                    ), (idx, op, params, version)
    finally:
        tamer.close()


# -- the pool under hangs and crashes ---------------------------------------


def _square(value):
    return value * value


def test_pool_chaos_hangs_and_crashes_stay_bit_identical():
    # one guaranteed hang (task 2, first attempt) races the watchdog; on
    # top, seeded compute crashes (re-dispatch gets a fresh attempt key,
    # so a crashed task's retry draws again and eventually lands)
    plan = FaultPlan(
        seed=CHAOS_SEED,
        rules=(
            FaultRule(
                "pool.worker_hang", "hang", seconds=30.0, keys=((2, 1),)
            ),
            FaultRule("pool.worker_compute", "crash", p=0.05, times=3),
        ),
    )
    pool = PersistentWorkerPool(
        workers=2, dispatch_deadline=0.5, fault_plan=plan
    )
    with _schedule_artifact("pool", lambda: pool._faults):
        with pool:
            results, _ = pool.run_tasks([(_square, n) for n in range(24)])
            assert results == [n * n for n in range(24)]
            assert pool.hung_respawn_count == 1
            # every crash the schedule fired forced a detected respawn
            crashes = pool._faults.fired("pool.worker_compute")
            assert pool.respawn_count >= crashes + 1


# -- torn changelog writes and recovery -------------------------------------


def test_torn_changelog_write_recovers_last_durable_state(
    document_store, tmp_path
):
    # the op index that tears varies with the seed but is deterministic
    tear_at = 8 + CHAOS_SEED % 13
    plan = FaultPlan(
        seed=CHAOS_SEED,
        rules=(
            FaultRule("changelog.write", "torn", start=tear_at, times=1),
        ),
    )
    injector = FaultInjector(plan)
    path = tmp_path / "chaos.jsonl"
    writer = ChangelogWriter(path, faults=injector)
    source = document_store.create_collection("src")
    tail_collection(source, changelog=Changelog(sink=writer.append))

    with _schedule_artifact("torn-changelog", lambda: injector):
        durable = []
        torn = False
        for step in range(tear_at + 5):
            durable = [dict(doc) for doc in source.scan()]
            try:
                if step % 4 == 3 and durable:
                    source.update(
                        durable[step % len(durable)]["_id"],
                        {"price": step},
                    )
                else:
                    source.insert(
                        {"_id": f"d{step}", "name": f"doc {step}",
                         "_source": "chaos"}
                    )
            except InjectedFault:
                torn = True
                break
        assert torn, "the torn-write schedule never fired"
        assert writer.closed  # the writer died with the torn line

        # the file ends in half a line; recovery must absorb it and land
        # exactly on the state every *completed* op had persisted
        raw = path.read_text(encoding="utf-8")
        assert not raw.endswith("\n")
        target = document_store.create_collection("dst")
        recover_collection(target, path)
        assert [dict(d) for d in target.scan()] == durable
