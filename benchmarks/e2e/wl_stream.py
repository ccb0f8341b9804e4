"""``stream_mixed_delta``: the incremental path with the durable log on.

A seeded 70/20/10 insert/update/delete feed over eight sources is written to
a streamed, changelog-backed curated collection.  Phase one is an **open
loop**: events fall due at a fixed rate whatever the system does, each round
writes every event already due, then ``refresh()`` → ``global_schema()`` →
``query_engine()`` publishes, and an event's freshness runs from its *due*
time to that publish — a stall is charged to the events queued behind it.
Phase two is a closed loop of back-to-back 64-event batches (saturation).
Afterwards the changelog is replayed into a fresh system (restart).
"""

from __future__ import annotations

import os
import random
import shutil
import time
from statistics import median
from dataclasses import replace
from pathlib import Path

from repro import DataTamer, TamerConfig
from repro.storage.persistence import recover_collection

from harness import Measurement, Tracer, digest, percentile
from inputs import pinned_corpus, train_model
from workload import Oracle, Workload

KEY_ATTRIBUTE = "name"
N_FEED_SOURCES = 8
SATURATION_BATCH = 64
#: share of the run spent in the open-loop phase
OPEN_SHARE = 0.6
#: events applied before timing (the untimed warm-up iteration)
WARMUP_EVENTS = 16
SCRATCH = Path(__file__).resolve().parent.parent.parent / ".bench_scratch"


def _feed(rng, pool, n_base, n_events):
    """The base documents and a feed of (op, doc_id, payload) events.

    The generator keeps its own list of live ids, so updates and deletes
    always name a document that exists when the event is applied in order.
    """

    def document(slot):
        return dict(
            pool[slot], _id=f"rec{slot}", _source=f"feed{slot % N_FEED_SOURCES}"
        )

    base = [document(slot) for slot in range(n_base)]
    live = [doc["_id"] for doc in base]
    names = {doc["_id"]: doc[KEY_ATTRIBUTE] for doc in base}
    next_slot = n_base
    recase = (str.upper, str.lower, str.title)
    events = []
    for index in range(n_events):
        roll = rng.random()
        if roll < 0.7 and next_slot < len(pool):
            doc = document(next_slot)
            next_slot += 1
            live.append(doc["_id"])
            names[doc["_id"]] = doc[KEY_ATTRIBUTE]
            events.append(("insert", doc["_id"], doc))
        elif roll < 0.9:
            doc_id = live[rng.randrange(len(live))]
            names[doc_id] = recase[index % 3](names[doc_id])
            events.append(("update", doc_id, {KEY_ATTRIBUTE: names[doc_id]}))
        else:
            doc_id = live.pop(rng.randrange(len(live)))
            events.append(("delete", doc_id, None))
    return base, events


def _write(collection, event):
    op, doc_id, payload = event
    if op == "insert":
        collection.insert(payload)
    elif op == "update":
        collection.update(doc_id, payload)
    else:
        collection.delete(doc_id)


def _publish(stream, tracer, op_id):
    """Apply what is pending and publish: the feed driver's per-round work."""
    with tracer.span("stream", "stream.round", op_id=op_id):
        stream.refresh()
        stream.global_schema()
        stream.query_engine()


class StreamMixedDelta(Workload):
    name = "stream_mixed_delta"
    sizes = {
        "full": {"base": 1500, "events": 3000, "rate": 80},
        "toy": {"base": 120, "events": 700, "rate": 40},
    }

    def make_inputs(self, seed, size):
        rng = random.Random(seed)
        pairs, pool = pinned_corpus(size["base"] + size["events"])
        arrivals = pool[size["base"] :]
        rng.shuffle(arrivals)
        pool[size["base"] :] = arrivals
        base, events = _feed(rng, pool, size["base"], size["events"])
        return {
            "size": size,
            "pairs": pairs,
            "base": base,
            "events": events,
            "digest": digest(base, events),
        }

    def _system(self, model, changelog_path):
        config = TamerConfig.default()
        config = replace(
            config, stream=replace(config.stream, changelog_path=str(changelog_path))
        )
        tamer = DataTamer(config)
        tamer.set_dedup_model(model)
        return tamer

    def setup(self, inputs):
        scratch = SCRATCH / f"stream-{os.getpid()}-{time.monotonic_ns()}"
        scratch.mkdir(parents=True)
        model = train_model(inputs["pairs"])
        tamer = self._system(model, scratch / "changelog.jsonl")
        for doc in inputs["base"]:
            tamer.curated_collection.insert(doc)
        begin = time.perf_counter()
        stream = tamer.start_stream(
            key_attribute=KEY_ATTRIBUTE, schema_integration=True
        )
        stream.global_schema()
        stream.query_engine()
        bootstrap_s = time.perf_counter() - begin
        for event in inputs["events"][:WARMUP_EVENTS]:
            _write(tamer.curated_collection, event)
        _publish(stream, Tracer(), None)
        return {
            "scratch": scratch,
            "model": model,
            "tamer": tamer,
            "stream": stream,
            "bootstrap_s": bootstrap_s,
        }

    def run(self, state, inputs, seconds, tracer):
        collection = state["tamer"].curated_collection
        stream = state["stream"]
        events = inputs["events"]
        rate = inputs["size"]["rate"]
        log_path = state["scratch"] / "changelog.jsonl"
        log_bytes = log_path.stat().st_size
        rebuilds = stream.rebuild_count

        # -- phase one: open loop at a fixed rate ---------------------------
        first = WARMUP_EVENTS
        n_open = min(int(rate * seconds * OPEN_SHARE), len(events) - first)
        t0 = time.perf_counter()

        def due(i):
            return t0 + i / rate

        publish_times, late_ms = [], []
        written = rounds = backlog_max = 0
        while written < n_open:
            now = time.perf_counter()
            if due(written) > now:
                # waiting for the schedule is the harness's time, not a layer's
                with tracer.span("harness", "harness.idle"):
                    time.sleep(due(written) - now)
                continue
            start = written
            while written < n_open and due(written) <= now:
                _write(collection, events[first + written])
                late_ms.append((now - due(written)) * 1e3)
                written += 1
            _publish(stream, tracer, rounds)
            rounds += 1
            published = time.perf_counter()
            publish_times.extend([published] * (written - start))
            # events that fell due while this round was applying
            waiting = min(n_open, int((published - t0) * rate) + 1) - written
            backlog_max = max(backlog_max, waiting)
        freshness_ms = [(p - due(i)) * 1e3 for i, p in enumerate(publish_times)]
        # due but unpublished when the schedule ended (the last event counts)
        backlog_end = sum(p > due(n_open - 1) for p in publish_times)
        open_rebuilds = stream.rebuild_count - rebuilds

        # -- phase two: saturation, back-to-back batches --------------------
        cursor = first + n_open
        sat_deadline = time.perf_counter() + seconds * (1 - OPEN_SHARE)
        saturated, batch_rates = 0, []
        while time.perf_counter() < sat_deadline and cursor < len(events):
            batch = events[cursor : cursor + SATURATION_BATCH]
            begin = time.perf_counter()
            for event in batch:
                _write(collection, event)
            _publish(stream, tracer, rounds)
            batch_rates.append(len(batch) / (time.perf_counter() - begin))
            rounds += 1
            cursor += len(batch)
            saturated += len(batch)
        t1 = time.perf_counter()

        total = n_open + saturated
        layer = {
            "stream.bootstrap_s": state["bootstrap_s"],
            "stream.rebuilds": open_rebuilds,
            "stream.backlog_max": backlog_max,
            "stream.backlog_end": backlog_end,
            "stream.generator_late_p95_ms": percentile(sorted(late_ms), 95),
            "storage.changelog_bytes_per_event": (
                (log_path.stat().st_size - log_bytes) / total
            ),
        }
        return Measurement(
            throughput=median(batch_rates),
            latencies_ms=freshness_ms,
            attempted=total,
            failed=0,
            t0=t0,
            t1=t1,
            raw={"layer": layer},
        )

    def check(self, state, inputs, measurement):
        tamer, stream = state["tamer"], state["stream"]
        entities = stream.refresh()
        wrong_entities = entities != stream.batch_reference()
        integrator = stream.integrator
        wrong_schema = integrator.snapshot() != integrator.batch_reference()
        live = list(tamer.curated_collection.scan())
        log_path = state["scratch"] / "changelog.jsonl"

        # restart: fresh process state → changelog replay → bootstrap → first
        # published snapshot (the restarted system logs to a file of its own)
        begin = time.perf_counter()
        fresh = self._system(state["model"], state["scratch"] / "restart.jsonl")
        try:
            recover_collection(fresh.curated_collection, log_path)
            replay_s = time.perf_counter() - begin
            restarted = fresh.start_stream(
                key_attribute=KEY_ATTRIBUTE, schema_integration=True
            )
            restarted.query_engine()
            recovery_s = time.perf_counter() - begin
            wrong_recovery = list(fresh.curated_collection.scan()) != live
        finally:
            fresh.close()
        measurement.raw["layer"]["stream.recovery_s"] = recovery_s
        measurement.raw["layer"]["storage.recover_replay_s"] = replay_s
        return [
            Oracle("entities_equal_batch_reference", 1, int(wrong_entities)),
            Oracle("schema_equal_batch_reference", 1, int(wrong_schema)),
            Oracle("recovered_equals_live", 1, int(wrong_recovery)),
        ]

    def teardown(self, state):
        state["tamer"].close()
        shutil.rmtree(state["scratch"], ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run's scratch is still in there
            pass

    def separation(self, layer, seconds):
        problems = []
        rate = self.sizes["full"]["rate"]
        if layer["stream.backlog_end"] > rate * 0.25:
            problems.append(
                f"open-loop backlog ended at {layer['stream.backlog_end']:.0f} events: "
                "the fixed rate is not sustainable, so the run is invalid, not slow"
            )
        if layer["stream.rebuilds"] != 0:
            problems.append(f"{layer['stream.rebuilds']:.0f} rebuilds in the open loop")
        return problems
