"""``serve_hot_read`` and ``serve_churn_write``: the serving tier, used two ways.

Both drive an in-process ``QueryServer`` (``serve_in_background``) over a
streamed curated base plus web text, through real sockets with ``QueryClient``,
rotating ``find_equal / search / lookup_show / fuse / top_k / sql``.

``serve_hot_read``: two closed-loop connections, Zipf(1.1) over 128 request
keys that fit the result cache, no writes — the cached read path.
``serve_churn_write``: one closed-loop connection over thousands of distinct
request keys (several times the cache) beside a writer thread that inserts
records and publishes a new snapshot, then rests 200 ms — misses, evaluation on
worker threads, invalidation and background re-prime.

Every response is checked: the client compares it with the first response it
saw for the same request key and snapshot version, and each distinct one is
replayed through ``evaluate_request`` on the ``ServeView`` it was stamped with.
"""

from __future__ import annotations

import os
import random
import threading
import time
from statistics import median

from repro.serve import QueryClient, QueryRequest, evaluate_request, serve_in_background

from harness import Measurement, canonical, digest
from inputs import (
    build_tamer,
    distinct_names,
    pinned_corpus,
    train_model,
    web_documents,
    zipf_sample,
)
from workload import Oracle, Workload

KEY_ATTRIBUTE = "name"
N_SOURCES = 8
OPS = ("find_equal", "search", "lookup_show", "fuse", "top_k", "sql")
WRITE_CHUNK = 8
#: the writer rests this long between rounds (a delay, not a schedule: a writer
#: that chased a schedule it had fallen behind would starve the readers)
PUBLISH_PAUSE = 0.2
PINGS = 200
#: requests after which the hot set's ranks are dealt again (serve_hot_read)
HOT_SET_DRIFT = 2000


def _request(op, name, variant):
    """One request of ``op`` keyed on ``name`` (``variant`` for keyless ops)."""
    if op == "find_equal":
        return op, {"attribute": KEY_ATTRIBUTE, "value": name}
    if op == "search":
        return op, {"phrase": name}
    if op == "lookup_show":
        return op, {"show_name": name}
    if op == "fuse":
        return op, {"show_name": name}
    if op == "top_k":
        return op, {"k": 3 + variant % 40}
    literal = name.replace("'", "''")
    return op, {
        "query": "SELECT entity_id, name, size FROM entities "
        f"WHERE name = '{literal}' ORDER BY entity_id LIMIT {5 + variant % 7}"
    }


def _pin_to_one_cpu():
    """Pin this thread to one CPU; returns the set to restore (None: cannot)."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):  # not Linux, or not permitted here
        return None
    return cpus


def _version(op) -> int:
    """The protocol version an op needs (``sql`` arrived with version 2)."""
    return 2 if op == "sql" else 1


def _request_keys(names, n_keys=None):
    """Distinct requests: every name under every op, ops rotating."""
    keys = []
    for index, name in enumerate(names):
        for op in OPS:
            keys.append(_request(op, name, index))
    unique = list({repr(key): key for key in keys}.values())
    return unique if n_keys is None else unique[:n_keys]


class _Client(threading.Thread):
    """One closed-loop connection issuing ``sequence`` until ``deadline``."""

    def __init__(self, port, keys, sequence, tracer, first_op_id):
        super().__init__(name="load-client")
        self.port, self.keys, self.sequence = port, keys, sequence
        self.tracer, self.first_op_id = tracer, first_op_id
        self.deadline = None
        self.log = []  # (key index, latency ms, cached, version)
        self.distinct = {}  # (key index, version) -> first response
        self.mismatched = 0
        self.errors = 0
        self.shed = 0
        self.retries = 0
        self.crash = None
        self.ready = threading.Event()
        self.go = threading.Event()

    def run(self):
        try:
            self._drive()
        except BaseException as exc:  # re-raised by the thread that joins us
            self.crash = exc
            self.ready.set()

    def _drive(self):
        keys, tracer = self.keys, self.tracer
        with QueryClient("127.0.0.1", self.port) as client:
            self.ready.set()
            self.go.wait()
            for offset, index in enumerate(self.sequence):
                if time.perf_counter() >= self.deadline:
                    break
                op, params = keys[index]
                op_id = self.first_op_id + offset
                begin = time.perf_counter()
                with tracer.span("serve", "serve.request", op_id=op_id):
                    response = client.request(op, params, version=_version(op))
                elapsed_ms = (time.perf_counter() - begin) * 1e3
                if not response.get("ok"):
                    self.errors += 1
                    error = response.get("error") or {}
                    self.shed += error.get("type") == "Overloaded"
                    continue
                version = response["version"]
                self.log.append((index, elapsed_ms, response["cached"], version))
                first = self.distinct.setdefault((index, version), response)
                if first is not response and first["result"] != response["result"]:
                    self.mismatched += 1
            self.retries = client.retries_used


class _ServeWorkload(Workload):
    n_clients = 1
    writes = False

    def make_inputs(self, seed, size):
        rng = random.Random(seed)
        pairs, pool = pinned_corpus(size["base"] + size["write_records"])
        for slot, record in enumerate(pool):
            record["_source"] = f"feed{slot % N_SOURCES}"
        base, feed = pool[: size["base"]], pool[size["base"] :]
        rng.shuffle(feed)
        # the key set belongs to the pinned deployment: the tail of a hot set
        # hinges on how many of its keys carry a heavy payload
        keys = _request_keys(distinct_names(base, KEY_ATTRIBUTE), size["keys"])
        sequences = [
            self._sequence(rng, len(keys), size["requests"])
            for _ in range(self.n_clients)
        ]
        documents = web_documents(seed + 3, size["documents"])
        return {
            "size": size,
            "pairs": pairs,
            "base": base,
            "feed": feed,
            "documents": documents,
            "keys": keys,
            "sequences": sequences,
            "digest": digest(base, feed, documents, keys, sequences),
        }

    def _sequence(self, rng, n_keys, count):
        raise NotImplementedError

    def setup(self, inputs):
        # Server loop, evaluation workers, clients and writer share one GIL, so
        # one core is all they can use; left alone, the kernel sometimes puts
        # client and server threads on different vCPUs, every hop of a request
        # then pays a cross-CPU wake-up, and the same code serves half the
        # requests (measured: 3 500 vs 7 400 req/s, p50 0.51 vs 0.24 ms).  One
        # CPU for the whole process makes the placement the same every run;
        # threads started from here on inherit it.
        cpus = _pin_to_one_cpu()
        tamer = build_tamer()
        tamer.set_dedup_model(train_model(inputs["pairs"]))
        tamer.ingest_text_documents(inputs["documents"])
        for record in inputs["base"]:
            tamer.curated_collection.insert(record)
        stream = tamer.start_stream(key_attribute=KEY_ATTRIBUTE)
        stream.refresh()
        server = tamer.create_server(key_attribute=KEY_ATTRIBUTE)
        views = {server.view.version: server.view}

        def record_view(_snapshot):
            views[server.view.version] = server.view

        unsubscribe = stream.subscribe_snapshots(record_view)
        handle = serve_in_background(server)
        state = {
            "cpus": cpus,
            "tamer": tamer,
            "stream": stream,
            "server": server,
            "views": views,
            "unsubscribe": unsubscribe,
            "handle": handle,
        }
        # fill the cache and the lazy per-view SQL context before timing
        with QueryClient("127.0.0.1", handle.port) as client:
            for op, params in inputs["keys"][: inputs["size"]["warm_keys"]]:
                client.request(op, params, version=_version(op))
        return state

    def _writer(self, state, inputs, stop, publishes, crashes, tracer):
        """Insert a chunk, publish, rest ``PUBLISH_PAUSE``; until told to stop."""
        collection = state["tamer"].curated_collection
        stream, feed = state["stream"], inputs["feed"]
        cursor = 0
        try:
            while not stop.wait(PUBLISH_PAUSE):
                begin = time.perf_counter()
                with tracer.span("stream", "serve.writer_round"):
                    for record in feed[cursor : cursor + WRITE_CHUNK]:
                        collection.insert(record)
                    cursor += WRITE_CHUNK
                    stream.refresh()
                    stream.query_engine()
                publishes.append(time.perf_counter() - begin)
        except BaseException as exc:  # re-raised by the thread that joins us
            crashes.append(exc)

    def run(self, state, inputs, seconds, tracer):
        server, port = state["server"], state["handle"].port
        per_client = len(inputs["sequences"][0])
        clients = [
            _Client(port, inputs["keys"], sequence, tracer, index * per_client)
            for index, sequence in enumerate(inputs["sequences"])
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.ready.wait()
        cache_before = server.cache.stats()
        stop, publishes, crashes = threading.Event(), [], []
        writer = None
        if self.writes:
            writer = threading.Thread(
                target=self._writer,
                args=(state, inputs, stop, publishes, crashes, tracer),
                name="writer",
            )
        t0 = time.perf_counter()
        for client in clients:
            client.deadline = t0 + seconds
            client.go.set()
        if writer is not None:
            writer.start()
        for client in clients:
            client.join()
        t1 = time.perf_counter()
        stop.set()
        if writer is not None:
            writer.join()
        crashes.extend(client.crash for client in clients if client.crash)
        if crashes:
            raise crashes[0]
        cache_after = server.cache.stats()

        with QueryClient("127.0.0.1", port) as probe:
            pings = []
            for _ in range(PINGS):
                begin = time.perf_counter()
                probe.ping()
                pings.append((time.perf_counter() - begin) * 1e3)

        log = [entry for client in clients for entry in client.log]
        errors = sum(client.errors for client in clients)
        latencies = [ms for _index, ms, _cached, _version in log]
        lookups = {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses", "stale_misses", "refreshes")
        }
        answered = lookups["hits"] + lookups["misses"]
        layer = {
            "serve.cache_hit_share": lookups["hits"] / answered if answered else 0.0,
            "serve.stale_miss_share": (
                lookups["stale_misses"] / answered if answered else 0.0
            ),
            "serve.refreshes": lookups["refreshes"],
            "serve.overhead_p50_ms": median(pings),
            "serve.publishes": len(publishes),
            "serve.publish_s": sum(publishes),
            "serve.shed": sum(client.shed for client in clients),
            "serve.retries": sum(client.retries for client in clients),
        }
        for label, wanted in (("hit", True), ("miss", False)):
            samples = [ms for _i, ms, cached, _v in log if cached is wanted]
            if samples:
                layer[f"serve.{label}_p50_ms"] = median(samples)
        for op in OPS:
            samples = [
                ms for index, ms, _c, _v in log if inputs["keys"][index][0] == op
            ]
            if samples:
                layer[f"serve.{op}_p50_ms"] = median(samples)
        distinct = {}
        for client in clients:
            for key, response in client.distinct.items():
                distinct.setdefault(key, response)
        return Measurement(
            throughput=len(log) / (t1 - t0),
            latencies_ms=latencies,
            attempted=len(log) + errors,
            failed=errors + sum(client.mismatched for client in clients),
            t0=t0,
            t1=t1,
            raw={"distinct": distinct, "layer": layer},
        )

    def check(self, state, inputs, measurement):
        name_attribute = state["tamer"].resolve_attribute(KEY_ATTRIBUTE)
        views = state["views"]
        wrong = 0
        begin = time.perf_counter()
        for (index, version), response in measurement.raw["distinct"].items():
            op, params = inputs["keys"][index]
            view = views[version]
            request = QueryRequest(op=op, params=params)
            expected = canonical(evaluate_request(view, request, name_attribute))
            wrong += (
                response["result"] != expected
                or response["watermark"] != view.watermark
            )
        measurement.raw["layer"]["serve.evaluate_s"] = time.perf_counter() - begin
        return [
            Oracle(
                "responses_equal_evaluate_request",
                len(measurement.raw["distinct"]),
                wrong,
            )
        ]

    def corrupt(self, measurement):
        response = next(iter(measurement.raw["distinct"].values()))
        response["result"] = {"corrupted": True}

    def teardown(self, state):
        state["unsubscribe"]()
        state["handle"].stop()
        state["tamer"].close()
        if state["cpus"] is not None:
            os.sched_setaffinity(0, state["cpus"])


class ServeHotRead(_ServeWorkload):
    name = "serve_hot_read"
    n_clients = 2
    sizes = {
        "full": {
            "base": 1500,
            "write_records": 0,
            "documents": 300,
            "keys": 128,
            "warm_keys": 128,
            "requests": 120_000,
        },
        "toy": {
            "base": 120,
            "write_records": 0,
            "documents": 40,
            "keys": 128,
            "warm_keys": 128,
            "requests": 20_000,
        },
    }

    def _sequence(self, rng, n_keys, count):
        """Zipf(1.1) over ranks; which key holds which rank drifts per block.

        At any moment three keys take a third of the traffic, but over a run
        every key has its turn at the top, so the run's cost does not hinge on
        the payload of whichever single key a seed happened to rank first.
        """
        ranks = zipf_sample(rng, n_keys, 1.1, count)
        sequence = []
        for start in range(0, count, HOT_SET_DRIFT):
            keys = list(range(n_keys))
            rng.shuffle(keys)
            sequence.extend(keys[rank] for rank in ranks[start : start + HOT_SET_DRIFT])
        return sequence

    def separation(self, layer, seconds):
        if layer["serve.cache_hit_share"] < 0.9:
            return [f"cache hit share {layer['serve.cache_hit_share']:.2f} < 0.90"]
        return []


class ServeChurnWrite(_ServeWorkload):
    name = "serve_churn_write"
    writes = True
    sizes = {
        "full": {
            "base": 2000,
            "write_records": 800,
            "documents": 300,
            "keys": None,
            "warm_keys": 12,
            "requests": 60_000,
        },
        "toy": {
            "base": 160,
            "write_records": 200,
            "documents": 40,
            "keys": None,
            "warm_keys": 12,
            "requests": 4_000,
        },
    }

    def _sequence(self, rng, n_keys, count):
        return [rng.randrange(n_keys) for _ in range(count)]

    def separation(self, layer, seconds):
        problems = []
        if layer["serve.cache_hit_share"] > 0.35:
            problems.append(
                f"cache hit share {layer['serve.cache_hit_share']:.2f} > 0.35"
            )
        if layer["serve.publishes"] < 1.5 * seconds:
            problems.append(
                f"{layer['serve.publishes']:.0f} publishes in {seconds:.0f} s "
                f"(expected at least {1.5 * seconds:.0f})"
            )
        return problems
