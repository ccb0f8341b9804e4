"""Streaming/batch equivalence for incremental schema integration.

The schema operator's contract mirrors the entity operator's: after any
sequence of insert/update/delete events, :meth:`DeltaIntegrator.snapshot`
— the global schema (attributes, exact merged profiles, aliases, history)
plus every per-source mapping report — is *bit-for-bit* what a fresh
:class:`SchemaIntegrator` produces by re-integrating every live source's
current records from scratch (:meth:`DeltaIntegrator.batch_reference`).

These tests drive seeded random event sequences through a
:class:`StreamingTamer` with the schema operator enabled and compare the
incremental state against the batch oracle at checkpoints — across delta
orders and batch groupings, same-attribute (and same-id) reinsertion,
stochastic expert escalation with deterministic replay, and tamers at
1/2/8 workers (whose entity operator fans out over the persistent pool).
"""

import random

import pytest

from repro import DataTamer, StreamConfig, TamerConfig
from repro.config import EntityConfig, ExecConfig, SchemaConfig
from repro.expert.experts import SimulatedExpert
from repro.expert.routing import ExpertRouter
from repro.workloads import DedupCorpusGenerator

SEEDS = (0, 1, 2)

#: Per-source attribute dialects: the same logical fields under different
#: naming conventions, plus source-unique fields — so integration exercises
#: aliasing, auto-accepts and new-attribute additions, not just identity.
_DIALECTS = {
    "alpha": {
        "name": "show_name",
        "city": "city",
        "price": "ticket_price",
        "venue": "venue",
        "extra": "alpha_only_notes",
    },
    "beta": {
        "name": "SHOW_NAME",
        "city": "CITY",
        "price": "PRICE_USD",
        "venue": "VENUE_NAME",
        "extra": "beta_rating",
    },
    "gamma": {
        "name": "showName",
        "city": "cityName",
        "price": "cheapestPrice",
        "venue": "theater",
        "extra": "gammaSchedule",
    },
}

_WORDS = (
    "matilda", "chicago", "wicked", "pippin", "cinderella", "annie",
    "broadway", "theater", "musical", "tickets", "show", "evening",
)
_CITIES = ("new york", "boston", "chicago", "london")


def _random_doc(rng: random.Random, source: str) -> dict:
    names = _DIALECTS[source]
    doc = {
        names["name"]: " ".join(rng.sample(_WORDS, rng.randint(1, 3))),
        names["city"]: rng.choice(_CITIES),
        names["price"]: rng.randint(20, 200),
        names["venue"]: rng.choice(_WORDS),
        names["extra"]: f"{source} {rng.randint(0, 9)}",
        "_source": source,
    }
    for field in ("city", "price", "venue", "extra"):
        if rng.random() < 0.3:
            del doc[names[field]]
    return doc


def _mutate(rng: random.Random, doc: dict) -> dict:
    changed = {k: v for k, v in doc.items() if k != "_id"}
    source = changed.get("_source", "alpha")
    names = _DIALECTS.get(source, _DIALECTS["alpha"])
    choice = rng.random()
    if choice < 0.4:
        changed[names["name"]] = " ".join(rng.sample(_WORDS, rng.randint(1, 3)))
    elif choice < 0.7:
        changed[names["price"]] = rng.randint(20, 200)
    else:
        changed[names["city"]] = rng.choice(_CITIES)
    return changed


def _build_tamer(
    workers: int = 1,
    max_batch_size: int = 16,
    expert_router=None,
    true_mapping=None,
) -> DataTamer:
    config = TamerConfig.small()
    config.entity = EntityConfig(blocking_strategy="token")
    config.schema = SchemaConfig(
        accept_threshold=0.75, new_attribute_threshold=0.35
    )
    config.stream = StreamConfig(
        max_batch_size=max_batch_size,
        rebuild_threshold=0,
        schema_integration=True,
    )
    if workers > 1:
        config.execution = ExecConfig(parallelism=workers, batch_size=64)
    tamer = DataTamer(
        config.validate(),
        expert_router=expert_router,
        true_schema_mapping=true_mapping,
    )
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=40, variants_per_entity=2
    )
    tamer.train_dedup_model(corpus.pairs)
    return tamer


def _drive_and_check(
    tamer: DataTamer, seed: int, steps: int = 30, checkpoint: int = 6
):
    rng = random.Random(seed)
    collection = tamer.curated_collection
    for _ in range(18):
        collection.insert(_random_doc(rng, rng.choice(tuple(_DIALECTS))))
    stream = tamer.start_stream()
    integrator = stream.integrator
    assert integrator is not None
    assert integrator.snapshot() == integrator.batch_reference()

    for step in range(1, steps + 1):
        live = [doc["_id"] for doc in collection.scan()]
        op = rng.random()
        if op < 0.45 or len(live) < 8:
            collection.insert(_random_doc(rng, rng.choice(tuple(_DIALECTS))))
        elif op < 0.7:
            doc_id = rng.choice(live)
            collection.upsert(doc_id, _mutate(rng, collection.get(doc_id)))
        elif op < 0.85:
            # same-id, same-attribute reinsertion: the document (and every
            # column value it contributes) moves to the end of its source
            victim = rng.choice(live)
            doc = collection.get(victim)
            collection.delete(victim)
            collection.insert(doc)
        else:
            collection.delete(rng.choice(live))
        if step % checkpoint == 0:
            stream.apply_delta()
            assert integrator.snapshot() == integrator.batch_reference()
            # the entity operator stays equivalent on the shared chain
            assert stream.refresh() == stream.batch_reference()
    return stream


@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_schema_matches_batch(seed):
    tamer = _build_tamer()
    _drive_and_check(tamer, seed)


@pytest.mark.parametrize("max_batch_size", (1, 4, 64))
def test_batch_grouping_lands_on_identical_state(max_batch_size):
    """The same write sequence drained as 1-event batches, small coalesced
    batches or one big batch must land on the identical snapshot."""
    reference = None
    for size in (max_batch_size, 256):
        tamer = _build_tamer(max_batch_size=size)
        rng = random.Random(7)
        collection = tamer.curated_collection
        for _ in range(12):
            collection.insert(_random_doc(rng, rng.choice(tuple(_DIALECTS))))
        stream = tamer.start_stream()
        # interleave writes so multi-event batches coalesce per document
        live = [doc["_id"] for doc in collection.scan()]
        for doc_id in live[:4]:
            collection.upsert(doc_id, _mutate(rng, collection.get(doc_id)))
            collection.upsert(doc_id, _mutate(rng, collection.get(doc_id)))
        collection.delete(live[5])
        doc = collection.get(live[6])
        collection.delete(live[6])
        collection.insert(doc)
        stream.apply_delta()
        snapshot = stream.integrator.snapshot()
        assert snapshot == stream.integrator.batch_reference()
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference
        tamer.close()


def test_source_interleaving_shuffle_is_order_independent():
    """Shuffling the interleaving of *different* sources' writes (keeping
    each source's own sequence and the first-seen source order) lands on
    the identical snapshot: per-source mirrors only depend on per-source
    event order."""
    rng = random.Random(3)
    per_source = {
        source: [_random_doc(rng, source) for _ in range(6)]
        for source in _DIALECTS
    }
    snapshots = []
    for shuffle_seed in (None, 11, 23):
        tamer = _build_tamer()
        collection = tamer.curated_collection
        # pin first-seen source order with one doc each, in dialect order
        for source in _DIALECTS:
            collection.insert(dict(per_source[source][0]))
        remaining = [
            (source, dict(doc))
            for source in _DIALECTS
            for doc in per_source[source][1:]
        ]
        if shuffle_seed is not None:
            order = list(range(len(remaining)))
            random.Random(shuffle_seed).shuffle(order)
            # stable per-source subsequence: sort the shuffle back within
            # each source so each source's own order is preserved
            seen = {source: 0 for source in _DIALECTS}
            by_source = {
                source: [d for s, d in remaining if s == source]
                for source in _DIALECTS
            }
            shuffled = []
            for index in order:
                source = remaining[index][0]
                shuffled.append((source, by_source[source][seen[source]]))
                seen[source] += 1
            remaining = shuffled
        stream = tamer.start_stream()
        for _, doc in remaining:
            collection.insert(doc)
        stream.apply_delta()
        snapshot = stream.integrator.snapshot()
        assert snapshot == stream.integrator.batch_reference()
        snapshots.append(snapshot)
        tamer.close()
    assert snapshots[0] == snapshots[1] == snapshots[2]


@pytest.mark.parametrize("seed", SEEDS)
def test_expert_escalation_replay_is_deterministic(seed):
    """A stochastic simulated expert answers each distinct escalation once;
    cascade re-runs and the batch oracle replay the recorded answers —
    snapshots stay bit-identical and the expert is never re-asked."""
    router = ExpertRouter(
        [SimulatedExpert("expert-1", accuracy=0.8, seed=seed + 40)]
    )
    tamer = _build_tamer(expert_router=router)
    stream = _drive_and_check(tamer, seed, steps=18, checkpoint=6)
    integrator = stream.integrator
    assert integrator.expert_log_size > 0  # escalations actually happened
    asked_before = router.total_tasks_answered
    # a forced cascade re-run (rebuild) must replay, not re-ask
    integrator.rebuild(tamer.curated_collection.scan())
    rebuilt = integrator.snapshot()
    assert rebuilt == integrator.batch_reference()
    assert router.total_tasks_answered == asked_before
    stats = integrator.last_stats
    assert stats.escalations_replayed > 0 and stats.escalations_asked == 0


@pytest.mark.parametrize("workers", (1, 2, 8))
def test_worker_fanout_is_bit_identical(workers):
    """A tamer at 1, 2 or 8 workers — whose entity operator fans out over
    the persistent pool — keeps the schema operator bit-identical to its
    batch oracle (schema scoring itself always runs inline)."""
    tamer = _build_tamer(workers=workers)
    try:
        _drive_and_check(tamer, seed=1, steps=12, checkpoint=6)
    finally:
        tamer.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_rebuild_fallback_lands_on_identical_schema_state(seed):
    """Re-bootstrapping from ``collection.scan()`` must land on the exact
    incremental state — including the *source integration order*, which is
    defined by each source's earliest live document and shifts when that
    document is deleted or re-inserted at the end."""
    tamer = _build_tamer()
    stream = _drive_and_check(tamer, seed=seed, steps=24, checkpoint=6)
    incremental = stream.integrator.snapshot()
    stream.full_rebuild()
    assert stream.rebuild_count == 1
    assert stream.integrator.snapshot() == incremental


def test_update_that_changes_source_keeps_global_position():
    """An update rewriting ``_source`` re-homes the document *mid-sequence*
    in the new source (collection updates never move documents)."""
    tamer = _build_tamer()
    rng = random.Random(21)
    collection = tamer.curated_collection
    for _ in range(6):
        collection.insert(_random_doc(rng, "alpha"))
    for _ in range(6):
        collection.insert(_random_doc(rng, "beta"))
    stream = tamer.start_stream()
    integrator = stream.integrator
    live = [doc["_id"] for doc in collection.scan()]
    # re-home an early alpha doc into beta: it must precede every beta doc
    moved = collection.get(live[1])
    moved = {k: v for k, v in moved.items() if k != "_id"}
    moved["_source"] = "beta"
    collection.upsert(live[1], moved)
    # and re-home a beta doc into a brand-new source
    fresh = collection.get(live[8])
    fresh = {k: v for k, v in fresh.items() if k != "_id"}
    fresh["_source"] = "gamma"
    collection.upsert(live[8], fresh)
    stream.apply_delta()
    assert integrator.snapshot() == integrator.batch_reference()
    incremental = integrator.snapshot()
    integrator.rebuild(collection.scan())
    assert integrator.snapshot() == incremental


def test_per_operator_watermarks_drive_query_invalidation():
    tamer = _build_tamer()
    rng = random.Random(9)
    for _ in range(10):
        tamer.curated_collection.insert(_random_doc(rng, "alpha"))
    stream = tamer.start_stream()
    marks = stream.watermarks()
    assert set(marks) == {"entity", "schema"}
    assert marks["entity"] == marks["schema"] == stream.watermark
    engine = stream.query_engine()
    assert engine.watermark == stream.curator.watermark
    tamer.curated_collection.insert(_random_doc(rng, "beta"))
    stream.apply_delta()
    marks = stream.watermarks()
    assert marks["entity"] == marks["schema"] > engine.watermark
    assert engine.is_stale(stream.curator.watermark)
    stream.query_engine()
    assert engine.watermark == stream.curator.watermark


def test_pool_fanout_stays_identical_across_rebuild_and_restart():
    """Equivalence survives the full lifecycle on an 8-worker tamer:
    bootstrap, rebuild fallback, a second stream on the same pool."""
    tamer = _build_tamer(workers=8)
    try:
        stream = _drive_and_check(tamer, seed=3, steps=6, checkpoint=6)
        stream.full_rebuild()
        integrator = stream.integrator
        assert integrator.snapshot() == integrator.batch_reference()
        # second stream over the same executor/pool
        second = tamer.start_stream()
        assert second.integrator.snapshot() == second.integrator.batch_reference()
    finally:
        tamer.close()


def test_key_reordered_records_defeat_the_profile_cache():
    """dict == ignores key order, but key order IS first-seen column order:
    a reordered repeat integration must re-profile from scratch."""
    from repro.schema.integrator import SchemaIntegrator

    integrator = SchemaIntegrator()
    integrator.integrate_source("s", [{"a": 1, "b": 2}])
    reordered = [{"b": 2, "a": 1}, {"a": 3, "b": 4}]
    profiles = integrator._profiles_for("s", reordered)
    assert list(profiles) == ["b", "a"]  # fresh first-seen order
    assert profiles == SchemaIntegrator.profile_source(reordered)


def test_operator_stage_shares_rebuild_accounting_and_closed_check():
    """Driving the stream through CurationPipeline.add_operator_stage must
    count toward the rebuild threshold and reject a closed stream."""
    from repro.core.pipeline import CurationPipeline
    from repro.errors import TamerError

    tamer = _build_tamer()
    from dataclasses import replace

    tamer.config.stream = replace(
        tamer.config.stream, rebuild_threshold=5, max_batch_size=4
    )
    rng = random.Random(2)
    for _ in range(6):
        tamer.curated_collection.insert(_random_doc(rng, "alpha"))
    stream = tamer.start_stream()
    for _ in range(6):
        tamer.curated_collection.insert(_random_doc(rng, "beta"))
    pipeline = CurationPipeline()
    pipeline.add_operator_stage("drain", stream)
    pipeline.run()
    assert stream.rebuild_count == 1  # the fallback fired through the stage
    assert stream.refresh() == stream.batch_reference()
    # events recorded before close must not be silently drained after it
    tamer.curated_collection.insert(_random_doc(rng, "alpha"))
    stream.close()
    assert stream.pending_events == 1
    with pytest.raises(TamerError):
        pipeline.run()
    tamer.close()
