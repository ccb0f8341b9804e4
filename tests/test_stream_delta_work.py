"""One streaming refresh does work proportional to the delta.

The equivalence suites pin *what* the incremental curator produces; these
tests pin *how much* it does to get there, by the per-refresh work counters
(``RefreshStats.pairs_classified`` / ``components_recomputed`` /
``entities_restamped``), and exercise the per-component cluster cache on
oversized components, where a stale cache would show as a wrong split.
"""

import random

import numpy as np
import pytest

from repro import DataTamer, StreamConfig, TamerConfig
from repro.config import EntityConfig
from repro.entity.dedup import DedupModel
from repro.stream import ChangeEvent, DeltaCurator
from repro.workloads import DedupCorpusGenerator


def _events(*changes):
    """Coalesced change events from ``(op, doc_id, fields)`` triples."""
    return [
        ChangeEvent(
            seq=seq,
            op=op,
            doc_id=doc_id,
            document=None if fields is None else dict(fields, _id=doc_id),
        )
        for seq, (op, doc_id, fields) in enumerate(changes, start=1)
    ]


# -- (a) size independence, by count ----------------------------------------


@pytest.fixture(scope="module")
def trained_model():
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=60, variants_per_entity=2
    )
    return DedupModel(seed=0).fit(corpus.pairs)


def _hot_group():
    """The handful of records the delta interacts with."""
    return [
        {"_id": "hot0", "name": "Matilda The Musical", "type": "show"},
        {"_id": "hot1", "name": "Matilda the Musical", "type": "show"},
        {"_id": "hot2", "name": "Matilda Musical", "type": "show"},
        {"_id": "hot3", "name": "Wicked Broadway", "type": "show"},
        {"_id": "hot4", "name": "Wicked on Broadway", "type": "show"},
    ]


def _filler(n_records):
    """Duplicate pairs whose name tokens no hot record (or delta) shares."""
    docs = []
    for index in range(n_records // 2):
        name = f"zq{index}a vx{index}b"
        docs.append({"_id": f"fill{index}a", "name": name, "type": "venue"})
        docs.append({"_id": f"fill{index}b", "name": name.upper(), "type": "venue"})
    return docs


_DELTA = (
    ("insert", "new0", {"name": "Matilda The Musical!", "type": "show"}),
    ("update", "hot3", {"name": "Wicked Broadway NYC", "type": "show"}),
    ("delete", "hot1", None),
    ("insert", "new1", {"name": "Pippin Revival", "type": "show"}),
)


def _delta_stats(model, n_base):
    curator = DeltaCurator(model, key_attribute="name")
    curator.bootstrap(_hot_group() + _filler(n_base))
    curator.entities()
    curator.apply_events(_events(*_DELTA))
    entities = curator.entities()
    assert entities == curator.batch_reference()
    return curator.last_stats


def test_delta_work_counters_do_not_depend_on_base_size(trained_model):
    small = _delta_stats(trained_model, 500)
    large = _delta_stats(trained_model, 2000)
    assert large.records == small.records + 1500
    assert small.pairs_classified == large.pairs_classified > 0
    assert small.components_recomputed == large.components_recomputed > 0
    assert small.merges_computed == large.merges_computed > 0
    # a full pass would have classified every surviving candidate and
    # recomputed every component
    assert large.pairs_classified < large.candidate_pairs - large.pairs_pruned
    assert large.components_recomputed < large.clusters // 10


def test_quiet_refresh_does_no_delta_work(trained_model):
    curator = DeltaCurator(trained_model, key_attribute="name")
    curator.bootstrap(_hot_group() + _filler(40))
    first = curator.entities()
    boot = curator.last_stats
    assert boot.components_recomputed == boot.clusters == len(first)
    assert boot.entities_restamped == len(first)
    # an update that changes nothing the merge reads still re-merges the
    # record's own cluster, and nothing else
    curator.apply_events(
        _events(("update", "hot3", {"name": "Wicked Broadway", "type": "show"}))
    )
    again = curator.entities()
    stats = curator.last_stats
    assert again == first
    assert stats.components_recomputed == 1
    assert stats.merges_computed == 1
    assert stats.entities_restamped == 1
    # untouched entities are the very same objects, not copies
    changed = sum(a is not b for a, b in zip(first, again))
    assert changed == 1


# -- (c) the per-component cluster cache on oversized components -------------


class _JaccardClassifier:
    """P(match) = token Jaccard of the two records: scores by construction."""

    def predict_proba(self, X):
        return np.asarray(X, dtype=float)[:, 0].copy()


def _jaccard_model(threshold=0.5):
    config = EntityConfig(match_threshold=threshold, candidate_filtering=False)
    model = DedupModel(config=config)
    model._classifier = _JaccardClassifier()
    return model, config


def _window(start, width=3):
    """Tokens ``t{start}..``: neighbours in a chain share ``width - 1``."""
    return " ".join(f"t{index:02d}" for index in range(start, start + width))


def _chain(length):
    # adjacent windows score 2/4 = 0.5 (match), next-but-one 1/5 (no match):
    # one connected component that is a path, every link tied at 0.5
    return [{"_id": f"r{index}", "name": _window(index)} for index in range(length)]


def _chain_curator(length=6, max_cluster_size=3):
    model, config = _jaccard_model()
    curator = DeltaCurator(
        model, config=config, key_attribute="name", max_cluster_size=max_cluster_size
    )
    curator.bootstrap(_chain(length))
    return curator


def test_oversize_component_is_split_like_batch():
    curator = _chain_curator()
    entities = curator.entities()
    assert entities == curator.batch_reference()
    assert max(entity.size for entity in entities) <= 3
    assert sum(entity.size for entity in entities) == 6


def test_oversize_component_is_not_recomputed_by_unrelated_delta():
    curator = _chain_curator()
    curator.entities()
    curator.apply_events(_events(("insert", "zz", {"name": "unrelated words"})))
    assert curator.entities() == curator.batch_reference()
    stats = curator.last_stats
    assert stats.components_recomputed == 1  # the new singleton only
    assert stats.merges_computed == 1


def test_update_changing_an_internal_score_recomputes_the_split():
    curator = _chain_curator()
    before = [e.member_record_ids for e in curator.entities()]
    # r2 gains a token: its links drop to 2/5 = 0.4, below threshold, but a
    # second shared token with r3 keeps that one at 3/5 — edges and scores
    # inside the component both change
    curator.apply_events(_events(("update", "r2", {"name": _window(2) + " t05"})))
    entities = curator.entities()
    assert entities == curator.batch_reference()
    assert [e.member_record_ids for e in entities] != before
    assert curator.last_stats.components_recomputed >= 1


def test_update_keeping_edges_but_moving_scores_recomputes_the_split():
    # threshold low enough that every link survives the update: only the
    # *scores* the split sorts by move, which the graph alone cannot see
    model, config = _jaccard_model(threshold=0.3)
    curator = DeltaCurator(
        model, config=config, key_attribute="name", max_cluster_size=3
    )
    curator.bootstrap(_chain(7))
    entities = curator.entities()
    assert entities == curator.batch_reference()
    assert [e.member_record_ids for e in entities] == [
        ["r0", "r1", "r2"],
        ["r3", "r4", "r5"],
        ["r6"],
    ]
    matched = curator.last_stats.matched_pairs
    # a token nobody shares: r3's two links drop from 2/4 to 2/5, still
    # above threshold, and now sort behind every other link
    curator.apply_events(_events(("update", "r3", {"name": _window(3) + " zz9"})))
    entities = curator.entities()
    assert entities == curator.batch_reference()
    assert curator.last_stats.matched_pairs == matched
    assert [e.member_record_ids for e in entities] == [
        ["r0", "r1", "r2"],
        ["r3"],
        ["r4", "r5", "r6"],
    ]


def test_delete_splitting_the_component_lands_on_batch():
    curator = _chain_curator()
    curator.entities()
    curator.apply_events(_events(("delete", "r3", None)))
    entities = curator.entities()
    assert entities == curator.batch_reference()
    assert [e.member_record_ids for e in entities] == [
        ["r0", "r1", "r2"],
        ["r4", "r5"],
    ]
    assert [e.entity_id for e in entities] == ["entity:0", "entity:1"]


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_random_deltas_over_oversize_components_match_batch(seed):
    rng = random.Random(seed)
    curator = _chain_curator(length=12, max_cluster_size=3)
    curator.entities()
    live = {f"r{index}" for index in range(12)}
    fresh = 12
    for step in range(30):
        roll = rng.random()
        if roll < 0.4 or len(live) < 6:
            doc_id = f"r{fresh}"
            fresh += 1
            live.add(doc_id)
            change = ("insert", doc_id, {"name": _window(rng.randrange(12))})
        elif roll < 0.75:
            doc_id = rng.choice(sorted(live))
            width = rng.choice((2, 3, 4))
            change = ("update", doc_id, {"name": _window(rng.randrange(12), width)})
        else:
            doc_id = rng.choice(sorted(live))
            live.discard(doc_id)
            change = ("delete", doc_id, None)
        curator.apply_events(_events(change))
        if step % 3 == 0:
            assert curator.entities() == curator.batch_reference()
    assert curator.entities() == curator.batch_reference()


# -- every classifier scores deltas exactly ----------------------------------


def test_naive_bayes_streaming_matches_batch():
    config = TamerConfig.small()
    config.entity = EntityConfig(classifier="naive_bayes")
    config.stream = StreamConfig(max_batch_size=8, rebuild_threshold=0)
    tamer = DataTamer(config.validate())
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=40, variants_per_entity=2
    )
    tamer.train_dedup_model(corpus.pairs)
    records = [record.as_dict() for record in corpus.records]
    for doc in records[:60]:
        tamer.curated_collection.insert(doc)
    stream = tamer.start_stream(key_attribute="name")
    try:
        assert stream.refresh() == stream.batch_reference()
        for offset in range(60, len(records), 7):
            for doc in records[offset : offset + 7]:
                tamer.curated_collection.insert(doc)
            assert stream.refresh() == stream.batch_reference()
            stats = stream.curator.last_stats
            assert stats.pairs_classified < stats.candidate_pairs
    finally:
        tamer.close()


# -- the engine: metering and publish ----------------------------------------


def test_refresh_work_is_metered_once_and_publish_shares_the_tuple():
    config = TamerConfig.small()
    config.stream = StreamConfig(max_batch_size=8, rebuild_threshold=0)
    tamer = DataTamer(config.validate())
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=20, variants_per_entity=2
    )
    tamer.train_dedup_model(corpus.pairs)
    records = [record.as_dict() for record in corpus.records]
    for doc in records[:30]:
        tamer.curated_collection.insert(doc)
    stream = tamer.start_stream(key_attribute="name")
    try:
        histogram = tamer.hub.registry.find("stream_refresh_work")

        def refreshes_metered():
            return histogram.labels(work="pairs_classified").count

        stream.refresh()
        metered = refreshes_metered()
        assert metered >= 1
        tamer.curated_collection.insert(records[30])
        entities = stream.refresh()
        assert refreshes_metered() == metered + 1
        # publishing right after refresh() re-uses the curator's tuple and
        # meters nothing new
        engine = stream.query_engine()
        assert refreshes_metered() == metered + 1
        assert engine.snapshot.entities is stream.curator.entity_tuple()
        assert list(engine.snapshot.entities) == entities
        # nothing pending: same engine, same snapshot, no new publish
        snapshot = engine.snapshot
        assert stream.query_engine().snapshot is snapshot
        for work in ("components_recomputed", "entities_restamped"):
            assert histogram.labels(work=work).count == metered + 1
    finally:
        tamer.close()


def test_schema_memos_hold_one_cascade_not_the_stream_history():
    config = TamerConfig.small()
    config.stream = StreamConfig(max_batch_size=8, rebuild_threshold=0)
    tamer = DataTamer(config.validate())
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=20, variants_per_entity=2
    )
    tamer.train_dedup_model(corpus.pairs)
    records = [record.as_dict() for record in corpus.records]
    for index, doc in enumerate(records[:24]):
        tamer.curated_collection.insert(dict(doc, _source=f"src{index % 3}"))
    stream = tamer.start_stream(key_attribute="name", schema_integration=True)
    try:
        integrator = stream.integrator
        stream.global_schema()
        sizes = []
        for index, doc in enumerate(records[24:54]):
            # every insert changes one source's column profiles, leaving the
            # previous profiles — and every score and merge keyed on them —
            # dead; the memos must let go of them
            tamer.curated_collection.insert(dict(doc, _source=f"src{index % 3}"))
            stream.global_schema()
            sizes.append(
                (
                    len(integrator._profile_tokens),
                    len(integrator._score_memo),
                    len(integrator._merge_memo),
                )
            )
        assert integrator.snapshot() == integrator.batch_reference()
        assert integrator.last_stats.pairs_reused > 0
        first, last = sizes[0], sizes[-1]
        assert all(late <= 2 * early for early, late in zip(first, last)), sizes
    finally:
        tamer.close()
