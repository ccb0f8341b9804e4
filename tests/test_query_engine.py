"""Tests for repro.query.engine."""

import pytest

from repro.entity.consolidation import ConsolidatedEntity
from repro.errors import QueryError
from repro.query.engine import QueryEngine


def _entity(eid, attributes):
    return ConsolidatedEntity(
        entity_id=eid,
        member_record_ids=[eid],
        source_ids=["s"],
        attributes=attributes,
    )


@pytest.fixture
def engine():
    return QueryEngine(
        [
            _entity("e1", {"show_name": "Matilda", "theater": "Shubert",
                           "cheapest_price": "$27"}),
            _entity("e2", {"show_name": "Wicked", "theater": "Gershwin",
                           "cheapest_price": "$89"}),
            _entity("e3", {"show_name": "The Walking Dead",
                           "text_feed": "heavily discussed on the web"}),
        ]
    )


class TestQueryEngine:
    def test_len_and_entities(self, engine):
        assert len(engine) == 3
        assert len(engine.entities) == 3

    def test_find_equal_normalizes(self, engine):
        assert (
            engine.find_equal("show_name", "MATILDA").first.attributes["theater"]
            == "Shubert"
        )
        assert len(engine.find_equal("show_name", "matilda ")) == 1

    def test_find_equal_no_match(self, engine):
        result = engine.find_equal("show_name", "Hamilton")
        assert len(result) == 0
        assert result.first is None

    def test_find_equal_ignores_missing_attribute(self, engine):
        assert len(engine.find_equal("text_feed", "")) == 0

    def test_search_requires_all_tokens(self, engine):
        assert len(engine.search("walking dead")) == 1
        assert len(engine.search("walking nonexistent")) == 0

    def test_search_restricted_to_attributes(self, engine):
        assert len(engine.search("discussed", attributes=["show_name"])) == 0
        assert len(engine.search("discussed", attributes=["text_feed"])) == 1

    def test_search_empty_phrase_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.search("!!!")

    def test_lookup_show_exact(self, engine):
        result = engine.lookup_show("Matilda", name_attribute="show_name")
        assert len(result) == 1

    def test_lookup_show_falls_back_to_keyword(self, engine):
        result = engine.lookup_show("Walking Dead", name_attribute="show_name")
        assert len(result) == 1

    def test_project(self, engine):
        rows = engine.find_equal("show_name", "Matilda").project(
            ["show_name", "genre"]
        )
        assert rows == [{"show_name": "Matilda", "genre": None}]

    def test_as_dicts(self, engine):
        dicts = engine.find_equal("show_name", "Matilda").as_dicts()
        assert dicts[0]["cheapest_price"] == "$27"

    def test_all_attributes_union(self, engine):
        assert "text_feed" in engine.all_attributes()
        assert "theater" in engine.all_attributes()

    def test_add_entities(self, engine):
        engine.add_entities([_entity("e4", {"show_name": "Once"})])
        assert len(engine) == 4

    def test_iteration(self, engine):
        result = engine.search("walking dead")
        assert [entity.entity_id for entity in result] == ["e3"]

    def test_lookup_show_punctuation_only_returns_empty(self, engine):
        # regression: a name that tokenizes to nothing used to fall through
        # to search(), which raises QueryError on an empty token set
        result = engine.lookup_show("!!!", name_attribute="show_name")
        assert len(result) == 0
        assert result.first is None

    def test_search_still_rejects_tokenless_phrase(self, engine):
        # the lookup fix must not weaken search's own contract
        with pytest.raises(QueryError):
            engine.search("?!.")


class TestSnapshotIsolation:
    def _engines(self):
        return QueryEngine(
            [_entity("e1", {"show_name": "Matilda"})], watermark=5
        )

    def test_add_entities_clears_watermark(self):
        # regression: a hand-extended view no longer matches any changelog
        # position, but the old watermark stamp used to survive the add
        engine = self._engines()
        assert engine.watermark == 5
        engine.add_entities([_entity("e2", {"show_name": "Once"})])
        assert engine.watermark is None
        assert len(engine) == 2

    def test_stream_repairs_hand_extended_engine(self, small_config):
        # the cleared watermark makes the streaming cache notice the
        # hand-mutated view and swap a freshly curated one back in
        from repro import DataTamer
        from repro.workloads import DedupCorpusGenerator

        tamer = DataTamer(small_config)
        corpus = DedupCorpusGenerator(seed=11).generate(n_entities=12)
        tamer.train_dedup_model(corpus.pairs)
        for record in corpus.records[:10]:
            tamer.curated_collection.insert(
                dict(record.as_dict(), _source="seed")
            )
        stream = tamer.start_stream(key_attribute="name")
        engine = stream.query_engine()
        curated = len(engine)
        engine.add_entities([_entity("x", {"name": "handmade"})])
        assert len(stream.query_engine()) == curated
        tamer.close()

    def test_replace_entities_swaps_snapshot_atomically(self):
        engine = self._engines()
        before = engine.snapshot
        engine.replace_entities(
            [_entity("e9", {"show_name": "Wicked"})], watermark=9
        )
        after = engine.snapshot
        assert after.version == before.version + 1
        assert (after.watermark, len(after.entities)) == (9, 1)
        # the old snapshot is untouched — readers holding it stay coherent
        assert (before.watermark, len(before.entities)) == (5, 1)
        assert before.entities[0].entity_id == "e1"

    def test_concurrent_searches_never_observe_torn_swap(self):
        # regression: replace_entities used to mutate _entities and
        # _watermark in two steps while search held enumerate(_entities);
        # a search overlapping a swap could mix generations.  Each
        # generation is self-consistent: N entities all carrying the
        # generation tag and a watermark equal to the generation.
        import threading

        size = 8
        generations = {
            gen: [
                _entity(
                    f"g{gen}e{i}", {"show_name": f"show {i}", "tag": f"gen{gen}"}
                )
                for i in range(size)
            ]
            for gen in (1, 2)
        }
        engine = QueryEngine(generations[1], watermark=1)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                snapshot = engine.snapshot
                result = engine.search("show")
                tags = {e.attributes["tag"] for e in result}
                if len(result) != size or len(tags) != 1:
                    failures.append(("torn result", len(result), tags))
                if {e.attributes["tag"] for e in snapshot.entities} != {
                    f"gen{snapshot.watermark}"
                }:
                    failures.append(("torn snapshot", snapshot.watermark))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for swap in range(400):
            gen = 1 + (swap % 2)
            engine.replace_entities(generations[gen], watermark=gen)
        stop.set()
        for thread in threads:
            thread.join()
        assert failures == []
