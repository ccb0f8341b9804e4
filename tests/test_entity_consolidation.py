"""Tests for repro.entity.consolidation."""

import time

import pytest

from repro import DataTamer, TamerConfig
from repro.config import EntityConfig
from repro.entity.consolidation import (
    CONSOLIDATION_STAGES,
    EntityConsolidator,
    MergePolicy,
)
from repro.entity.dedup import DedupModel, LabeledPair
from repro.entity.record import Record
from repro.errors import EntityResolutionError
from repro.obs import TelemetryHub


def _record(rid, name, extra=None, source="s"):
    values = {"name": name}
    values.update(extra or {})
    return Record.from_dict(rid, source, values)


@pytest.fixture(scope="module")
def trained_model():
    shows = ["Matilda", "Wicked", "Chicago", "Once", "Pippin", "Annie",
             "Kinky Boots", "Newsies", "Motown", "Cinderella"]
    pairs = []
    for i, show in enumerate(shows):
        base = _record(f"b{i}", show, {"theater": f"T{i}", "price": 20 + i})
        variant = _record(f"v{i}", show.lower(), {"price": 20 + i})
        pairs.append(LabeledPair(base, variant, True))
    for i in range(len(shows) - 1):
        pairs.append(
            LabeledPair(
                _record(f"x{i}", shows[i], {"price": 30}),
                _record(f"y{i}", shows[i + 1], {"price": 95}),
                False,
            )
        )
    return DedupModel().fit(pairs)


@pytest.fixture
def duplicate_records():
    return [
        _record("a1", "Matilda", {"theater": "Shubert", "price": 27}, source="ftable"),
        _record("a2", "matilda", {"price": 27}, source="webtext"),
        _record("b1", "Wicked", {"theater": "Gershwin", "price": 89}, source="ftable"),
        _record("c1", "Once", {"theater": "Jacobs", "price": 45}, source="ftable"),
    ]


class TestConsolidation:
    def test_duplicates_merge_into_one_entity(self, trained_model, duplicate_records):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        entities = consolidator.consolidate(duplicate_records)
        matilda = [e for e in entities if "a1" in e.member_record_ids]
        assert matilda and set(matilda[0].member_record_ids) == {"a1", "a2"}

    def test_every_record_in_exactly_one_entity(self, trained_model, duplicate_records):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        entities = consolidator.consolidate(duplicate_records)
        members = sorted(m for e in entities for m in e.member_record_ids)
        assert members == sorted(r.record_id for r in duplicate_records)

    def test_merged_entity_combines_attributes(self, trained_model, duplicate_records):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        entities = consolidator.consolidate(duplicate_records)
        matilda = next(e for e in entities if "a1" in e.member_record_ids)
        assert matilda.attributes["theater"] == "Shubert"
        assert matilda.attributes["price"] == 27
        assert set(matilda.source_ids) == {"ftable", "webtext"}

    def test_provenance_lists_contributing_records(
        self, trained_model, duplicate_records
    ):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        entities = consolidator.consolidate(duplicate_records)
        matilda = next(e for e in entities if "a1" in e.member_record_ids)
        assert set(matilda.provenance["price"]) == {"a1", "a2"}

    def test_report_bookkeeping(self, trained_model, duplicate_records):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        consolidator.consolidate(duplicate_records)
        report = consolidator.last_report
        assert report.input_records == 4
        assert report.merged_entities >= 1
        assert 0.0 <= report.blocking_reduction <= 1.0

    def test_empty_input(self, trained_model):
        consolidator = EntityConsolidator(trained_model)
        assert consolidator.consolidate([]) == []
        assert consolidator.last_report.input_records == 0

    def test_duplicate_record_ids_rejected(self, trained_model):
        records = [_record("same", "A"), _record("same", "B")]
        with pytest.raises(EntityResolutionError):
            EntityConsolidator(trained_model).consolidate(records)

    def test_no_blocking_strategy_compares_all_pairs(
        self, trained_model, duplicate_records
    ):
        consolidator = EntityConsolidator(
            trained_model,
            config=EntityConfig(blocking_strategy="none"),
            key_attribute="name",
        )
        consolidator.consolidate(duplicate_records)
        n = len(duplicate_records)
        assert consolidator.last_report.candidate_pairs == n * (n - 1) // 2


class TestMergePolicies:
    def _cluster_records(self):
        return [
            _record("r1", "Matilda", {"venue": "Shubert Theatre"}),
            _record("r2", "Matilda", {"venue": "Shubert"}),
            _record("r3", "Matilda", {"venue": "Shubert"}),
        ]

    def _consolidate_with(self, trained_model, policy):
        consolidator = EntityConsolidator(
            trained_model, key_attribute="name", merge_policy=policy
        )
        entities = consolidator.consolidate(self._cluster_records())
        return next(e for e in entities if e.size == 3)

    def test_majority_policy(self, trained_model):
        entity = self._consolidate_with(trained_model, MergePolicy.MAJORITY)
        assert entity.attributes["venue"] == "Shubert"

    def test_longest_policy(self, trained_model):
        entity = self._consolidate_with(trained_model, MergePolicy.LONGEST)
        assert entity.attributes["venue"] == "Shubert Theatre"

    def test_first_policy(self, trained_model):
        entity = self._consolidate_with(trained_model, MergePolicy.FIRST)
        assert entity.attributes["venue"] == "Shubert Theatre"


class TestStageSeconds:
    def test_stages_fit_inside_the_run(self, trained_model, duplicate_records):
        consolidator = EntityConsolidator(trained_model, key_attribute="name")
        begin = time.perf_counter()
        consolidator.consolidate(duplicate_records)
        wall = time.perf_counter() - begin
        report = consolidator.last_report
        stages = report.stage_seconds
        assert tuple(stages) == CONSOLIDATION_STAGES
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= wall
        # the linear model's candidate filter ran inside blocking
        assert stages["filter"] > 0.0
        # a measurement, not an outcome: reports still compare by content
        assert "stage_seconds" not in report.as_dict()

    def test_filter_stage_is_zero_when_filtering_is_off(
        self, trained_model, duplicate_records
    ):
        consolidator = EntityConsolidator(
            trained_model,
            config=EntityConfig(candidate_filtering=False),
            key_attribute="name",
        )
        consolidator.consolidate(duplicate_records)
        assert consolidator.last_report.stage_seconds["filter"] == 0.0

    def test_stages_recorded_in_the_hub(self, trained_model, duplicate_records):
        hub = TelemetryHub()
        consolidator = EntityConsolidator(
            trained_model, key_attribute="name", hub=hub
        )
        consolidator.consolidate(duplicate_records)
        consolidator.consolidate(duplicate_records)
        series = hub.registry.snapshot()["entity_stage_seconds"]["series"]
        counts = {row["labels"]["stage"]: row["count"] for row in series}
        assert counts == dict.fromkeys(CONSOLIDATION_STAGES, 2)

    def test_data_tamer_hands_its_hub_over(self, trained_model):
        tamer = DataTamer(TamerConfig.small())
        try:
            tamer.set_dedup_model(trained_model)
            tamer.ingest_structured_records(
                "shows",
                [{"show_name": "Matilda", "price": 27}, {"show_name": "matilda"}],
            )
            tamer.consolidate_curated()
            metrics = tamer.hub.registry.snapshot()
            assert "entity_stage_seconds" in metrics
        finally:
            tamer.close()
