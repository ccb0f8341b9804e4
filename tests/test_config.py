"""Tests for repro.config."""

import pytest

from repro.config import (
    EntityConfig,
    ExpertConfig,
    ObsConfig,
    SchemaConfig,
    StorageConfig,
    TamerConfig,
)
from repro.errors import ConfigError


class TestStorageConfig:
    def test_defaults_validate(self):
        StorageConfig().validate()

    def test_rejects_non_positive_extent(self):
        with pytest.raises(ConfigError):
            StorageConfig(extent_size_bytes=0).validate()

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ConfigError):
            StorageConfig(num_shards=0).validate()

    def test_rejects_negative_extent(self):
        with pytest.raises(ConfigError):
            StorageConfig(extent_size_bytes=-5).validate()


class TestSchemaConfig:
    def test_defaults_validate(self):
        SchemaConfig().validate()

    def test_accept_threshold_bounds(self):
        with pytest.raises(ConfigError):
            SchemaConfig(accept_threshold=1.5).validate()
        with pytest.raises(ConfigError):
            SchemaConfig(accept_threshold=-0.1).validate()

    def test_new_attribute_threshold_bounds(self):
        with pytest.raises(ConfigError):
            SchemaConfig(new_attribute_threshold=2.0).validate()

    def test_new_threshold_must_not_exceed_accept(self):
        with pytest.raises(ConfigError):
            SchemaConfig(accept_threshold=0.4, new_attribute_threshold=0.6).validate()

    def test_empty_weights_rejected(self):
        with pytest.raises(ConfigError):
            SchemaConfig(matcher_weights={}).validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            SchemaConfig(matcher_weights={"name": -1.0}).validate()

    def test_zero_sum_weights_rejected(self):
        with pytest.raises(ConfigError):
            SchemaConfig(matcher_weights={"name": 0.0, "value": 0.0}).validate()

    def test_custom_weights_accepted(self):
        cfg = SchemaConfig(matcher_weights={"name": 1.0, "value": 2.0})
        cfg.validate()
        assert cfg.matcher_weights["value"] == 2.0


class TestEntityConfig:
    def test_defaults_validate(self):
        EntityConfig().validate()

    def test_match_threshold_bounds(self):
        with pytest.raises(ConfigError):
            EntityConfig(match_threshold=1.2).validate()

    def test_unknown_blocking_strategy(self):
        with pytest.raises(ConfigError):
            EntityConfig(blocking_strategy="magic").validate()

    @pytest.mark.parametrize("strategy", ["token", "ngram", "sorted", "none"])
    def test_known_blocking_strategies(self, strategy):
        EntityConfig(blocking_strategy=strategy).validate()

    def test_max_block_size_must_exceed_one(self):
        with pytest.raises(ConfigError):
            EntityConfig(max_block_size=1).validate()

    def test_unknown_classifier(self):
        with pytest.raises(ConfigError):
            EntityConfig(classifier="svm").validate()

    def test_crossval_folds_minimum(self):
        with pytest.raises(ConfigError):
            EntityConfig(crossval_folds=1).validate()


class TestExpertConfig:
    def test_defaults_validate(self):
        ExpertConfig().validate()

    def test_max_tasks_positive(self):
        with pytest.raises(ConfigError):
            ExpertConfig(max_tasks_per_expert=0).validate()

    def test_min_answers_positive(self):
        with pytest.raises(ConfigError):
            ExpertConfig(min_answers_per_task=0).validate()


class TestObsConfig:
    def test_defaults_validate(self):
        ObsConfig().validate()

    def test_trace_buffer_minimum(self):
        with pytest.raises(ConfigError):
            ObsConfig(trace_buffer=0).validate()

    def test_trace_sample_every_minimum(self):
        with pytest.raises(ConfigError):
            ObsConfig(trace_sample_every=0).validate()
        ObsConfig(trace_sample_every=1).validate()

    def test_snapshot_path_must_be_non_empty_or_none(self):
        with pytest.raises(ConfigError):
            ObsConfig(snapshot_path="").validate()
        ObsConfig(snapshot_path="obs/snapshots.jsonl").validate()

    def test_snapshot_interval_positive(self):
        with pytest.raises(ConfigError):
            ObsConfig(snapshot_interval_seconds=0.0).validate()

    def test_disabled_hub_from_config_is_inert(self):
        from repro.obs import TelemetryHub

        hub = TelemetryHub.from_config(ObsConfig(enabled=False))
        assert hub.registry.counter("c_total").value == 0.0
        assert not hub.tracer.enabled

    def test_alert_knobs_validate(self):
        ObsConfig(
            alert_watermark_age_seconds=0.0,  # 0 disables the rule
            alert_respawn_rate_per_minute=10.0,
            alert_window_seconds=30.0,
        ).validate()
        with pytest.raises(ConfigError):
            ObsConfig(alert_watermark_age_seconds=-1.0).validate()
        with pytest.raises(ConfigError):
            ObsConfig(alert_respawn_rate_per_minute=-1.0).validate()
        with pytest.raises(ConfigError):
            ObsConfig(alert_window_seconds=0.0).validate()


class TestTamerConfig:
    def test_default_factory_validates(self):
        cfg = TamerConfig.default()
        assert cfg.schema.accept_threshold == 0.75

    def test_small_factory_uses_tiny_extents(self):
        cfg = TamerConfig.small()
        assert cfg.storage.extent_size_bytes < 1024 * 1024
        assert cfg.storage.num_shards == 2

    def test_validate_returns_self(self):
        cfg = TamerConfig()
        assert cfg.validate() is cfg

    def test_with_seed_copies(self):
        cfg = TamerConfig.default()
        other = cfg.with_seed(99)
        assert other.seed == 99
        assert cfg.seed == 0
        assert other.storage is cfg.storage  # shallow copy by design

    def test_invalid_subsection_propagates(self):
        cfg = TamerConfig(entity=EntityConfig(match_threshold=5.0))
        with pytest.raises(ConfigError):
            cfg.validate()
