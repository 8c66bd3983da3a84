"""Unit tests for ExperimentConfig (repro.experiments.config)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    NOISE_LEVELS,
    ExperimentConfig,
)


class TestPresets:
    def test_all_presets_sum_to_server_db_size(self):
        for name, sizes in DISK_PRESETS.items():
            assert sum(sizes) == 5000, name

    def test_paper_preset_values(self):
        assert DISK_PRESETS["D1"] == (500, 4500)
        assert DISK_PRESETS["D2"] == (900, 4100)
        assert DISK_PRESETS["D3"] == (2500, 2500)
        assert DISK_PRESETS["D4"] == (300, 1200, 3500)
        assert DISK_PRESETS["D5"] == (500, 2000, 2500)

    def test_sweep_constants(self):
        assert NOISE_LEVELS == (0.0, 0.15, 0.30, 0.45, 0.60, 0.75)
        assert DELTA_RANGE == tuple(range(8))


class TestDefaults:
    def test_paper_table4_defaults(self):
        config = ExperimentConfig()
        assert config.server_db_size == 5000
        assert config.access_range == 1000
        assert config.think_time == 2.0
        assert config.theta == 0.95
        assert config.region_size == 50
        assert config.num_requests == 15_000

    def test_has_cache(self):
        assert not ExperimentConfig(cache_size=1).has_cache
        assert ExperimentConfig(cache_size=50).has_cache

    def test_describe_mentions_key_knobs(self):
        text = ExperimentConfig(delta=3, policy="LIX").describe()
        assert "Δ=3" in text and "LIX" in text

    def test_label_overrides_describe(self):
        assert ExperimentConfig(label="custom").describe() == "custom"


class TestValidation:
    def test_cache_size(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(cache_size=0)

    def test_think_time(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(think_time=-1.0)

    def test_num_requests(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_requests=0)

    def test_noise_range(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(noise=1.5)

    def test_access_range_within_database(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(disk_sizes=(100,), access_range=1000)

    def test_offset_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(offset=5001)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        # NaN passes a bare ``< 0`` check; unchecked, these values crash
        # deep inside the engines (ValueError/OverflowError on int()).
        for field in ("think_time", "steady_state_factor",
                      "drift_rotations"):
            with pytest.raises(ConfigurationError, match=field):
                ExperimentConfig(**{field: value})
        with pytest.raises(ConfigurationError, match="retune_cost"):
            ExperimentConfig(channels=2, retune_cost=value)
        # The engines validate their own arguments the same way.
        from repro.batch.engine import ColumnarEngine
        from repro.experiments.engine import FastEngine

        for keywords in ({"think_time": value},
                         {"think_time": 0.0, "retune_cost": value}):
            name = list(keywords)[-1]
            # Validation fires before the schedule, mapping or cache is
            # touched, so placeholders are enough.
            with pytest.raises(ConfigurationError, match=name):
                FastEngine(None, None, None, None, **keywords)
            with pytest.raises(ConfigurationError, match=name):
                ColumnarEngine(None, None, None, None, 1, **keywords)


class TestBuilders:
    def test_layout_uses_delta_rule(self):
        config = ExperimentConfig(disk_sizes=(500, 2000, 2500), delta=3)
        assert config.build_layout().rel_freqs == (7, 4, 1)

    def test_explicit_rel_freqs_override_delta(self):
        config = ExperimentConfig(
            disk_sizes=(500, 4500), delta=3, rel_freqs=(3, 2)
        )
        assert config.build_layout().rel_freqs == (3, 2)

    def test_flat_layout_gets_flat_program(self):
        config = ExperimentConfig(disk_sizes=(500, 4500), delta=0)
        schedule = config.build_schedule()
        assert schedule.period == 5000
        assert schedule.empty_slots == 0

    def test_schedule_carries_every_page(self):
        config = ExperimentConfig(disk_sizes=(50, 200, 250), delta=2,
                                  access_range=100, region_size=10)
        schedule = config.build_schedule()
        assert schedule.num_pages == 500

    def test_mapping_respects_offset_and_noise(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, offset=10, noise=0.2,
            access_range=100, region_size=10, seed=1,
        )
        mapping = config.build_mapping()
        assert mapping.offset == 10
        assert mapping.noise == 0.2

    def test_noise_scope_defaults_to_access_range(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.2,
            access_range=100, region_size=10, seed=1,
        )
        assert config.build_mapping().noise_scope == 100

    def test_noise_over_full_database_opt_in(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.2,
            access_range=100, region_size=10, seed=1,
            noise_over_full_database=True,
        )
        assert config.build_mapping().noise_scope == 500

    def test_mapping_deterministic_per_seed(self):
        import numpy as np

        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.3,
            access_range=100, region_size=10, seed=5,
        )
        a = config.build_mapping().physical_array()
        b = config.build_mapping().physical_array()
        assert np.array_equal(a, b)

    def test_policy_wiring(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, cache_size=10,
            policy="PIX", access_range=100, region_size=10,
        )
        layout = config.build_layout()
        schedule = config.build_schedule(layout)
        mapping = config.build_mapping(layout)
        distribution = config.build_distribution()
        policy = config.build_policy(schedule, mapping, distribution, layout)
        assert type(policy).name == "PIX"
        policy.admit(0, 1.0)
        assert 0 in policy

    def test_with_override(self):
        config = ExperimentConfig(delta=1)
        modified = config.with_(delta=5)
        assert modified.delta == 5
        assert config.delta == 1
