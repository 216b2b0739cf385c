"""Flash-crowd trace generator tests."""

import pytest

from repro.errors import ReproError
from repro.utils.rng import derive_rng
from repro.workloads.bursts import (
    STORM_COUNTRIES,
    STORM_COUNTRY,
    DiurnalStormConfig,
    NftDropConfig,
    generate_diurnal_storm,
    generate_nft_drop,
)


def small_drop(**kwargs) -> NftDropConfig:
    defaults = dict(
        duration_s=40.0, drop_at_s=10.0, spike_duration_s=15.0,
        baseline_rate_hz=1.0, spike_rate_hz=8.0,
        n_hot_objects=10, n_background_objects=5,
    )
    defaults.update(kwargs)
    return NftDropConfig(**defaults)


def small_storm(**kwargs) -> DiurnalStormConfig:
    defaults = dict(
        duration_s=60.0, baseline_rate_hz=4.0,
        storm_start_s=30.0, storm_duration_s=15.0, storm_multiplier=6.0,
        n_objects=12,
    )
    defaults.update(kwargs)
    return DiurnalStormConfig(**defaults)


class TestNftDrop:
    def test_deterministic_for_one_seed(self):
        config = small_drop()
        a = generate_nft_drop(config, derive_rng(3, "drop"))
        b = generate_nft_drop(config, derive_rng(3, "drop"))
        assert a == b
        assert a != generate_nft_drop(config, derive_rng(4, "drop"))

    def test_sorted_and_inside_the_trace(self):
        config = small_drop()
        requests = generate_nft_drop(config, derive_rng(3, "drop"))
        times = [request.timestamp for request in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < config.duration_s for t in times)

    def test_hot_requests_sit_in_the_spike_window(self):
        config = small_drop()
        requests = generate_nft_drop(config, derive_rng(3, "drop"))
        hot = [request for request in requests if request.hot]
        assert hot, "spike produced no requests"
        spike_end = config.drop_at_s + config.spike_duration_s
        for request in hot:
            assert config.drop_at_s <= request.timestamp < spike_end
            assert request.object_index < config.n_hot_objects

    def test_background_uses_the_background_catalogue(self):
        config = small_drop()
        requests = generate_nft_drop(config, derive_rng(3, "drop"))
        for request in requests:
            if not request.hot:
                assert (
                    config.n_hot_objects
                    <= request.object_index
                    < config.n_objects
                )

    def test_spike_dominates_the_window(self):
        config = small_drop()
        requests = generate_nft_drop(config, derive_rng(3, "drop"))
        spike_end = config.drop_at_s + config.spike_duration_s
        in_window = [
            r for r in requests
            if config.drop_at_s <= r.timestamp < spike_end
        ]
        before = [r for r in requests if r.timestamp < config.drop_at_s]
        rate_in = len(in_window) / config.spike_duration_s
        rate_before = max(len(before) / config.drop_at_s, 1e-9)
        assert rate_in > 3 * rate_before

    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0.0},
        {"drop_at_s": 100.0},
        {"drop_at_s": -1.0},
        {"baseline_rate_hz": -1.0},
        {"n_hot_objects": 0},
        {"n_background_objects": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            small_drop(**kwargs)

    def test_n_objects_property(self):
        assert small_drop().n_objects == 15


class TestDiurnalStorm:
    def test_deterministic_for_one_seed(self):
        config = small_storm()
        a = generate_diurnal_storm(config, derive_rng(3, "storm"))
        b = generate_diurnal_storm(config, derive_rng(3, "storm"))
        assert a == b

    def test_sorted_with_known_countries(self):
        config = small_storm()
        requests = generate_diurnal_storm(config, derive_rng(3, "storm"))
        times = [request.timestamp for request in requests]
        assert times == sorted(times)
        known = {country for country, _, _ in STORM_COUNTRIES}
        assert {request.country for request in requests} <= known

    def test_hot_marks_the_storm_regions_window(self):
        config = small_storm()
        requests = generate_diurnal_storm(config, derive_rng(3, "storm"))
        storm_end = config.storm_start_s + config.storm_duration_s
        for request in requests:
            in_window = (
                request.country == STORM_COUNTRY
                and config.storm_start_s <= request.timestamp < storm_end
            )
            assert request.hot == in_window

    def test_storm_multiplies_the_regions_demand(self):
        quiet = small_storm(storm_multiplier=1.0)
        stormy = small_storm(storm_multiplier=8.0)
        base = generate_diurnal_storm(quiet, derive_rng(5, "storm"))
        surged = generate_diurnal_storm(stormy, derive_rng(5, "storm"))
        assert sum(r.hot for r in surged) > 2 * max(sum(r.hot for r in base), 1)

    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0.0},
        {"storm_start_s": 100.0},
        {"storm_multiplier": 0.5},
        {"n_objects": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            small_storm(**kwargs)
