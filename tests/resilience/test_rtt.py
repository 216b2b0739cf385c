"""Tests for the online RTT estimator and adaptive deadlines."""

import pytest

from repro.errors import ReproError
from repro.resilience import RttEstimator
from repro.resilience.rtt import WARMUP, WINDOW

EU = "eu_central_1"
US = "us_west_1"


def warmed(key=EU, samples=(0.1, 0.1, 0.1, 0.1, 0.1)):
    estimator = RttEstimator()
    for sample in samples:
        estimator.observe(key, sample)
    return estimator


class TestConfig:
    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError):
            RttEstimator().observe(EU, -0.1)


class TestWarmup:
    def test_cold_estimator_returns_the_default(self):
        estimator = RttEstimator()
        assert estimator.deadline_s(EU, 10.0) == 10.0
        assert estimator.deadline_s(EU, None) is None
        assert estimator.hedge_delay_s(EU, 2.0) == 2.0

    def test_below_warmup_still_returns_the_default(self):
        estimator = warmed(samples=(0.1,) * (WARMUP - 1))
        assert estimator.deadline_s(EU, 10.0) == 10.0

    def test_warm_region_estimates(self):
        estimator = warmed()
        assert estimator.deadline_s(EU, 10.0) != 10.0

    def test_cold_region_falls_back_to_the_global_aggregate(self):
        estimator = warmed(key=EU)
        # US never produced a sample; the aggregate (keyed None) is warm
        # because every observation also feeds it.
        assert estimator.deadline_s(US, 10.0) == estimator.deadline_s(EU, 10.0)
        assert estimator.deadline_s(US, 10.0) != 10.0


class TestDeadline:
    def test_deadline_is_multiplier_times_estimate(self):
        # Constant 1 s samples: ewma == p95 == 1.0, so deadline = 3.0.
        estimator = warmed(samples=(1.0,) * 8)
        assert estimator.deadline_s(EU, 10.0) == pytest.approx(3.0)

    def test_deadline_clamped_below(self):
        estimator = warmed(samples=(0.01,) * 8)  # 3x estimate ~ 0.03
        assert estimator.deadline_s(EU, 10.0) == 1.0

    def test_deadline_clamped_above(self):
        estimator = warmed(samples=(20.0,) * 8)
        assert estimator.deadline_s(EU, 99.0) == 10.0

    def test_spread_dominates_a_low_ewma(self):
        # Mostly fast with a slow tail: p95 pulls the deadline up even
        # though the EWMA stays near the fast mode.
        samples = [0.05] * 19 + [2.0]
        estimator = warmed(samples=samples)
        assert estimator.deadline_s(EU, 10.0) > 3 * 0.1

    def test_regions_are_independent_once_warm(self):
        estimator = warmed(key=EU, samples=(0.05,) * 8)
        for _ in range(8):
            estimator.observe(US, 2.0)
        assert estimator.deadline_s(US, 10.0) > estimator.deadline_s(EU, 10.0)

    def test_window_is_bounded(self):
        estimator = warmed(samples=(5.0,) * 4)
        for _ in range(WINDOW):
            estimator.observe(EU, 0.1)
        # The 5 s samples have been evicted from the window; only the
        # EWMA remembers them, decaying toward 0.1.
        state = estimator._by_key[EU]
        assert list(state.window) == [0.1] * WINDOW


class TestHedgeDelay:
    def test_hedge_delay_tracks_the_high_percentile(self):
        estimator = warmed(samples=(1.0,) * 8)
        assert estimator.hedge_delay_s(EU, 9.0) == pytest.approx(1.0)

    def test_hedge_delay_has_a_floor(self):
        estimator = warmed(samples=(0.01,) * 8)
        assert estimator.hedge_delay_s(EU, 9.0) == 0.25

    def test_samples_observed_counter(self):
        estimator = warmed(samples=(0.1,) * 7)
        assert estimator.samples_observed == 7
