"""Tests for the gateway trace generator (Sections 4.2/6.3 calibration)."""

import pytest

from repro.errors import ReproError
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import (
    GatewayTraceConfig,
    generate_columnar_trace,
)
from repro.workloads.objects import (
    MEDIAN_OBJECT_SIZE,
    PERF_OBJECT_SIZE,
    generate_corpus,
    sample_object_size,
)


@pytest.fixture(scope="module")
def trace():
    return generate_columnar_trace(
        GatewayTraceConfig(scale=400), derive_rng(77, "trace")
    )


@pytest.fixture(scope="module")
def requests(trace):
    return list(trace.iter_requests())


class TestScaling:
    def test_request_count(self, trace, requests):
        assert trace.config.n_requests == 7_100_000 // 400
        assert len(requests) == trace.config.n_requests

    def test_user_and_cid_universes(self, trace, requests):
        assert len({r.user for r in requests}) <= trace.config.n_users
        assert len({r.cid_index for r in requests}) <= trace.config.n_cids

    @pytest.mark.parametrize("scale", [0, -5, 7_100_001])
    def test_scale_outside_the_day_is_refused(self, scale):
        # 0 used to divide by zero in n_users, the others generated an
        # empty day that divided by zero in ReplayResult.nginx_share
        with pytest.raises(ReproError, match="scale must be between 1 and"):
            GatewayTraceConfig(scale=scale)

    def test_the_one_request_day_is_the_largest_scale(self):
        config = GatewayTraceConfig(scale=7_100_000)
        trace = generate_columnar_trace(config, derive_rng(77, "trace"))
        assert len(trace) == config.n_requests == 1


class TestStructure:
    def test_sorted_by_time_within_day(self, requests):
        times = [r.timestamp for r in requests]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] < 86_400

    def test_us_users_dominate(self, requests):
        from collections import Counter

        counts = Counter(r.country for r in requests)
        ordered = [country for country, _ in counts.most_common()]
        assert ordered[0] == "US"
        assert ordered[1] == "CN"

    def test_pinned_share_near_paper(self, requests):
        pinned = sum(1 for r in requests if r.pinned) / len(requests)
        assert abs(pinned - 0.402) < 0.05

    def test_pinned_flag_consistent_with_set(self, trace, requests):
        for request in requests[:2000]:
            assert request.pinned == (request.cid_index < trace.n_pinned)

    def test_referral_shares(self, requests):
        referred = [r for r in requests if r.referrer is not None]
        assert abs(len(referred) / len(requests) - 0.518) < 0.05
        semi = [r for r in referred if r.referrer.startswith("site-")]
        assert abs(len(semi) / len(referred) - 0.706) < 0.05
        assert len({r.referrer for r in semi}) <= 72

    def test_diurnal_variation(self, requests):
        from collections import Counter

        hours = Counter(int(r.timestamp // 3600) for r in requests)
        assert max(hours.values()) > 1.3 * min(hours.values())

    def test_popularity_is_skewed(self, requests):
        from collections import Counter

        counts = Counter(r.cid_index for r in requests)
        top = sum(count for _, count in counts.most_common(len(counts) // 100))
        assert top > 0.1 * len(requests)  # top 1% of CIDs >10% of requests


class TestObjectSizes:
    def test_median_near_paper(self):
        rng = derive_rng(5, "sizes")
        samples = sorted(sample_object_size(rng) for _ in range(20_000))
        median = samples[len(samples) // 2]
        assert abs(median - MEDIAN_OBJECT_SIZE) / MEDIAN_OBJECT_SIZE < 0.25

    def test_fraction_above_100kb(self):
        rng = derive_rng(6, "sizes")
        samples = [sample_object_size(rng) for _ in range(20_000)]
        above = sum(1 for s in samples if s > 100 * 1024) / len(samples)
        assert abs(above - 0.791) < 0.05

    def test_mean_near_paper(self):
        # 6.57 TB / 7.1 M requests ≈ 0.92 MB; object-level mean is close.
        rng = derive_rng(7, "sizes")
        samples = [sample_object_size(rng) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert 0.5e6 < mean < 1.5e6

    def test_sizes_positive_and_bounded(self):
        rng = derive_rng(8, "sizes")
        for _ in range(1000):
            size = sample_object_size(rng, max_size=10**6)
            assert 1 <= size <= 10**6


class TestCorpus:
    def test_fixed_size_corpus(self):
        corpus = generate_corpus(5, derive_rng(1, "c"), size=PERF_OBJECT_SIZE)
        assert all(len(obj) == PERF_OBJECT_SIZE for obj in corpus)

    def test_objects_are_distinct(self):
        corpus = generate_corpus(20, derive_rng(2, "c"), size=1000)
        assert len(set(corpus)) == 20

    def test_variable_sizes(self):
        corpus = generate_corpus(50, derive_rng(3, "c"))
        assert len({len(obj) for obj in corpus}) > 10
