"""Integration tests for the deployment and gateway experiments."""

import dataclasses
from collections import Counter

import pytest

from repro.crawler.crawl import CrawlResult
from repro.experiments import figures
from repro.experiments.datasets import gateway_dataset
from repro.experiments.deployment import (
    CrawlCampaignConfig,
    CrawlCampaignResults,
    analyze_population,
    observed_reliability,
    run_crawl_timeseries,
)
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.gateway.replay import request_latencies, window_slices
from repro.utils.rng import derive_rng
from repro.utils.stats import pearson_correlation
from repro.validation.compare import Grade
from repro.validation.targets import TARGETS_BY_KEY
from repro.workloads.population import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def campaign():
    population = generate_population(
        PopulationConfig(n_peers=150), derive_rng(80, "dep-pop")
    )
    scenario = build_scenario(population, ScenarioConfig(seed=80))
    config = CrawlCampaignConfig(
        crawl_interval_s=1800.0, duration_s=2 * 3600.0, bucket_queries=6
    )
    return scenario, run_crawl_timeseries(scenario.world, config)


class TestCrawlCampaign:
    def test_multiple_crawls_completed(self, campaign):
        _, results = campaign
        assert len(results.crawls) >= 3

    def test_timeseries_consistent(self, campaign):
        _, results = campaign
        for start, total, dialable, undialable in results.timeseries():
            assert total == dialable + undialable
            assert total > 0

    def test_sessions_extracted(self, campaign):
        _, results = campaign
        assert results.sessions
        for session in results.sessions[:50]:
            assert session.length >= 0

    def test_uptime_fractions_bounded(self, campaign):
        _, results = campaign
        assert results.uptime_by_peer
        assert all(0 <= u <= 1.0 + 1e-9 for u in results.uptime_by_peer.values())

    def test_undialable_fraction_is_the_mean_over_non_empty_crawls(self, campaign):
        scenario, results = campaign
        shares = [u / total for _, total, _, u in results.timeseries()]
        assert results.undialable_fraction() == sum(shares) / len(shares)
        # a crawl that saw nobody (every bootstrap peer offline at that
        # instant) neither counts in the mean nor divides it
        padded = dataclasses.replace(
            results, crawls=[CrawlResult(0.0), *results.crawls]
        )
        assert padded.undialable_fraction() == results.undialable_fraction()
        fig04a = next(f for f in figures.FIGURES if f.name == "fig04a")
        _, claims = fig04a.build((scenario, padded))
        measured = {claim.key: claim.measured for claim in claims}
        assert measured["peer.undialable_fraction"] == results.undialable_fraction()

    def test_undialable_fraction_is_undefined_when_no_crawl_saw_a_peer(self):
        assert CrawlCampaignResults().undialable_fraction() is None
        assert CrawlCampaignResults([CrawlResult(0.0)]).undialable_fraction() is None
        # ... and an undefined quantity FAILs its claim
        target = TARGETS_BY_KEY["peer.undialable_fraction"]
        assert target.grade(None) == (None, Grade.FAIL)

    def test_reliability_split(self, campaign):
        _, results = campaign
        reliable, intermittent, never = observed_reliability(results)
        assert reliable | intermittent | never == set(results.uptime_by_peer)

    def test_churn_summary(self, campaign):
        _, results = campaign
        summary = results.churn_summary()
        assert summary.session_count == len(results.sessions)
        assert summary.median_s > 0


class TestPopulationAnalysis:
    def test_analysis_fields(self):
        population = generate_population(
            PopulationConfig(n_peers=3000), derive_rng(81, "ana-pop")
        )
        analysis = analyze_population(population)
        assert analysis.country_shares
        assert analysis.as_rows[0].share > 0.1
        assert 0 < analysis.top10_as_share <= 1
        assert analysis.non_cloud.share > 0.9
        assert sum(analysis.reliable_by_country.values()) < 0.05
        assert 0.2 < sum(analysis.never_by_country.values()) < 0.45


class TestGatewayExperiment:
    @pytest.fixture(scope="class")
    def day(self):
        return gateway_dataset(500, seed=99)

    def test_log_covers_trace(self, day):
        trace, result = day
        assert result.n_requests == len(trace)
        assert len(result.node_store_latencies) == result.tier_counts["node_store"]
        assert len(result.non_cached_latencies) == result.tier_counts["non_cached"]

    def test_tier_shares_sum_to_one(self, day):
        trace, result = day
        assert sum(result.tier_counts.values()) == len(trace)
        assert sum(result.tier_bytes.values()) == trace.total_bytes

    def test_latency_ordering(self, day):
        _, result = day
        assert result.tier_percentile("nginx", 50) == 0.0
        assert result.tier_percentile("node_store", 50) < 0.024
        assert result.tier_percentile("non_cached", 50) > 1.0

    def test_combined_hit_rate_high(self, day):
        assert day[1].combined_hit_rate > 0.6

    def test_user_shares_us_led(self, day):
        trace, _ = day
        countries = Counter(trace.user_countries[user] for user in trace.user_ids)
        assert countries.most_common(1)[0][0] == "US"

    def test_series_cover_day(self, day):
        trace, _ = day
        assert len(window_slices(trace.timestamps, 3600.0)) >= 20  # nearly every hour busy

    def test_correlation_small(self, day):
        trace, result = day
        _, latencies = request_latencies(trace, result.config)
        sizes = [float(trace.cid_sizes[cid]) for cid in trace.cid_ids]
        assert abs(pearson_correlation(sizes, latencies)) < 0.4

    def test_usage_summary(self, day):
        trace, result = day
        assert result.n_requests == len(trace)
        assert result.user_count > 0
        assert result.total_bytes > 0
