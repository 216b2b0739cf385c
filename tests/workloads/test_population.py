"""Tests for the synthetic peer population (Section 5 calibration)."""

import pytest

from repro.measurement.analysis import (
    as_distribution,
    cloud_distribution,
    country_distribution,
    multihoming_share,
    peers_per_ip_cdf,
    top_as_cumulative_share,
)
from repro.simnet.latency import PeerClass
from repro.utils.rng import derive_rng
from repro.workloads.population import (
    CHURN_MEDIAN_MIN,
    PopulationConfig,
    generate_population,
)


@pytest.fixture(scope="module")
def population():
    return generate_population(
        PopulationConfig(n_peers=12_000), derive_rng(99, "test-pop")
    )


@pytest.fixture(scope="module")
def geo(population):
    return population.registries()[0]


class TestDeterminism:
    def test_same_seed_same_population(self):
        config = PopulationConfig(n_peers=200)
        a = generate_population(config, derive_rng(5, "x"))
        b = generate_population(config, derive_rng(5, "x"))
        assert a.peer_ids_at(range(len(a))) == b.peer_ids_at(range(len(b)))
        assert a.peer_ips() == b.peer_ips()

    def test_different_seed_differs(self):
        config = PopulationConfig(n_peers=200)
        a = generate_population(config, derive_rng(5, "x"))
        b = generate_population(config, derive_rng(6, "x"))
        assert a.peer_ips() != b.peer_ips()


class TestGeography:
    def test_us_and_cn_lead(self, population, geo):
        shares = country_distribution(population.peer_ips(), geo)
        ordered = list(shares)
        assert ordered[0] == "US"
        assert ordered[1] == "CN"
        assert abs(shares["US"] - 0.285) < 0.04
        assert abs(shares["CN"] - 0.242) < 0.04

    def test_many_countries(self, population, geo):
        shares = country_distribution(population.peer_ips(), geo)
        assert len(shares) > 100

    def test_multihoming_near_paper(self, population, geo):
        share = multihoming_share(population.peer_ips(), geo)
        assert 0.04 < share < 0.14  # paper: 8.8%

    def test_every_peer_has_region_and_country(self, population):
        for index in range(500):
            assert population.country_at(index)
            assert population.region_at(index) is not None


class TestAsStructure:
    def test_top_as_is_chinanet(self, population, geo):
        rows = as_distribution(population.all_ips(), geo)
        assert rows[0].asn == 4134
        assert abs(rows[0].share - 0.189) < 0.04

    def test_top10_and_top100_shares(self, population, geo):
        rows = as_distribution(population.all_ips(), geo)
        assert 0.55 < top_as_cumulative_share(rows, 10) < 0.75
        assert 0.84 < top_as_cumulative_share(rows, 100) < 0.96

    def test_registry_knows_as_metadata(self, geo):
        info = geo.as_info(4134)
        assert info is not None
        assert "CHINANET" in info.name
        assert info.rank == 76


class TestIpStructure:
    def test_more_ips_than_peers(self, population):
        # Paper: 464k IPs vs 199k peers.
        assert len(population.all_ips()) > len(population)

    def test_mega_ips_exist(self, population):
        cdf = peers_per_ip_cdf(population.peer_ips())
        assert cdf.xs[-1] > 200  # at this scale the top IP hosts hundreds

    def test_most_ips_single_peer(self, population):
        cdf = peers_per_ip_cdf(population.peer_ips())
        assert cdf.probability_at(1) > 0.9


class TestReachabilityAndClass:
    def test_mixture_fractions(self, population):
        counts = {"reliable": 0, "never": 0, "churning": 0}
        for index in range(len(population)):
            counts[population.reachability_at(index)] += 1
        total = len(population)
        assert 0.25 < counts["never"] / total < 0.40  # ~1/3
        assert 0.005 < counts["reliable"] / total < 0.04  # ~1.4%

    def test_cloud_peers_are_datacenter_class(self, population):
        cloudy = [
            index for index in range(len(population))
            if population.cloud_at(index) is not None
        ]
        assert cloudy
        assert all(
            population.peer_class_at(index) == PeerClass.DATACENTER for index in cloudy
        )

    def test_cloud_share_small(self, population):
        rows, non_cloud = cloud_distribution(
            population.all_ips(), population.registries()[1]
        )
        assert non_cloud.share > 0.96  # paper: 97.71%

    def test_churn_models_follow_country_table(self, population):
        for index in range(2000):
            country = population.country_at(index)
            if country in CHURN_MEDIAN_MIN:
                expected = CHURN_MEDIAN_MIN[country] * 60
                assert population.churn_model_at(index).median_session_s == expected

    def test_hk_churns_faster_than_de(self):
        assert CHURN_MEDIAN_MIN["DE"] > 2 * CHURN_MEDIAN_MIN["HK"]

    def test_agent_versions_assigned(self, population):
        versions = {population.agent_at(index) for index in range(1000)}
        assert any(v.startswith("go-ipfs") for v in versions)
