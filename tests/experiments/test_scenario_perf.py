"""Integration tests for scenario building and the perf experiment."""

import pytest

from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import AWS_REGIONS, ScenarioConfig, build_scenario
from repro.simnet.compact import N_BOOTSTRAP
from repro.simnet.latency import AWS_REGION_MAP, PeerClass
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def small_population():
    return generate_population(
        PopulationConfig(n_peers=350), derive_rng(70, "scn-pop")
    )


@pytest.fixture(scope="module")
def scenario(small_population):
    return build_scenario(
        small_population,
        ScenarioConfig(seed=70, with_churn=False),
        vantage_regions=AWS_REGIONS,
    )


class TestScenarioBuild:
    def test_every_peer_becomes_a_host(self, small_population, scenario):
        assert len(scenario.world) == len(small_population.peers)
        for spec in small_population.peers[:50]:
            host = scenario.net.host(spec.peer_id)
            assert host is scenario.world.host_at(spec.index)
            assert host.region == spec.region

    def test_never_reachable_peers_are_undialable(self, small_population, scenario):
        for spec in small_population.peers[:100]:
            host = scenario.world.host_at(spec.index)
            if spec.reachability == "never":
                assert not host.reachable

    def test_vantage_nodes_in_right_regions(self, scenario):
        for name, node in scenario.vantage.items():
            assert node.host.region == AWS_REGION_MAP[name]
            assert node.host.peer_class == PeerClass.DATACENTER

    def test_bootstrap_peers_selected(self, scenario):
        assert len(scenario.bootstrap_ids) == N_BOOTSTRAP
        for peer_id in scenario.bootstrap_ids:
            assert scenario.net.host(peer_id) is not None

    def test_routing_tables_populated(self, scenario):
        filled = [len(scenario.world.node_at(i).routing_table) for i in range(50)]
        assert all(size > 10 for size in filled)

    def test_country_lookup(self, small_population, scenario):
        spec = small_population.peers[0]
        assert scenario.world.country_of(spec.peer_id) == spec.country

    def test_nat_peers_as_clients_option(self, small_population):
        scenario = build_scenario(
            small_population,
            ScenarioConfig(seed=71, nat_peers_in_dht=False, with_churn=False),
        )
        never_ids = {
            spec.peer_id
            for spec in small_population.peers
            if spec.reachability == "never"
        }
        for index in range(40):
            assert not never_ids & set(scenario.world.table_peer_ids(index))


class TestPerfExperiment:
    @pytest.fixture(scope="class")
    def results(self, small_population):
        scenario = build_scenario(
            small_population,
            ScenarioConfig(seed=72),
            vantage_regions=AWS_REGIONS,
        )
        return run_perf_experiment(scenario, PerfConfig(rounds=2, seed=72))

    def test_operation_counts(self, results):
        counts = results.operation_counts()
        assert set(counts) == set(AWS_REGIONS)
        for pubs, gets in counts.values():
            assert pubs == 2
            assert gets <= 2 * (len(AWS_REGIONS) - 1)

    def test_no_failures(self, results):
        assert results.failures == 0

    def test_percentile_table_structure(self, results):
        table = results.latency_percentiles()
        for region, row in table.items():
            assert len(row["publication"]) == 3
            assert len(row["retrieval"]) == 3
            p50, p90, p95 = row["publication"]
            assert p50 <= p90 <= p95

    def test_publication_slower_than_retrieval(self, results):
        pubs = [r.total_duration for r in results.all_publications()]
        rets = [r.total_duration for r in results.all_retrievals()]
        assert min(pubs) > max(0.0, min(rets))
        assert sum(pubs) / len(pubs) > 3 * sum(rets) / len(rets)

    def test_retrievals_always_pay_bitswap_window(self, results):
        for receipt in results.all_retrievals():
            assert receipt.bitswap_window == pytest.approx(1.0)
            assert not receipt.via_bitswap
