"""Counter-coherence invariants on :class:`NetworkStats`.

The observability layer mirrors these counters into metrics and the
chaos report prints them, so they must stay mutually consistent — not
just individually monotonic. Asserted on a clean experiment and under
a 10 % RPC-loss chaos level (the regime where the seed's accounting
used to double-count late replies). The dial identity assumes dialers
stay online, which holds here: only the always-online vantage nodes
dial.
"""

import pytest

from repro.experiments.chaos import ChaosConfig, play_level, run_chaos
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.simnet.network import NetworkStats
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population


def assert_invariants(stats: NetworkStats) -> None:
    assert stats.dials_attempted == stats.dials_succeeded + stats.dials_failed
    assert stats.rpcs_completed + stats.rpcs_timed_out <= stats.rpcs_sent
    assert (stats.bytes_transferred > 0) == (stats.rpcs_completed > 0)


@pytest.fixture(scope="module")
def clean_run_stats():
    population = generate_population(
        PopulationConfig(n_peers=150), derive_rng(21, "invariants-pop")
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=21, with_churn=False),
        vantage_regions=["eu_central_1", "us_west_1"],
    )
    run_perf_experiment(
        scenario,
        PerfConfig(rounds=1, seed=21),
    )
    # Let in-flight dials settle: the dial identity talks about settled
    # attempts, not ones abandoned mid-handshake when the driver exits.
    scenario.sim.run(until=scenario.sim.now + 300.0)
    return scenario.net.stats


CHAOS = ChaosConfig(
    seed=21, n_peers=100, intensities=(0.1,), retrievals_per_level=6,
)


@pytest.fixture(scope="module")
def chaos_levels():
    return run_chaos(CHAOS)


@pytest.fixture(scope="module")
def settled_chaos_stats():
    """Each arm's world at the sweep's one level, run on past its last
    retrieval until in-flight dials and timers have settled."""
    settled = []
    for arm in CHAOS.arms:
        scenario, *_ = play_level(CHAOS, arm, CHAOS.intensities[0])
        scenario.sim.run(until=scenario.sim.now + 300.0)
        settled.append(scenario.net.stats)
    return settled


class TestCleanRun:
    def test_invariants(self, clean_run_stats):
        assert_invariants(clean_run_stats)

    def test_run_actually_exercised_the_network(self, clean_run_stats):
        assert clean_run_stats.rpcs_sent > 0
        assert clean_run_stats.dials_attempted > 0
        assert clean_run_stats.bytes_transferred > 0

    def test_clean_run_has_no_faults(self, clean_run_stats):
        assert clean_run_stats.faults_injected == 0


class TestChaosSweep:
    def test_invariants_hold_under_rpc_loss(self, settled_chaos_stats):
        for stats in settled_chaos_stats:
            assert_invariants(stats)

    def test_faults_were_actually_injected(self, settled_chaos_stats):
        for stats in settled_chaos_stats:
            assert stats.faults_injected > 0

    def test_losses_surface_as_timeouts_not_completions(self, settled_chaos_stats):
        """Lost RPCs must show up as the sent/completed gap."""
        for stats in settled_chaos_stats:
            assert stats.rpcs_completed < stats.rpcs_sent
            assert stats.rpcs_timed_out > 0

    def test_level_snapshot_matches_reported_fields(self, chaos_levels):
        for level in chaos_levels:
            assert level.stats.rpcs_timed_out == level.rpcs_timed_out
            assert level.stats.retries_attempted == level.retries_attempted
            assert level.stats.faults_injected == level.faults_injected
