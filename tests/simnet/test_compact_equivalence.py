"""The differential harness: a lazily attached world == an eager one.

``build_compact_world`` keeps peers as array rows until protocol code
touches them. Attaching on first touch must be exact: a world whose
every stack was attached up front (``tests.helpers.materialize_all``)
is the reference. This suite is the proof:

- structural equality: bootstrap set, online flags and per-peer
  routing-table membership read straight from the flat arrays, against
  the materialized ``RoutingTable``/``SimHost`` objects;
- behavioral equality: the churn transition log, against hosts driven
  by :class:`tests.helpers.SessionProcess` — also past the
  pre-drawn horizon, where the world redraws a peer's schedule;
- protocol byte-identity: drive the actual crawler + prober campaign
  over a lazy and an eager world and compare exported trace digests
  against a pinned golden hash.

Regenerate GOLDEN_CRAWL_TRACE_SHA256 with:

    PYTHONPATH=src python -m tests.simnet.test_compact_equivalence
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.scenario import ScenarioConfig
from repro.obs import Observability
from repro.simnet.churn import WORLD_INITIAL_ONLINE_PROBABILITY
from repro.simnet.compact import build_compact_world
from repro.simnet.network import SimHost
from repro.simnet.sim import Simulator
from repro.tools.export import export_trace
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig
from tests.helpers import SessionProcess, materialize_all

N_PEERS = 300
SEED = 42

#: sha256 of the exported event trace of a 1 h crawl+probe campaign
#: over the 300-peer seed-42 world. Recorded on the per-peer object
#: world the builder replaced; the lazy and the eager world must both
#: produce exactly this file.
GOLDEN_CRAWL_TRACE_SHA256 = (
    "934037dc54cd32f2de0d9d3dddeae0ebb821c364f20ffb1d7f2bfb4da1c25a4e"
)


@pytest.fixture(scope="module")
def population():
    return generate_compact_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(SEED, "population")
    )


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(seed=SEED),
        ScenarioConfig(seed=SEED, with_churn=False),
        ScenarioConfig(seed=SEED, nat_peers_in_dht=False),
    ],
    ids=["default", "no-churn", "no-nat-servers"],
)
def test_structural_equality(population, config):
    world = build_compact_world(population, config)
    assert world.materialized == 0, "building must not materialize anyone"
    online = [world.online_at(i) for i in range(N_PEERS)]
    tables = [world.table_peer_ids(i) for i in range(N_PEERS)]
    bootstrap = list(world.bootstrap_ids)

    materialize_all(world)
    assert world.bootstrap_ids == bootstrap
    for i in range(N_PEERS):
        node, reach = world.node_at(i), population.reachability_at(i)
        assert sorted(node.routing_table.peers()) == sorted(tables[i])
        host = node.host
        assert host.peer_id == population.peer_id_at(i)
        assert host.online == online[i]
        assert host.nat_private == (reach == "never")
        assert host.agent_version == population.agent_at(i)
        assert node.server == (config.nat_peers_in_dht or reach != "never")


def _churn_log(population, churn_horizon_s: float, until: float):
    """``(time, peer, online)`` transitions of a world built with
    ``churn_horizon_s``, and of one ``SessionProcess``-driven host per
    churning peer, started in peer order on the same stream."""
    world = build_compact_world(
        population, ScenarioConfig(seed=SEED), churn_horizon_s=churn_horizon_s
    )
    reference, reference_hosts = Simulator(), []
    for index in range(N_PEERS):
        host = SimHost(population.peer_id_at(index))
        reference_hosts.append(host)
        if population.reachability_at(index) == "churning":
            SessionProcess(
                reference, host, population.churn_model_at(index),
                derive_rng(SEED, "churn", str(index)),
                initial_online_probability=WORLD_INITIAL_ONLINE_PROBABILITY,
            )
    logs = []
    for sim, hosts in (
        (world.sim, [world.host_at(index) for index in range(N_PEERS)]),
        (reference, reference_hosts),
    ):
        log: list[tuple[float, int, bool]] = []
        for index, host in enumerate(hosts):
            host.on_status_change.append(
                lambda online, index=index, log=log, sim=sim: log.append(
                    (sim.now, index, online)
                )
            )
        sim.run(until=until)
        logs.append(log)
    return world, logs


def test_churn_transition_logs_identical(population):
    """Six simulated hours inside the pre-drawn horizon."""
    _, (world_log, reference_log) = _churn_log(population, 24 * 3600.0, 6 * 3600.0)
    assert world_log, "six hours of churn must produce transitions"
    assert world_log == reference_log


def test_churn_past_the_horizon_redraws(population):
    """A 600 s horizon run for 2 h: every peer whose pre-drawn schedule
    ran out redraws it from its own stream and churns on exactly as its
    SessionProcess does."""
    world, (world_log, reference_log) = _churn_log(population, 600.0, 2 * 3600.0)
    assert world._churn_redrawn, "the run must outlive some schedules"
    assert world_log == reference_log


def _campaign_digest(world) -> tuple[str, object]:
    obs = Observability()
    world.net.install_observability(obs)
    results = run_crawl_timeseries(
        world, CrawlCampaignConfig(duration_s=3600.0)
    )
    path = "/tmp/compact-equivalence-trace.jsonl"
    export_trace(obs.tracer, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), results


def test_protocol_run_byte_identical(population):
    """The pinned golden trace: a lazy world and one whose every stack
    was attached up front run the crawler campaign to the byte-identical
    event trace, which is what makes attaching on the first delivered
    RPC exact."""
    digests, runs = {}, {}
    for arm, eager in (("lazy", False), ("eager", True)):
        world = build_compact_world(population, ScenarioConfig(seed=SEED))
        if eager:
            materialize_all(world)
        digests[arm], results = _campaign_digest(world)
        runs[arm] = (results.timeseries(), results.sessions, results.uptime_by_peer)
        # lazily, only peers that answered an RPC have a node, and the
        # crawler never speaks Bitswap
        assert (world.materialized == N_PEERS) == eager
        assert len(world.engines) == (N_PEERS if eager else 0)
    assert runs["lazy"] == runs["eager"]
    assert digests == {
        name: GOLDEN_CRAWL_TRACE_SHA256 for name in digests
    }, f"trace digests diverged: {digests}"


if __name__ == "__main__":
    world = build_compact_world(
        generate_compact_population(
            PopulationConfig(n_peers=N_PEERS), derive_rng(SEED, "population")
        ),
        ScenarioConfig(seed=SEED),
    )
    digest, _ = _campaign_digest(world)
    print(f"GOLDEN_CRAWL_TRACE_SHA256 = \"{digest}\"")
