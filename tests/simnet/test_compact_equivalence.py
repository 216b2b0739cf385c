"""The differential harness: compact worlds == legacy worlds.

``build_compact_world`` promises to build *the same world*
``build_scenario`` builds — same routing tables, same address books,
same churn schedules, same protocol behavior — while holding peers as
array rows until protocol code touches them.
This suite is the proof:

- structural equality, unmaterialized: bootstrap set, online flags,
  and per-peer routing-table membership straight from the flat arrays;
- structural equality, materialized: force every peer into existence
  and compare the real ``RoutingTable``/``SimHost`` object graphs
  attribute by attribute (bucket layouts included);
- behavioral equality: run churn on both kernels and compare the full
  ``(time, peer, online)`` transition logs;
- protocol byte-identity: drive the actual crawler + prober campaign
  over legacy and compact worlds and compare exported trace digests
  against a pinned golden hash.

Regenerate GOLDEN_CRAWL_TRACE_SHA256 with:

    PYTHONPATH=src python -m tests.simnet.test_compact_equivalence
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.obs import Observability
from repro.simnet.compact import build_compact_world
from repro.tools.export import export_trace
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig, generate_population

N_PEERS = 300
SEED = 42

#: sha256 of the exported event trace of a 1 h crawl+probe campaign
#: over the 300-peer seed-42 world. The legacy scenario and the compact
#: world must both produce exactly this file.
GOLDEN_CRAWL_TRACE_SHA256 = (
    "934037dc54cd32f2de0d9d3dddeae0ebb821c364f20ffb1d7f2bfb4da1c25a4e"
)


def _populations(n_peers: int = N_PEERS, seed: int = SEED):
    config = PopulationConfig(n_peers=n_peers)
    legacy = generate_population(config, derive_rng(seed, "population"))
    compact = generate_compact_population(config, derive_rng(seed, "population"))
    return legacy, compact


@pytest.fixture(scope="module")
def populations():
    return _populations()


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(seed=SEED),
        ScenarioConfig(seed=SEED, with_churn=False),
        ScenarioConfig(seed=SEED, nat_peers_in_dht=False),
    ],
    ids=["default", "no-churn", "no-nat-servers"],
)
def test_structural_equality(populations, config):
    legacy_pop, compact_pop = populations
    scenario = build_scenario(legacy_pop, config)
    world = build_compact_world(compact_pop, config)

    assert world.bootstrap_ids == scenario.bootstrap_ids
    assert world.materialized == 0, "building must not materialize anyone"

    # Unmaterialized: flags and table membership read from the arrays.
    for node in scenario.backdrop:
        i = world.index_of(node.host.peer_id)
        assert world.online_at(i) == node.host.online
        assert sorted(world.table_peer_ids(i)) == sorted(
            node.routing_table.peers()
        )

    # Materialized: identical object graphs, bucket layouts included.
    world.materialize_all()
    for node in scenario.backdrop:
        i = world.index_of(node.host.peer_id)
        mat = world.node_at(i)
        assert mat.routing_table.peers() == node.routing_table.peers()
        assert (
            mat.routing_table.bucket_sizes()
            == node.routing_table.bucket_sizes()
        )
        host, legacy_host = mat.host, node.host
        assert host.peer_id == legacy_host.peer_id
        assert host.online == legacy_host.online
        assert host.transports == legacy_host.transports
        assert host.nat_private == legacy_host.nat_private
        assert host.agent_version == legacy_host.agent_version
        assert mat.server == node.server


def test_churn_transition_logs_identical(populations):
    """Run six simulated hours of churn on both kernels and compare
    every (time, peer, online) transition."""
    legacy_pop, compact_pop = populations
    config = ScenarioConfig(seed=SEED)
    scenario = build_scenario(legacy_pop, config)
    world = build_compact_world(compact_pop, config)
    world.materialize_all()

    logs = []
    for hosts, sim in (
        ([node.host for node in scenario.backdrop], scenario.sim),
        ([world.host_at(i) for i in range(N_PEERS)], world.sim),
    ):
        log: list[tuple[float, int, bool]] = []
        for index, host in enumerate(hosts):
            host.on_status_change.append(
                lambda online, index=index, log=log, sim=sim: log.append(
                    (sim.now, index, online)
                )
            )
        sim.run(until=6 * 3600.0)
        logs.append(log)
    assert logs[0], "six hours of churn must produce transitions"
    assert logs[0] == logs[1]


def test_churn_past_the_horizon_is_counted_and_frozen(populations):
    """Schedules are pre-drawn to ``churn_horizon_s`` plus one overshoot
    draw: a run inside the horizon never reaches a schedule's end, a
    run past it counts every peer that did and leaves it where its last
    transition put it."""
    _, compact_pop = populations
    config = ScenarioConfig(seed=SEED)
    inside = build_compact_world(compact_pop, config, churn_horizon_s=3600.0)
    inside.sim.run(until=3600.0)
    assert inside.churn_exhausted == 0

    world = build_compact_world(compact_pop, config, churn_horizon_s=600.0)
    initially_online = [world.online_at(i) for i in range(N_PEERS)]
    off, delays = world._churn_off, world._churn_delays
    world.sim.run(until=3600.0)
    ran_out = []
    for index in range(N_PEERS):
        # accumulated as the kernel does, now + delay (3.12's sum() compensates)
        fires_at = 0.0
        for delay in delays[off[index]:off[index + 1]]:
            fires_at += delay
        if off[index + 1] > off[index] and fires_at <= 3600.0:
            ran_out.append(index)
            flips = off[index + 1] - off[index]
            assert world.online_at(index) == initially_online[index] ^ (flips % 2)
    assert 0 < len(ran_out) == world.churn_exhausted
    frozen = [world.online_at(index) for index in ran_out]
    world.sim.run(until=6 * 3600.0)
    assert [world.online_at(index) for index in ran_out] == frozen


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


def test_protocol_run_byte_identical(populations):
    """The pinned golden trace: legacy and compact run the crawler
    campaign to the byte-identical event trace — and so does a compact
    world whose every stack was attached up front, which is what makes
    attaching on the first delivered RPC exact."""
    legacy_pop, compact_pop = populations
    digests = {}
    scenario = build_scenario(legacy_pop, ScenarioConfig(seed=SEED))
    digests["legacy"], legacy_results = _campaign_digest(scenario)
    for arm, eager in (("lazy", False), ("eager", True)):
        world = build_compact_world(compact_pop, ScenarioConfig(seed=SEED))
        if eager:
            world.materialize_all()
        digests[f"compact-{arm}"], results = _campaign_digest(world)
        assert results.timeseries() == legacy_results.timeseries()
        assert results.sessions == legacy_results.sessions
        assert results.uptime_by_peer == legacy_results.uptime_by_peer
        # lazily, only peers that answered an RPC have a node, and the
        # crawler never speaks Bitswap
        assert (world.materialized == N_PEERS) == eager
        assert len(world.engines) == (N_PEERS if eager else 0)
    assert digests == {
        name: GOLDEN_CRAWL_TRACE_SHA256 for name in digests
    }, f"trace digests diverged: {digests}"


if __name__ == "__main__":
    legacy_pop, _ = _populations()
    scenario = build_scenario(legacy_pop, ScenarioConfig(seed=SEED))
    digest, _ = _campaign_digest(scenario)
    print(f"GOLDEN_CRAWL_TRACE_SHA256 = \"{digest}\"")
