"""Capstone integration test: one world, every subsystem, a simulated
day.

Builds a churning world from the calibrated population, then exercises
publication, republishing, retrieval from multiple vantage points, a
gateway bridge, IPNS updates, and the crawler — all against the same
simulation — and checks the cross-subsystem invariants hold.
"""

import pytest

from repro.crawler.crawl import Crawler
from repro.gateway.bridge import GatewayBridge
from repro.gateway.logs import CacheTier
from repro.ipns.resolver import IpnsPublisher, IpnsResolver, install_ipns_validator
from repro.multiformats.peerid import PeerId
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population
from repro.experiments.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def world():
    population = generate_population(
        PopulationConfig(n_peers=250), derive_rng(777, "e2e-pop")
    )
    scenario = build_scenario(
        population,
        ScenarioConfig(seed=777, with_churn=True),
        vantage_regions=["eu_central_1", "us_west_1", "ap_southeast_2"],
    )
    for index in range(len(scenario.world)):
        install_ipns_validator(scenario.world.node_at(index))
    return scenario


def test_full_day_of_operations(world):
    sim = world.sim
    publisher = world.vantage["eu_central_1"]
    reader_us = world.vantage["us_west_1"]
    reader_au = world.vantage["ap_southeast_2"]
    payload_v1 = derive_rng(777, "v1").randbytes(300_000)
    payload_v2 = derive_rng(777, "v2").randbytes(300_000)

    # --- publish v1 + IPNS name, start the republisher -------------------
    ipns_pub = IpnsPublisher(publisher.dht, publisher.keypair)

    def publish_phase():
        yield from publisher.publish_peer_record()
        root, receipt = yield from publisher.add_and_publish(payload_v1)
        assert receipt.peers_stored > 0
        yield from ipns_pub.publish(root)
        return root

    root_v1 = sim.run_process(publish_phase())
    publisher.start_republisher()

    # --- both readers resolve the name and fetch, far apart in time ------
    def read_phase(reader):
        reader.disconnect_all()
        resolver = IpnsResolver(reader.dht)
        root = yield from resolver.resolve(publisher.peer_id)
        data, receipt = yield from reader.retrieve_bytes(root)
        return data, receipt

    data_us, receipt_us = sim.run_process(read_phase(reader_us))
    assert data_us == payload_v1
    assert receipt_us.bitswap_window == pytest.approx(1.0)

    # Half a day of churn passes (records would expire at 24 h without
    # the republisher; at 12 h they must still resolve).
    sim.run(until=sim.now + 12 * 3600)

    data_au, receipt_au = sim.run_process(read_phase(reader_au))
    assert data_au == payload_v1

    # --- mutate the site: IPNS points readers at v2 ----------------------
    def update_phase():
        root2, _ = yield from publisher.add_and_publish(payload_v2)
        yield from ipns_pub.publish(root2)
        return root2

    root_v2 = sim.run_process(update_phase())
    data_new, _ = sim.run_process(read_phase(reader_us))
    assert data_new == payload_v2

    # --- a gateway bridge serves browser users ---------------------------
    bridge = GatewayBridge(reader_au, cache_capacity_bytes=50_000_000)

    def browse():
        first = yield from bridge.get(root_v2)
        second = yield from bridge.get(root_v2)
        return first, second

    first, second = sim.run_process(browse())
    # reader_au may or may not still hold v2 blocks locally; either way
    # the second hit must come from a cache tier.
    assert second.tier in (CacheTier.NGINX, CacheTier.NODE_STORE)
    assert second.latency < first.latency or first.tier != CacheTier.NON_CACHED

    # --- the crawler still sees a healthy network ------------------------
    crawler_host = SimHost(
        PeerId.from_public_key(b"e2e-crawler"), region=Region.EU,
        peer_class=PeerClass.DATACENTER,
    )
    world.net.register(crawler_host)
    crawler = Crawler(sim, world.net, crawler_host, derive_rng(777, "crawl"))

    def crawl():
        return (yield from crawler.crawl(world.bootstrap_ids))

    result = sim.run_process(crawl())
    assert len(result.peers_seen) > 0.5 * len(world.world)
    assert 0.0 < result.dialable_fraction < 1.0

    # --- invariants across everything ------------------------------------
    # Every block any node holds verifies against its CID.
    for node in (publisher, reader_us, reader_au):
        for cid in node.blockstore.cids():
            assert node.blockstore.get(cid).verify()
    # v1 and v2 have different CIDs but the IPNS name never changed.
    assert root_v1 != root_v2
