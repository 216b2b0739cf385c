"""Degraded-mode gateway tests: stale nginx cache entries are
revalidated upstream and — when the upstream retrieval fails and stale
serving is on — served anyway with the ``degraded`` flag set."""

import pytest

from repro.dht.bootstrap import populate_routing_tables
from repro.gateway.bridge import GatewayBridge
from repro.gateway.logs import CacheTier
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng

TTL = 300.0


@pytest.fixture()
def world():
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(94, "net"))
    rng = derive_rng(94, "world")
    bridge_node = IpfsNode(
        sim, net, derive_rng(94, "gwnode"), region=Region.NA_WEST,
        peer_class=PeerClass.DATACENTER,
        config=NodeConfig(protection="resilient"),
    )
    publisher = IpfsNode(sim, net, derive_rng(94, "pub"), region=Region.EU)
    backdrop = [
        IpfsNode(sim, net, derive_rng(94, "bg", str(i)),
                 region=rng.choice(list(Region)))
        for i in range(25)
    ]
    populate_routing_tables(
        [n.dht for n in [bridge_node, publisher, *backdrop]], rng
    )
    data = derive_rng(94, "content").randbytes(100_000)

    def publish():
        yield from publisher.publish_peer_record()
        root, _ = yield from publisher.add_and_publish(data)
        return root

    root = sim.run_process(publish())
    return sim, bridge_node, publisher, root, data


def make_bridge(node, **kwargs) -> GatewayBridge:
    return GatewayBridge(node, cache_capacity_bytes=10_000_000, **kwargs)


def get(sim, bridge, cid):
    def proc():
        return (yield from bridge.get(cid))

    return sim.run_process(proc())


class TestStaleServing:
    def test_fresh_entry_within_ttl_served_from_nginx(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL)
        get(sim, bridge, root)
        response = get(sim, bridge, root)
        assert response.tier == CacheTier.NGINX
        assert not response.degraded
        assert bridge.stale_served == 0

    def test_stale_entry_revalidates_upstream_when_healthy(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL)
        get(sim, bridge, root)
        sim.run(until=sim.now + TTL + 1.0)
        response = get(sim, bridge, root)
        # A healthy upstream refreshes the entry: a real retrieval ran
        # and the next hit is fresh nginx again.
        assert response.tier == CacheTier.NON_CACHED
        assert not response.degraded
        assert get(sim, bridge, root).tier == CacheTier.NGINX

    def test_failed_revalidation_serves_stale_degraded(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL)
        get(sim, bridge, root)
        sim.run(until=sim.now + TTL + 1.0)
        # The only real holder vanishes and the bridge's connections
        # drop: revalidation cannot succeed.
        publisher.host.set_online(False)
        node.disconnect_all()
        response = get(sim, bridge, root)
        assert response.degraded
        assert response.tier == CacheTier.NGINX
        assert response.size == len(data)
        assert bridge.stale_served == 1
        assert node.resilience.stats.stale_served == 1

    def test_without_serve_stale_the_failure_surfaces(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL, serve_stale=False)
        get(sim, bridge, root)
        sim.run(until=sim.now + TTL + 1.0)
        publisher.host.set_online(False)
        node.disconnect_all()
        with pytest.raises(Exception):
            get(sim, bridge, root)
        assert bridge.stale_served == 0

    def test_serve_stale_defaults_to_the_resilience_flag(self, world):
        sim, node, publisher, root, data = world
        assert make_bridge(node).serve_stale  # resilient rung -> stale on
        assert not make_bridge(publisher).serve_stale  # stock node

    def test_no_ttl_entries_never_go_stale(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node)  # stock: cache_ttl_s=None
        get(sim, bridge, root)
        sim.run(until=sim.now + 10 * TTL)
        publisher.host.set_online(False)
        response = get(sim, bridge, root)
        assert response.tier == CacheTier.NGINX
        assert not response.degraded

    def test_entry_exactly_at_ttl_is_still_fresh(self, world):
        # The boundary is inclusive: age == TTL serves from nginx
        # without revalidating; one tick later it is stale.
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL)
        get(sim, bridge, root)
        cached_at = bridge._cached_at[root]
        sim.run(until=cached_at + TTL)
        assert sim.now - cached_at == TTL
        response = get(sim, bridge, root)
        assert response.tier == CacheTier.NGINX
        assert not response.degraded

    def test_stale_served_counters_accumulate(self, world):
        sim, node, publisher, root, data = world
        bridge = make_bridge(node, cache_ttl_s=TTL)
        get(sim, bridge, root)
        publisher.host.set_online(False)
        for expected in (1, 2):
            sim.run(until=bridge._cached_at[root] + TTL + 1.0)
            node.disconnect_all()
            response = get(sim, bridge, root)
            assert response.degraded
            assert bridge.stale_served == expected
            assert node.resilience.stats.stale_served == expected


class TestCachedAtEviction:
    def test_evicted_objects_drop_their_timestamps(self, world):
        # Regression: _cached_at used to grow with every distinct CID
        # ever cached; eviction now prunes it in lockstep.
        sim, node, publisher, root, data = world
        bridge = GatewayBridge(node, cache_capacity_bytes=150_000,
                               cache_ttl_s=TTL)

        def publish(index):
            def proc():
                payload = derive_rng(94, "extra", str(index)).randbytes(90_000)
                extra_root, _ = yield from publisher.add_and_publish(payload)
                return extra_root
            return sim.run_process(proc())

        roots = [publish(index) for index in range(4)]
        for extra in roots:
            get(sim, bridge, extra)  # 90 KB each into a 150 KB cache
        assert bridge.web_cache.evictions >= 3
        # The side table tracks exactly the entries still cached.
        assert set(bridge._cached_at) == set(bridge.web_cache._entries)
        assert len(bridge._cached_at) < len(roots)

    def test_oversized_objects_leave_no_timestamp(self, world):
        sim, node, publisher, root, data = world
        bridge = GatewayBridge(node, cache_capacity_bytes=10_000,
                               cache_ttl_s=TTL)
        get(sim, bridge, root)  # 100 KB object, 10 KB cache: declined
        assert root not in bridge.web_cache
        assert root not in bridge._cached_at
