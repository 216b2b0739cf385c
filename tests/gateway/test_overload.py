"""Overload-control tests: the miss gate, single-flight coalescing,
shedding and brownout — plus the zero-burst guard proving that a stock
bridge and a stock fleet of one around it replay byte-identically."""

import pytest

from repro.dht.bootstrap import populate_routing_tables
from repro.errors import OverloadError, ReproError
from repro.gateway.bridge import GatewayBridge
from repro.gateway.fleet import GatewayFleet
from repro.gateway.logs import CacheTier
from repro.gateway.overload import (
    MissGate,
    OverloadConfig,
    OverloadStats,
    ProviderHintCache,
)
from repro.node.host import IpfsNode
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


class TestOverloadConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_inflight_misses": 0},
        {"queue_capacity_bytes": 0},
        {"queue_deadline_s": 0.0},
        {"brownout_threshold": 0.0},
        {"brownout_threshold": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            OverloadConfig(**kwargs)


class TestMissGate:
    def make(self, **kwargs):
        sim = Simulator()
        config = OverloadConfig(max_inflight_misses=2, **kwargs)
        stats = OverloadStats()
        return sim, MissGate(sim, config, stats), stats

    def test_admits_up_to_the_bound(self):
        _, gate, stats = self.make()
        assert gate.acquire(100) is None
        assert gate.acquire(100) is None
        assert stats.admitted_immediately == 2
        assert gate.inflight == 2

    def test_overflowing_the_queue_sheds(self):
        _, gate, stats = self.make(queue_capacity_bytes=250)
        gate.acquire(100)
        gate.acquire(100)
        assert gate.acquire(200) is not None  # queued
        with pytest.raises(OverloadError):
            gate.acquire(100)  # 200 + 100 > 250
        assert stats.queued == 1
        assert stats.shed_overflow == 1

    def test_release_hands_the_slot_to_the_queue(self):
        sim, gate, stats = self.make(queue_capacity_bytes=1000)
        gate.acquire(100)
        gate.acquire(100)
        waiter = gate.acquire(300)
        gate.release()
        sim.run()
        assert waiter.done and not waiter.failed
        # The slot transferred: still two in flight, queue drained.
        assert gate.inflight == 2
        assert gate.queued_bytes == 0

    def test_deadline_sheds_a_queued_waiter(self):
        sim, gate, stats = self.make(
            queue_capacity_bytes=1000, queue_deadline_s=5.0
        )
        gate.acquire(100)
        gate.acquire(100)
        waiter = gate.acquire(300)
        sim.run(until=6.0)
        assert waiter.done and isinstance(waiter.exception(), OverloadError)
        assert stats.shed_deadline == 1
        assert gate.queued_bytes == 0
        # A release after the shed frees the slot instead of resolving
        # the dead waiter.
        gate.release()
        assert gate.inflight == 1

    def test_brownout_follows_queue_saturation(self):
        _, gate, _ = self.make(
            queue_capacity_bytes=1000, brownout_threshold=0.5
        )
        gate.acquire(100)
        gate.acquire(100)
        assert not gate.in_brownout
        gate.acquire(400)
        assert gate.saturation == pytest.approx(0.4)
        assert not gate.in_brownout
        gate.acquire(200)
        assert gate.in_brownout


class TestProviderHintCache:
    def test_put_get_and_counters(self):
        cache = ProviderHintCache(capacity=4)
        assert cache.get("cid-a") is None
        cache.put("cid-a", "peer-1")
        assert cache.get("cid-a") == "peer-1"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound(self):
        cache = ProviderHintCache(capacity=2)
        cache.put("a", "p1")
        cache.put("b", "p2")
        cache.get("a")  # refresh
        cache.put("c", "p3")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "p1"
        assert len(cache) == 2

    def test_invalidate(self):
        cache = ProviderHintCache()
        cache.put("a", "p1")
        cache.invalidate("a")
        assert cache.get("a") is None

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            ProviderHintCache(capacity=0)


# ----------------------------------------------------------------------
# bridge-level behaviour on a live simulated world
# ----------------------------------------------------------------------


@pytest.fixture()
def world():
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(95, "net"))
    rng = derive_rng(95, "world")
    bridge_node = IpfsNode(
        sim, net, derive_rng(95, "gwnode"), region=Region.NA_WEST,
        peer_class=PeerClass.DATACENTER,
    )
    publisher = IpfsNode(
        sim, net, derive_rng(95, "pub"), region=Region.EU,
        peer_class=PeerClass.HOME,
    )
    backdrop = [
        IpfsNode(sim, net, derive_rng(95, "bg", str(i)),
                 region=rng.choice(list(Region)))
        for i in range(25)
    ]
    populate_routing_tables(
        [n.dht for n in [bridge_node, publisher, *backdrop]], rng
    )

    def publish():
        yield from publisher.publish_peer_record()
        roots = []
        for index in range(4):
            data = derive_rng(95, "content", str(index)).randbytes(60_000)
            root, _ = yield from publisher.add_and_publish(data)
            roots.append(root)
        return roots

    roots = sim.run_process(publish())
    return sim, bridge_node, publisher, roots


def make_bridge(node, **kwargs) -> GatewayBridge:
    return GatewayBridge(node, cache_capacity_bytes=10_000_000, **kwargs)


class TestCoalescing:
    def test_concurrent_misses_share_one_flight(self, world):
        sim, node, publisher, roots = world
        bridge = make_bridge(node, overload=OverloadConfig())
        responses = []

        def client():
            response = yield from bridge.get(roots[0])
            responses.append(response)

        def driver():
            for _ in range(5):
                sim.spawn(client())
            yield 0.01
            sim.spawn(client())  # joins mid-flight too
            if False:
                yield

        sim.run_process(driver())
        sim.run()
        assert len(responses) == 6
        assert bridge.overload_stats.single_flights == 1
        assert bridge.overload_stats.coalesced_joins == 5
        assert bridge.upstream_launches[roots[0]] == 1
        assert bridge.duplicate_launches == 0
        # Followers are marked; the leader is not.
        assert sum(1 for r in responses if r.coalesced) == 5

    def test_after_completion_new_requests_hit_the_cache(self, world):
        sim, node, publisher, roots = world
        bridge = make_bridge(node, overload=OverloadConfig())

        def proc():
            return (yield from bridge.get(roots[0]))

        first = sim.run_process(proc())
        second = sim.run_process(proc())
        assert first.tier == CacheTier.NON_CACHED
        assert second.tier == CacheTier.NGINX
        assert bridge.overload_stats.single_flights == 1

    def test_stock_bridge_duplicates_concurrent_misses(self, world):
        sim, node, publisher, roots = world
        bridge = make_bridge(node)  # no overload config

        def client():
            yield from bridge.get(roots[0])

        def driver():
            for _ in range(3):
                sim.spawn(client())
            if False:
                yield

        sim.run_process(driver())
        sim.run()
        assert bridge.upstream_launches[roots[0]] == 3
        assert bridge.duplicate_launches == 2


class TestShedding:
    def test_overflow_is_logged_as_shed_tier(self, world):
        sim, node, publisher, roots = world
        bridge = make_bridge(
            node,
            # One slot, and no queue room for a default-sized miss.
            overload=OverloadConfig(max_inflight_misses=1, queue_capacity_bytes=1),
        )
        responses = []

        def client(index):
            response = yield from bridge.get(roots[index])
            responses.append(response)

        def driver():
            for index in range(3):
                sim.spawn(client(index))
            if False:
                yield

        sim.run_process(driver())
        sim.run()
        shed = [r for r in responses if r.shed]
        assert len(shed) == 2
        assert all(r.tier == CacheTier.SHED and r.size == 0 for r in shed)
        shed_entries = [e for e in bridge.log if e.tier == CacheTier.SHED]
        assert len(shed_entries) == 2
        assert all(entry.size == 0 for entry in shed_entries)
        assert bridge.overload_stats.shed == 2

    def test_queued_miss_is_admitted_when_a_slot_frees(self, world):
        sim, node, publisher, roots = world
        bridge = make_bridge(
            node,
            overload=OverloadConfig(
                max_inflight_misses=1,
                queue_capacity_bytes=1_000_000,
                queue_deadline_s=60.0,
            ),
        )
        responses = []

        def client(index):
            response = yield from bridge.get(roots[index], size_hint=60_000)
            responses.append(response)

        def driver():
            sim.spawn(client(0))
            sim.spawn(client(1))
            if False:
                yield

        sim.run_process(driver())
        sim.run()
        assert len(responses) == 2
        assert not any(r.shed for r in responses)
        assert bridge.overload_stats.queued == 1
        assert bridge.overload_stats.shed == 0


class TestBrownout:
    def make_throttled(self, node) -> GatewayBridge:
        bridge = make_bridge(
            node,
            cache_ttl_s=10.0,
            serve_stale=True,
            overload=OverloadConfig(
                max_inflight_misses=1,
                queue_capacity_bytes=1000,
                brownout_threshold=0.5,
            ),
        )
        return bridge

    def saturate(self, bridge: GatewayBridge) -> None:
        """Push the miss queue past the brownout threshold."""
        bridge._gate.inflight = 1  # pretend a miss is running
        bridge._gate.queued_bytes = 600
        assert bridge.in_brownout

    def test_brownout_serves_stale_without_revalidation(self, world):
        sim, node, publisher, roots = world
        bridge = self.make_throttled(node)

        def proc():
            return (yield from bridge.get(roots[0]))

        first = sim.run_process(proc())  # miss: fetch + cache
        assert first.tier == CacheTier.NON_CACHED
        sim.run(until=sim.now + 11.0)  # expire the TTL
        self.saturate(bridge)
        response = sim.run_process(proc())
        assert response.degraded
        assert response.tier == CacheTier.NGINX
        assert bridge.overload_stats.brownout_stale_served == 1

    def test_brownout_sheds_unresolved_paths(self, world):
        sim, node, publisher, roots = world
        bridge = self.make_throttled(node)
        self.saturate(bridge)

        def proc():
            return (yield from bridge.get_path(roots[0], "missing/leaf"))

        response = sim.run_process(proc())
        assert response.shed
        assert response.tier == CacheTier.SHED
        assert bridge.overload_stats.brownout_paths_dropped == 1


# ----------------------------------------------------------------------
# the zero-burst determinism guard
# ----------------------------------------------------------------------


def build_world(seed: int, with_fleet: bool):
    """One world; serve the same request sequence through either a bare
    stock bridge or a stock fleet of one around it."""
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    rng = derive_rng(seed, "world")
    bridge_node = IpfsNode(
        sim, net, derive_rng(seed, "gwnode"), region=Region.NA_WEST,
        peer_class=PeerClass.DATACENTER,
    )
    publisher = IpfsNode(sim, net, derive_rng(seed, "pub"), region=Region.EU)
    backdrop = [
        IpfsNode(sim, net, derive_rng(seed, "bg", str(i)),
                 region=rng.choice(list(Region)))
        for i in range(25)
    ]
    populate_routing_tables(
        [n.dht for n in [bridge_node, publisher, *backdrop]], rng
    )

    def publish():
        yield from publisher.publish_peer_record()
        roots = []
        for index in range(3):
            data = derive_rng(seed, "content", str(index)).randbytes(50_000)
            root, _ = yield from publisher.add_and_publish(data)
            roots.append(root)
        return roots

    roots = sim.run_process(publish())
    bridge = GatewayBridge(bridge_node, cache_capacity_bytes=10_000_000)
    server = GatewayFleet(sim, [bridge]) if with_fleet else bridge

    responses = []

    def replay():
        for root in [roots[0], roots[1], roots[0], roots[2], roots[1]]:
            response = yield from server.get(root, user="u", country="US")
            responses.append(response)
            yield 0.5

    sim.run_process(replay())
    return sim, bridge, responses


class TestZeroBurstGuard:
    def test_fleet_of_one_with_knobs_off_is_byte_identical(self):
        sim_a, bridge_a, responses_a = build_world(617, with_fleet=False)
        sim_b, bridge_b, responses_b = build_world(617, with_fleet=True)
        assert responses_a == responses_b
        assert bridge_a.log == bridge_b.log
        assert sim_a.now == sim_b.now
        # No overload machinery ran anywhere.
        for bridge in (bridge_a, bridge_b):
            assert bridge.overload_stats.single_flights == 0
            assert bridge.overload_stats.shed == 0
            assert bridge.overload_stats.coalesced_joins == 0
