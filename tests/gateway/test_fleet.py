"""Fleet tests: routing disciplines, health windows, failover and the
active probe loop."""

import pytest

from repro.dht.bootstrap import populate_routing_tables
from repro.errors import GatewayDownError, ReproError
from repro.gateway.bridge import GatewayBridge
from repro.gateway.fleet import (
    HEALTH_WINDOW,
    MIN_OBSERVATIONS,
    FleetConfig,
    GatewayFleet,
    _ring_point,
)
from repro.node.host import IpfsNode
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


@pytest.fixture()
def world():
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(96, "net"))
    rng = derive_rng(96, "world")
    gateway_nodes = [
        IpfsNode(sim, net, derive_rng(96, "gw", str(i)), region=Region.NA_WEST,
                 peer_class=PeerClass.DATACENTER)
        for i in range(3)
    ]
    publisher = IpfsNode(sim, net, derive_rng(96, "pub"), region=Region.EU)
    backdrop = [
        IpfsNode(sim, net, derive_rng(96, "bg", str(i)),
                 region=rng.choice(list(Region)))
        for i in range(25)
    ]
    populate_routing_tables(
        [n.dht for n in [*gateway_nodes, publisher, *backdrop]], rng
    )

    def publish():
        yield from publisher.publish_peer_record()
        roots = []
        for index in range(6):
            data = derive_rng(96, "content", str(index)).randbytes(40_000)
            root, _ = yield from publisher.add_and_publish(data)
            roots.append(root)
        return roots

    roots = sim.run_process(publish())
    bridges = [
        GatewayBridge(node, cache_capacity_bytes=10_000_000)
        for node in gateway_nodes
    ]
    return sim, gateway_nodes, publisher, bridges, roots


def hash_fleet(sim, bridges, **kwargs) -> GatewayFleet:
    """The hardened fleet: consistent hash plus failover."""
    return GatewayFleet(sim, bridges, FleetConfig(**kwargs))


class TestConfig:
    def test_needs_at_least_one_bridge(self):
        with pytest.raises(ReproError):
            GatewayFleet(Simulator(), [])

    @pytest.mark.parametrize("kwargs", [{"probe_interval_s": 0.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            FleetConfig(**kwargs)

    def test_stock_fleet_has_no_probe_loop(self):
        with pytest.raises(ReproError):
            next(GatewayFleet(Simulator(), [object()]).run_probes(10.0))


class TestRouting:
    def test_ring_points_are_process_independent(self):
        # sha256, not the salted builtin hash: same input, same point.
        assert _ring_point(b"vnode:0:0") == _ring_point(b"vnode:0:0")
        assert _ring_point(b"vnode:0:0") != _ring_point(b"vnode:0:1")

    def test_consistent_hash_is_stable_across_fleets(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet_a = hash_fleet(sim, bridges)
        fleet_b = hash_fleet(sim, bridges)
        for root in roots:
            assert fleet_a.primary_for(root) == fleet_b.primary_for(root)
            assert fleet_a.route(root) == fleet_a.primary_for(root)

    def test_consistent_hash_spreads_the_space(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)
        owners = {fleet.primary_for(root) for root in roots}
        assert len(owners) > 1  # 6 CIDs should not all land on one node

    def test_round_robin_rotates(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = GatewayFleet(sim, bridges)  # stock: round-robin

        def proc(root):
            return (yield from fleet.get(root))

        for _ in range(2):
            for root in roots[:3]:
                sim.run_process(proc(root))
        # Six requests over three members: the rotation visits each
        # member exactly twice, regardless of the CID.
        assert fleet.stats.served_by_gateway == [2, 2, 2]

    def test_round_robin_spreads_one_hot_cid_everywhere(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = GatewayFleet(sim, bridges)

        def proc():
            return (yield from fleet.get(roots[0]))

        for _ in range(3):
            sim.run_process(proc())
        # Every member fetched the same object upstream — the DNS
        # round-robin pathology the consistent-hash ring removes.
        assert sum(
            bridge.upstream_launches.get(roots[0], 0) for bridge in bridges
        ) == 3

    def test_consistent_hash_fetches_each_cid_once(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)

        def proc():
            return (yield from fleet.get(roots[0]))

        for _ in range(3):
            sim.run_process(proc())
        launches = [
            bridge.upstream_launches.get(roots[0], 0) for bridge in bridges
        ]
        assert sorted(launches) == [0, 0, 1]


class TestHealth:
    def test_error_rate_needs_observations(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)
        for _ in range(MIN_OBSERVATIONS - 1):
            fleet.record_outcome(0, ok=False)
        assert fleet.error_rate(0) is None  # under-observed
        assert fleet.is_healthy(0)
        fleet.record_outcome(0, ok=False)
        assert fleet.error_rate(0) == 1.0
        assert not fleet.is_healthy(0)

    def test_window_rolls(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)
        for _ in range(HEALTH_WINDOW):
            fleet.record_outcome(0, ok=False)
        assert not fleet.is_healthy(0)
        for _ in range(HEALTH_WINDOW):
            fleet.record_outcome(0, ok=True)
        assert fleet.is_healthy(0)

    def test_probe_marks_offline_and_recovers(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges, probe_interval_s=1.0)
        nodes[0].host.set_online(False)
        fleet.probe_once()
        assert not fleet.is_healthy(0)
        assert fleet.stats.marked_offline == 1
        nodes[0].host.set_online(True)
        fleet.probe_once()
        assert fleet.is_healthy(0)
        assert fleet.stats.recovered == 1

    def test_run_probes_on_the_simulated_clock(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges, probe_interval_s=2.0)
        nodes[1].host.set_online(False)
        sim.spawn(fleet.run_probes(until_s=sim.now + 10.0))
        sim.run()
        assert fleet.stats.probe_rounds >= 4
        assert not fleet.is_healthy(1)


class TestFailover:
    def test_without_failover_a_dead_gateway_errors(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = GatewayFleet(sim, bridges)  # stock: no failover
        primary = 0  # the rotation's first answer
        nodes[primary].host.set_online(False)

        def proc():
            return (yield from fleet.get(roots[0]))

        with pytest.raises(GatewayDownError):
            sim.run_process(proc())
        assert fleet.stats.down_errors == 1
        # The contact failure still marked it for later requests.
        assert not fleet.is_healthy(primary)

    def test_failover_reroutes_the_dead_range(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)
        primary = fleet.primary_for(roots[0])
        nodes[primary].host.set_online(False)

        def proc():
            return (yield from fleet.get(roots[0]))

        response = sim.run_process(proc())
        assert not response.shed
        assert fleet.stats.failovers == 1
        assert fleet.stats.served_by_gateway[primary] == 0
        # Once marked, later requests route around without the bounce.
        sim.run_process(proc())
        assert fleet.stats.down_errors == 0

    def test_marked_gateway_routes_around_before_contact(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = hash_fleet(sim, bridges)
        primary = fleet.primary_for(roots[0])
        fleet._mark_offline(primary)
        assert fleet.route(roots[0]) != primary


class TestTotals:
    def test_overload_totals_sum_bridges(self, world):
        sim, nodes, publisher, bridges, roots = world
        fleet = GatewayFleet(sim, bridges)
        bridges[0].overload_stats.coalesced_joins = 2
        bridges[1].overload_stats.coalesced_joins = 3
        bridges[2].upstream_launches = {roots[0]: 3}
        totals = fleet.overload_totals()
        assert totals["coalesced_joins"] == 5
        assert totals["duplicate_launches"] == 2
