"""Injected MALFORMED / RESET faults must feed the circuit breaker of
the ``resilient`` rung: the walk treats both as query failures, so
repeat offenders trip open and later walks skip them. Bitswap must tolerate the empty replies
without crashing (they carry ``None`` in place of a response body)."""

import pytest

from repro.dht.bootstrap import populate_routing_tables
from repro.dht.keyspace import key_for_cid, key_for_peer, xor_distance
from repro.errors import RetrievalError
from repro.multiformats.cid import make_cid
from repro.node.host import IpfsNode
from repro.resilience import OPEN, Resilience
from repro.resilience.breaker import FAILURE_THRESHOLD
from repro.simnet.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from tests.helpers import build_world

def resilient(node) -> Resilience:
    """Put a bare DhtNode on the ``resilient`` rung (as its constructor
    does when handed the facade)."""
    res = Resilience("resilient", node.sim, node.network)
    node.resilience = res
    node.routing_table.breakers = res.breakers
    node.routing_table.failure_threshold = res.eviction_threshold
    return res


def install(world, *rules, seed=0) -> FaultInjector:
    injector = FaultInjector(FaultPlan.of(*rules), derive_rng(seed, "faults"))
    world.net.install_faults(injector)
    return injector


class TestFaultsFeedTheBreaker:
    def test_malformed_responses_open_breakers(self):
        world = build_world(n=40, seed=41)
        node = world.node(0)
        res = resilient(node)
        injector = install(world, FaultRule(FaultKind.MALFORMED, 1.0), seed=41)

        def proc():
            return (yield from node.walk_closest(key_for_cid(make_cid(b"garbage"))))

        # A walk charges each queried peer once: the breaker's threshold
        # of walks charges the same peers again.
        for _ in range(FAILURE_THRESHOLD):
            peers, stats = world.sim.run_process(proc())
        # Every reply was garbage: no peer succeeded, every queried
        # peer was charged a failure, and their breakers tripped.
        assert peers == []
        assert stats.rpcs_ok == 0
        assert stats.rpcs_failed > 0
        assert injector.stats.by_kind["malformed"] > 0
        assert res.stats.breaker_opened == len(res.breakers.open_peers())
        assert res.stats.breaker_opened > 0
        for peer_id in res.breakers.open_peers():
            assert res.breakers.state(peer_id) == OPEN

    def test_reset_faults_open_breakers(self):
        world = build_world(n=40, seed=42)
        node = world.node(0)
        res = resilient(node)
        injector = install(world, FaultRule(FaultKind.RESET, 1.0), seed=42)

        def proc():
            return (yield from node.walk_closest(key_for_cid(make_cid(b"resets"))))

        for _ in range(FAILURE_THRESHOLD):
            _, stats = world.sim.run_process(proc())
        assert stats.rpcs_ok == 0
        assert stats.rpcs_failed > 0
        assert injector.stats.by_kind["reset"] > 0
        assert res.stats.breaker_opened > 0

    def test_later_walks_skip_peers_tripped_by_faults(self):
        world = build_world(n=60, seed=43)
        node = world.node(0)
        res = resilient(node)
        key = key_for_cid(make_cid(b"selective rot"))
        # Only the peers closest to the target misbehave; the rest of
        # the network answers honestly and keeps re-revealing them.
        rotten = frozenset(
            sorted(
                (n.host.peer_id for n in world.nodes[1:]),
                key=lambda p: xor_distance(key_for_peer(p), key),
            )[:5]
        )
        install(world, FaultRule(FaultKind.MALFORMED, 1.0, peers=rotten), seed=43)

        def walk():
            return (yield from node.walk_closest(key))

        for _ in range(FAILURE_THRESHOLD):
            _, first = world.sim.run_process(walk())
            assert first.rpcs_failed > 0
        assert res.stats.breaker_opened > 0
        tripped = set(res.breakers.open_peers())
        assert tripped <= rotten

        _, second = world.sim.run_process(walk())
        # The honest peers' responses re-reveal the rotten ones, but
        # their open breakers keep them out of the query schedule.
        assert second.skipped_breaker >= 1
        assert second.rpcs_failed == 0


class TestBitswapToleratesMalformed:
    """Regression: an empty (fault-injected) Bitswap reply used to
    crash the discovery callback with an AttributeError."""

    def _pair(self, seed):
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(seed, "net"))
        a = IpfsNode(sim, net, derive_rng(seed, "a"))
        b = IpfsNode(sim, net, derive_rng(seed, "b"))
        populate_routing_tables([a.dht, b.dht], derive_rng(seed, "tables"))
        root = b.add_bytes(b"held by b" * 50).root

        def connect():
            yield net.dial(a.host, b.host.peer_id)

        sim.run_process(connect())
        return sim, net, a, b, root

    def test_malformed_want_have_reply_is_no_answer(self):
        sim, net, a, b, root = self._pair(44)
        net.install_faults(FaultInjector(
            FaultPlan.of(FaultRule(FaultKind.MALFORMED, 1.0)),
            derive_rng(44, "faults"),
        ))

        def proc():
            return (yield from a.bitswap.discover_connected(root, 1.0))

        assert sim.run_process(proc()) is None  # garbage != IHAVE

    def test_malformed_want_block_reply_raises_retrieval_error(self):
        sim, net, a, b, root = self._pair(45)
        net.install_faults(FaultInjector(
            FaultPlan.of(FaultRule(FaultKind.MALFORMED, 1.0)),
            derive_rng(45, "faults"),
        ))

        def proc():
            return (yield from a.bitswap.fetch_block(root, b.host.peer_id))

        with pytest.raises(RetrievalError):
            sim.run_process(proc())

    def test_healthy_pair_still_discovers_and_fetches(self):
        sim, net, a, b, root = self._pair(46)

        def proc():
            peer = yield from a.bitswap.discover_connected(root, 1.0)
            result = yield from a.bitswap.fetch_block(root, peer)
            return peer, result

        peer, result = sim.run_process(proc())
        assert peer == b.host.peer_id
        assert result.block.cid == root
