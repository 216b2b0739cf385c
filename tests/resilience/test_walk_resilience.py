"""Integration tests: the ``resilient`` rung inside DHT walks and the
retrieval pipeline (breaker skips, adaptive deadlines, hedged queries,
and the degraded-mode Bitswap fallback). Each test runs the whole rung
and asserts that its one mechanism fires."""

import pytest

from repro.dht.keyspace import key_for_cid, key_for_peer, xor_distance
from repro.dht.bootstrap import populate_routing_tables
from repro.errors import ProviderNotFoundError
from repro.multiformats.cid import make_cid
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode
from repro.resilience import Resilience
from repro.resilience.breaker import FAILURE_THRESHOLD
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from tests.helpers import build_world

def enable(node) -> Resilience:
    """Put a bare DhtNode on the ``resilient`` rung after the fact
    (mirrors what the DhtNode constructor does when handed one)."""
    res = Resilience("resilient", node.sim, node.network)
    node.resilience = res
    node.routing_table.breakers = res.breakers
    node.routing_table.failure_threshold = res.eviction_threshold
    return res


def trip(res: Resilience, peer_id) -> None:
    """Open the peer's breaker: the rung's threshold of failures."""
    for _ in range(FAILURE_THRESHOLD):
        res.record_failure(peer_id)


class TestBreakersInWalks:
    def test_walk_failures_open_breakers(self):
        world = build_world(n=60, seed=21, offline_fraction=0.5)
        node = world.node(0)
        res = enable(node)

        def proc():
            # A walk charges a dead peer once; the rung's threshold of
            # walks toward one key charges the same dead peers again.
            for _ in range(FAILURE_THRESHOLD):
                result = yield from node.walk_closest(key_for_cid(make_cid(b"churny")))
            return result

        peers, stats = world.sim.run_process(proc())
        assert peers  # the walk still converges
        assert stats.rpcs_failed > 0
        assert res.stats.breaker_opened > 0
        assert res.breakers.open_peers()

    def test_open_breakers_skip_rediscovered_candidates(self):
        world = build_world(n=60, seed=22)
        node = world.node(0)
        res = enable(node)
        key = key_for_cid(make_cid(b"skip target"))
        # Trip the breakers of the peers closest to the target: the
        # seed list filters them out, but other responses re-reveal
        # them mid-walk, and the launch loop must skip them.
        closest = sorted(
            (n.host.peer_id for n in world.nodes[1:]),
            key=lambda p: xor_distance(key_for_peer(p), key),
        )[:3]
        for peer_id in closest:
            trip(res, peer_id)
        assert res.breakers.open_peers()

        def proc():
            return (yield from node.walk_closest(key))

        peers, stats = world.sim.run_process(proc())
        assert stats.skipped_breaker >= 1
        assert res.stats.breaker_skips >= 1
        # Skipped peers were never queried, and the walk routed around
        # them instead of stalling.
        assert peers
        assert not set(closest) & set(peers)

    def test_open_breaker_filters_routing_table_without_evicting(self):
        world = build_world(n=40, seed=23)
        node = world.node(0)
        res = enable(node)
        key = key_for_cid(make_cid(b"filter"))
        victim = node.routing_table.closest(key, 1)[0]
        trip(res, victim)
        assert victim not in node.routing_table.closest(key, 40)
        assert victim in node.routing_table  # open != evicted


class TestAdaptiveDeadlines:
    def test_warm_walks_use_adaptive_deadlines_and_converge(self):
        world = build_world(n=60, seed=24)
        node = world.node(0)
        res = enable(node)

        def proc():
            yield from node.walk_closest(key_for_cid(make_cid(b"warmup")))
            return (yield from node.walk_closest(key_for_cid(make_cid(b"second"))))

        peers, stats = world.sim.run_process(proc())
        # The rung also hedges: the second walk's two races settle, and
        # each cancelled loser drops out of the k closest it returns.
        assert len(peers) == 20 - stats.hedge_wins - stats.hedge_losses == 18
        assert res.rtt.samples_observed > 5
        assert res.stats.adaptive_deadlines > 0

    def test_cold_estimator_counts_nothing(self):
        world = build_world(n=20, seed=25)
        res = enable(world.node(0))
        assert res.rpc_deadline_s("eu_central_1", 10.0) == 10.0
        assert res.stats.adaptive_deadlines == 0


class TestHedgedWalks:
    def test_slow_candidates_trigger_hedges(self):
        # 40 % of routing-table entries are dead: their queries hang on
        # the 5 s dial timeout, well past the hedge delay.
        world = build_world(n=60, seed=26, offline_fraction=0.4)
        node = world.node(0)
        res = enable(node)

        def proc():
            return (yield from node.walk_closest(key_for_cid(make_cid(b"hedge me"))))

        peers, stats = world.sim.run_process(proc())
        assert peers
        assert stats.hedges_launched > 0
        assert res.stats.hedges_launched == stats.hedges_launched
        assert stats.hedge_wins + stats.hedge_losses <= stats.hedges_launched


class TestDisabledParity:
    def test_stock_node_has_resilience_fully_off(self):
        world = build_world(n=40, seed=27)
        node = world.node(0)
        assert node.resilience.eviction_threshold == 1
        assert not node.resilience.enabled
        assert node.resilience.breakers is None and node.resilience.rtt is None

        def proc():
            return (yield from node.walk_closest(key_for_cid(make_cid(b"stock"))))

        _, stats = world.sim.run_process(proc())
        assert stats.skipped_breaker == 0
        assert stats.hedges_launched == 0
        assert node.resilience.stats.adaptive_deadlines == 0


def build_cluster(n: int, seed: int, protagonist_config: NodeConfig | None):
    """A small all-server IpfsNode network (node 0 is the requester)."""
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    nodes = [
        IpfsNode(
            sim, net, derive_rng(seed, "node", str(index)),
            config=protagonist_config if index == 0 else None,
        )
        for index in range(n)
    ]
    populate_routing_tables([node.dht for node in nodes], derive_rng(seed, "tables"))
    return sim, nodes


FALLBACKS_ON = NodeConfig(protection="resilient")


class TestDegradedModeFallback:
    def test_fallback_rescues_cached_but_unannounced_content(self):
        # The re-provide problem (Section 6.4): a peer caches content
        # but never publishes a provider record. The DHT walk exhausts,
        # yet it leaves connections to every queried peer — and the
        # degraded-mode broadcast over those connections finds the copy.
        sim, nodes = build_cluster(12, seed=31, protagonist_config=FALLBACKS_ON)
        holder = nodes[5]
        root = holder.add_bytes(b"cached but never announced" * 40).root

        def proc():
            return (yield from nodes[0].retrieve(root))

        receipt = sim.run_process(proc())
        assert receipt.via_fallback
        assert receipt.provider == holder.peer_id
        assert receipt.bytes_fetched > 0
        assert nodes[0].blockstore.has(root)
        res = nodes[0].resilience
        assert res.stats.fallback_broadcasts == 1
        assert res.stats.fallback_hits == 1

    def test_without_fallbacks_the_same_retrieval_fails(self):
        sim, nodes = build_cluster(12, seed=31, protagonist_config=None)
        holder = nodes[5]
        root = holder.add_bytes(b"cached but never announced" * 40).root

        def proc():
            return (yield from nodes[0].retrieve(root))

        with pytest.raises(ProviderNotFoundError):
            sim.run_process(proc())
        assert nodes[0].resilience.stats.fallback_broadcasts == 0

    def test_fallback_miss_still_raises(self):
        sim, nodes = build_cluster(10, seed=32, protagonist_config=FALLBACKS_ON)
        # Nobody holds the content anywhere: the broadcast casts but
        # cannot hit, and the retrieval fails like stock.
        ghost = make_cid(b"content nobody ever had")

        def proc():
            return (yield from nodes[0].retrieve(ghost))

        with pytest.raises(ProviderNotFoundError):
            sim.run_process(proc())
        res = nodes[0].resilience
        assert res.stats.fallback_broadcasts == 1
        assert res.stats.fallback_hits == 0
