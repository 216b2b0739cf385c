"""Tests for attacker models: specs, the malicious node, placement."""

import pytest

from repro.adversary.attacks import (
    ATTACK_KINDS,
    CENSOR_POOL,
    ECLIPSE_RING,
    AttackSpec,
    install_incident,
    install_placement,
)
from repro.adversary.sybil import closest_distance
from repro.dht import rpc
from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import key_for_cid
from repro.dht.malicious import MaliciousDhtNode
from repro.dht.records import ProviderRecord
from repro.errors import ReproError
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
from repro.simnet.faults import FaultKind
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population

CID = make_cid(b"attacked content")
KEY = key_for_cid(CID)


class TestAttackSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            AttackSpec("dns_poisoning")

    def test_intensity_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            AttackSpec("eclipse", intensity=1.5)
        with pytest.raises(ReproError):
            AttackSpec("eclipse", intensity=-0.1)

    def test_active_and_label(self):
        assert not AttackSpec("none").active
        assert not AttackSpec("eclipse", intensity=0.0).active
        assert AttackSpec("eclipse", intensity=0.5).active
        assert AttackSpec("censor", intensity=0.5).label == "censor@0.5"
        assert "none" in ATTACK_KINDS


def make_malicious() -> MaliciousDhtNode:
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(1, "net"))
    host = SimHost(
        PeerId.from_public_key(b"malicious"),
        region=Region.EU,
        peer_class=PeerClass.DATACENTER,
    )
    net.register(host)
    return MaliciousDhtNode(sim, net, host, derive_rng(1, "mal"), server=True)


class TestMaliciousDhtNode:
    def test_add_provider_is_acked_but_discarded(self):
        node = make_malicious()
        sender = PeerId.from_public_key(b"honest publisher")
        record = ProviderRecord(cid=CID, provider=sender, published_at=0.0)
        ack, _size = node._on_add_provider(
            sender, rpc.AddProviderRequest(record)
        )
        assert ack is True  # the publisher counts this as a store
        assert node.records_suppressed == 1
        assert node.provider_store.providers_for(CID, now=0.0) == []

    def test_get_providers_is_censored_with_truthful_routing(self):
        node = make_malicious()
        sender = PeerId.from_public_key(b"honest getter")
        filler = [PeerId.from_public_key(b"filler-%d" % i) for i in range(5)]
        for peer_id in filler:
            node.routing_table.add(peer_id)
        response, _size = node._on_get_providers(
            sender, rpc.GetProvidersRequest(KEY, CID)
        )
        assert response.providers == ()  # censored
        assert set(response.closer_peers) >= set(filler)  # truthful
        assert node.queries_censored == 1

    def test_handlers_still_learn_the_sender(self):
        node = make_malicious()
        # A registered honest server in the same network (only servers
        # are eligible for routing tables).
        sender_host = SimHost(
            PeerId.from_public_key(b"honest publisher"),
            region=Region.EU,
            peer_class=PeerClass.DATACENTER,
        )
        node.network.register(sender_host)
        honest = DhtNode(
            node.sim, node.network, sender_host,
            derive_rng(1, "honest"), server=True,
        )
        sender = honest.host.peer_id
        record = ProviderRecord(cid=CID, provider=sender, published_at=0.0)
        node._on_add_provider(sender, rpc.AddProviderRequest(record))
        assert sender in node.routing_table


def small_scenario(seed: int = 5):
    population = generate_population(
        PopulationConfig(n_peers=60), derive_rng(seed, "pop")
    )
    return build_scenario(
        population, ScenarioConfig(seed=seed, with_churn=False)
    )


class TestPlacement:
    def test_inactive_attacks_touch_nothing(self):
        # A strict no-op: ``scenario`` is never even accessed, so the
        # world (and every RNG stream in it) stays byte-identical.
        for spec in (AttackSpec("none"), AttackSpec("eclipse", 0.0)):
            state = install_placement(spec, None, KEY, seed=7)
            assert state.sybils == []
            assert state.plan.rules == ()
        install_incident(AttackSpec("churn_storm", 0.0), None, seed=7)

    def test_eclipse_ring_owns_the_closest_set(self):
        scenario = small_scenario()
        state = install_placement(AttackSpec("eclipse"), scenario, KEY, 5)
        assert len(state.sybils) == ECLIPSE_RING
        world = scenario.world
        honest = [
            host.peer_id for host in map(world.host_at, range(len(world)))
            if host.dht_server and not host.nat_private and host.online
        ]
        # Every Sybil sits strictly closer to the target than the
        # closest honest server: the 20-closest set is all attacker.
        sybil_far = max(
            closest_distance(KEY, [node.host.peer_id])
            for node in state.sybils
        )
        assert sybil_far < closest_distance(KEY, honest)

    def test_eclipse_intensity_scales_the_ring(self):
        scenario = small_scenario()
        state = install_placement(
            AttackSpec("eclipse", intensity=0.5), scenario, KEY, 5
        )
        assert len(state.sybils) == round(0.5 * ECLIPSE_RING)

    def test_censor_plan_scopes_loss_to_provider_rpcs(self):
        scenario = small_scenario()
        state = install_placement(
            AttackSpec("censor", intensity=0.5), scenario, KEY, 5
        )
        assert state.plan_phase == "placement"
        (rule,) = state.plan.rules
        assert rule.kind is FaultKind.LOSS
        assert rule.probability == 1.0
        assert len(rule.peers) == round(0.5 * CENSOR_POOL)
        assert rule.methods == frozenset({rpc.ADD_PROVIDER, rpc.GET_PROVIDERS})

    def test_partition_plan_is_an_incident(self):
        state = install_placement(
            AttackSpec("partition", intensity=0.8), small_scenario(), KEY, 5
        )
        assert state.plan_phase == "incident"
        (rule,) = state.plan.rules
        assert rule.kind is FaultKind.PARTITION
        assert rule.probability == 0.8
