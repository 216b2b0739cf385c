"""World building: population -> simulated network.

A scenario instantiates the synthetic population as simulated hosts
with DHT nodes, wires churn processes, fast-forwards routing-table
convergence, and (optionally) adds the six AWS-region vantage nodes of
the performance experiment.

Backdrop peers run plain :class:`~repro.dht.dht_node.DhtNode` state
(cheap); vantage peers are full :class:`~repro.node.host.IpfsNode`
instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bitswap.engine import BitswapEngine
from repro.blockstore.memory import MemoryBlockstore
from repro.dht.bootstrap import populate_routing_tables
from repro.dht.dht_node import DhtNode
from repro.multiformats.peerid import PeerId
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode
from repro.simnet.churn import WORLD_INITIAL_ONLINE_PROBABILITY, SessionProcess
from repro.simnet.compact import N_BOOTSTRAP
from repro.simnet.latency import AWS_REGION_MAP, PeerClass
from repro.simnet.nat import (
    DEFAULT_KEEPALIVE_INTERVAL_S,
    DEFAULT_MAPPING_TTL_S,
    NatBox,
    NatMode,
    seed_keepalive_mapping,
)
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.relay import CircuitDialer, NatTraversal
from repro.simnet.transport import Transport
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from repro.workloads.population import PeerSpec, Population

#: The paper's six vantage regions (Section 4.3, Table 1).
AWS_REGIONS = [
    "af_south_1",
    "ap_southeast_2",
    "eu_central_1",
    "me_south_1",
    "sa_east_1",
    "us_west_1",
]

#: How many reliable public peers act as circuit relays in a NAT world.
N_RELAYS = 4

#: Default NAT-mode mix for the never-reachable cohort, calibrated so
#: the emergent undialable share stays inside the paper's 45.5 % PASS
#: band: full-cone boxes (with their keepalive-held mapping) are
#: cold-dialable, so their weight is what trades against the target.
DEFAULT_NAT_MIX: tuple[tuple[str, float], ...] = (
    (NatMode.FULL_CONE.value, 0.10),
    (NatMode.ADDRESS_RESTRICTED.value, 0.30),
    (NatMode.PORT_RESTRICTED.value, 0.35),
    (NatMode.SYMMETRIC.value, 0.25),
)


@dataclass(frozen=True)
class NatWorldConfig:
    """Emergent NAT layer for a scenario.

    When set on :class:`ScenarioConfig`, the never-reachable cohort is
    built *online behind NAT boxes* (mode drawn per peer from ``mix``)
    instead of statically tagged offline; undialability then emerges
    from the boxes' admission rules. A ``mix`` that draws ``public``
    keeps that peer exactly as the static world builds it, so an
    all-public mix is the enabled-but-idle configuration the golden
    trace pins.
    """

    #: (mode name, weight) pairs; weights need not sum to 1.
    mix: tuple[tuple[str, float], ...] = DEFAULT_NAT_MIX
    mapping_ttl_s: float = DEFAULT_MAPPING_TTL_S
    #: probability a NAT'ed peer speaks DCUtR (public peers always do)
    punch_adoption: float = 0.0


#: NAT layer on, zero boxes: byte-identical to a NAT-free world.
IDLE_NAT_WORLD = NatWorldConfig(mix=((NatMode.PUBLIC.value, 1.0),))


def _draw_nat_mode(
    mix: tuple[tuple[str, float], ...], rng: random.Random
) -> NatMode:
    total = sum(weight for _, weight in mix)
    if total <= 0:
        return NatMode.PUBLIC
    x = rng.random() * total
    acc = 0.0
    for mode, weight in mix:
        acc += weight
        if x < acc:
            return NatMode(mode)
    return NatMode(mix[-1][0])


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 42
    #: start churn processes for the backdrop (disable for static worlds)
    with_churn: bool = True
    node_config: NodeConfig | None = None
    #: When False, never-reachable (NAT'ed) peers are built as DHT
    #: *clients*, so they cannot enter anyone's routing table — the
    #: idealised post-v0.5 behaviour. True (default) keeps them as
    #: stale server entries, which is what crawls of the live network
    #: actually observe.
    nat_peers_in_dht: bool = True
    #: ``None`` (default) keeps the static reachability tags; a
    #: :class:`NatWorldConfig` builds the never-reachable cohort as
    #: live NAT'ed peers whose dialability is emergent.
    nat_world: NatWorldConfig | None = None


@dataclass
class Scenario:
    """A wired-up world ready for experiments."""

    sim: Simulator
    net: SimNetwork
    population: Population
    backdrop: list[DhtNode]
    #: each backdrop peer's Bitswap engine (keyed by PeerId) — lets
    #: experiments seed content into caches without a provider record.
    engines: dict[PeerId, BitswapEngine] = field(default_factory=dict)
    vantage: dict[str, IpfsNode] = field(default_factory=dict)
    bootstrap_ids: list[PeerId] = field(default_factory=list)
    spec_by_peer: dict[PeerId, PeerSpec] = field(default_factory=dict)
    #: ground-truth NAT mode per backdrop peer ("public" when un-boxed);
    #: populated only when the scenario was built with ``nat_world``.
    nat_modes: dict[PeerId, str] = field(default_factory=dict)
    circuit_dialer: CircuitDialer | None = None
    traversal: NatTraversal | None = None

    def country_of(self, peer_id: PeerId) -> str:
        spec = self.spec_by_peer.get(peer_id)
        return spec.country if spec is not None else "??"


def build_scenario(
    population: Population,
    config: ScenarioConfig | None = None,
    vantage_regions: list[str] | None = None,
) -> Scenario:
    """Instantiate ``population`` as a simulated network.

    ``vantage_regions`` adds one always-on datacenter IpfsNode per AWS
    region named (each also publishes no peer record yet — experiments
    do that explicitly, as go-ipfs does on startup).
    """
    config = config if config is not None else ScenarioConfig()
    sim = Simulator()
    rng = derive_rng(config.seed, "scenario")
    net = SimNetwork(sim, derive_rng(config.seed, "net"))

    all_transports = frozenset(
        {Transport.TCP, Transport.QUIC, Transport.WEBSOCKET}
    )
    ws_only = frozenset({Transport.WEBSOCKET})

    backdrop: list[DhtNode] = []
    engines: dict[PeerId, BitswapEngine] = {}
    spec_by_peer: dict[PeerId, PeerSpec] = {}
    nat_modes: dict[PeerId, str] = {}
    boxed_hosts: list[tuple[int, SimHost]] = []
    for spec in population.peers:
        # A small slice of peers is reachable over WebSocket only;
        # dial timeouts against the unreachable ones produce the 45 s
        # spike of Figure 9c.
        transports = ws_only if rng.random() < 0.05 else all_transports
        # With a NAT world, the never-reachable cohort is built live
        # behind a NAT box (mode drawn from its own derived stream, so
        # the shared scenario/net streams are untouched); a drawn
        # "public" mode falls back to the static tag, which is what
        # makes an all-public mix byte-identical to no NAT world.
        nat_mode = NatMode.PUBLIC
        nat_rng: random.Random | None = None
        if config.nat_world is not None and spec.reachability == "never":
            nat_rng = derive_rng(config.seed, "nat", str(spec.index))
            nat_mode = _draw_nat_mode(config.nat_world.mix, nat_rng)
        boxed = nat_mode is not NatMode.PUBLIC
        host = SimHost(
            spec.peer_id,
            region=spec.region,
            peer_class=spec.peer_class,
            nat_private=spec.reachability == "never" and not boxed,
            online=spec.reachability != "never" or boxed,
            transports=transports,
        )
        if boxed:
            assert config.nat_world is not None and nat_rng is not None
            host.nat = NatBox(
                nat_mode,
                mapping_ttl_s=config.nat_world.mapping_ttl_s,
                keepalive_interval_s=DEFAULT_KEEPALIVE_INTERVAL_S,
                port_base=1024 + 64 * spec.index,
            )
            host.dcutr = nat_rng.random() < config.nat_world.punch_adoption
            boxed_hosts.append((spec.index, host))
        elif config.nat_world is not None:
            # Public peers always speak the modern stack; the adoption
            # knob only throttles the NAT'ed side.
            host.dcutr = True
        if config.nat_world is not None:
            nat_modes[spec.peer_id] = nat_mode.value
        host.agent_version = spec.agent_version
        net.register(host)
        # Never-reachable peers still appear in routing tables (stale
        # entries are exactly what slows real walks down), so they are
        # built as servers; their NAT flag keeps them undialable.
        node = DhtNode(
            sim, net, host,
            derive_rng(config.seed, "dht", str(spec.index)),
            server=config.nat_peers_in_dht or spec.reachability != "never",
        )
        # Every real IPFS node speaks Bitswap; backdrop peers get an
        # engine over an empty store (they answer DONT_HAVE).
        engine = BitswapEngine(sim, net, host, MemoryBlockstore())
        backdrop.append(node)
        engines[spec.peer_id] = engine
        spec_by_peer[spec.peer_id] = spec
        if config.with_churn and spec.reachability == "churning":
            SessionProcess(
                sim, host, spec.churn_model,
                derive_rng(config.seed, "churn", str(spec.index)),
                initial_online_probability=WORLD_INITIAL_ONLINE_PROBABILITY,
            )

    scenario = Scenario(
        sim=sim,
        net=net,
        population=population,
        backdrop=backdrop,
        engines=engines,
        spec_by_peer=spec_by_peer,
        nat_modes=nat_modes,
    )

    # Canonical bootstrap peers: the most reliable datacenter nodes.
    reliable = [
        node for node, spec in zip(backdrop, population.peers)
        if spec.reachability == "reliable"
    ] or backdrop
    scenario.bootstrap_ids = [
        node.host.peer_id for node in reliable[:N_BOOTSTRAP]
    ]

    for name in vantage_regions or []:
        node = IpfsNode(
            sim, net,
            derive_rng(config.seed, "vantage", name),
            region=AWS_REGION_MAP[name],
            peer_class=PeerClass.DATACENTER,
            config=config.node_config,
            transports=all_transports,
        )
        scenario.vantage[name] = node
        if config.nat_world is not None:
            node.host.dcutr = True

    # NAT traversal layer: only when at least one box exists. An
    # enabled-but-idle NAT world (all-public mix) installs nothing, so
    # the dial path — and the golden trace — is untouched.
    if config.nat_world is not None and boxed_hosts:
        dialer = CircuitDialer(net)
        relay_hosts = [
            node.host for node in reliable if node.host.nat is None
        ][:N_RELAYS]
        for relay_host in relay_hosts:
            # reservation slots scale with the population
            dialer.enable_relay(relay_host, capacity=len(population.peers))
        n_relays = len(relay_hosts)
        for index, host in boxed_hosts:
            # Bootstrap keepalive: the long-lived connection every node
            # opens on startup is what holds the box's mapping open.
            seed_keepalive_mapping(
                host, scenario.bootstrap_ids[index % len(scenario.bootstrap_ids)]
            )
            for k in range(min(2, n_relays)):
                dialer.reserve(
                    host, relay_hosts[(index + k) % n_relays].peer_id
                )
        traversal = NatTraversal(net, dialer)
        net.install_traversal(traversal)
        scenario.circuit_dialer = dialer
        scenario.traversal = traversal

    all_nodes = backdrop + [node.dht for node in scenario.vantage.values()]
    populate_routing_tables(all_nodes, derive_rng(config.seed, "tables"))
    return scenario
