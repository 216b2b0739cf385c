"""World building: population -> simulated network.

:func:`build_scenario` builds the population's world with
:func:`~repro.simnet.compact.build_compact_world` — peers stay rows of
its columns until protocol code touches them — and attaches the six
AWS-region vantage nodes of the performance experiment as full
:class:`~repro.node.host.IpfsNode` instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.multiformats.peerid import PeerId
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode
from repro.simnet.compact import CompactWorld, build_compact_world
from repro.simnet.nat import DEFAULT_MAPPING_TTL_S, NatMode
from repro.simnet.network import SimNetwork
from repro.simnet.relay import CircuitDialer, NatTraversal
from repro.simnet.sim import Simulator
from repro.workloads.population import Population

#: The paper's six vantage regions (Section 4.3, Table 1).
AWS_REGIONS = [
    "af_south_1",
    "ap_southeast_2",
    "eu_central_1",
    "me_south_1",
    "sa_east_1",
    "us_west_1",
]

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
    """A built world and its vantage nodes; every per-peer fact lives
    in ``world``'s columns."""

    sim: Simulator
    net: SimNetwork
    world: CompactWorld
    vantage: dict[str, IpfsNode]
    circuit_dialer: CircuitDialer | None = None
    traversal: NatTraversal | None = None

    @property
    def bootstrap_ids(self) -> list[PeerId]:
        return self.world.bootstrap_ids


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
    world = build_compact_world(
        population.compact,
        config if config is not None else ScenarioConfig(),
        vantage_regions=vantage_regions,
    )
    return Scenario(
        world.sim, world.net, world, world.vantage,
        world.circuit_dialer, world.traversal,
    )
