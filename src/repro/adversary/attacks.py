"""Attacker models: how each adversary is placed into a scenario.

Every attack is installed into an already-built
:class:`~repro.experiments.scenario.Scenario` and parameterized by a
single ``intensity`` knob in [0, 1] so the matrix can sweep severity.
``intensity = 0`` (or kind ``"none"``) is a *strict no-op*: nothing is
registered, no RNG stream is touched, and the world stays byte-
identical to an attack-free run — the invariant the CI smoke job pins.

Two installation phases mirror when each adversary strikes:

- *placement* (before publication) — the Sybil ring must already
  occupy the target's closest set when the provider records are
  stored, and censoring intermediaries drop the ADD_PROVIDER RPCs of
  the publication itself;
- *incident* (after publication) — churn storms, partitions and the
  cloud exodus hit a network that already holds the records, degrading
  retrieval rather than publication.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.adversary.sybil import closest_distance, mine_sybil_ids
from repro.bitswap.engine import BitswapEngine
from repro.blockstore.memory import MemoryBlockstore
from repro.dht import rpc
from repro.dht.malicious import MaliciousDhtNode
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.errors import ReproError
from repro.experiments.scenario import Scenario
from repro.simnet.faults import FaultKind, FaultPlan, FaultRule
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost
from repro.utils.rng import derive_rng

#: Attack kinds the matrix knows how to install.
ATTACK_KINDS = (
    "none",
    "eclipse",
    "censor",
    "churn_storm",
    "partition",
    "cloud_exodus",
)

#: Sybils mined at full intensity: exactly one k-bucket's worth, enough
#: to own the target's entire 20-closest set.
ECLIPSE_RING = K_BUCKET_SIZE

#: Candidate censors at full intensity — the 30 honest servers nearest
#: the target key, comfortably covering its 20-closest neighbourhood.
CENSOR_POOL = 30

#: Churn-storm shape: ``STORM_WAVES`` cycles of everyone-off for
#: ``STORM_OFF_S`` then back on, one cycle per ``STORM_PERIOD_S``.
STORM_WAVES = 4
STORM_PERIOD_S = 150.0
STORM_OFF_S = 100.0

#: Partition cut: the eastern group is severed from the western group
#: (which holds both vantage regions), so the experiment measures
#: routing degradation rather than a trivially-cut vantage path.
PARTITION_GROUPS = (
    frozenset({Region.ASIA_EAST, Region.ASIA_SE, Region.OCEANIA,
               Region.MIDDLE_EAST}),
    frozenset({Region.EU, Region.NA_WEST, Region.NA_EAST, Region.SA,
               Region.AFRICA}),
)

#: Region the Sybil operator rents its machines in (one cloud, exactly
#: as the measured eclipse deployments do).
SYBIL_REGION = Region.NA_EAST


@dataclass(frozen=True)
class AttackSpec:
    """One attacker: what kind, and how hard it tries."""

    kind: str
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ReproError(f"unknown attack kind: {self.kind!r}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ReproError(
                f"attack intensity must be in [0, 1], got {self.intensity}"
            )

    @property
    def active(self) -> bool:
        return self.kind != "none" and self.intensity > 0.0

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.intensity:g}"


@dataclass
class AttackState:
    """What installing an attack produced (adversary-side telemetry)."""

    sybils: list = field(default_factory=list)  # list[MaliciousDhtNode]
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: whether ``plan`` belongs before ("placement") or after
    #: ("incident") publication.
    plan_phase: str = "incident"

    @property
    def records_suppressed(self) -> int:
        return sum(node.records_suppressed for node in self.sybils)

    @property
    def queries_censored(self) -> int:
        return sum(node.queries_censored for node in self.sybils)


def _honest_server_hosts(scenario: Scenario) -> list[SimHost]:
    """Every honest DHT server's host (backdrop and vantage), build
    order: what a plan that reads identities and reachability needs."""
    world = scenario.world
    hosts = [host for host in map(world.host_at, range(len(world))) if host.dht_server]
    hosts.extend(node.host for node in scenario.vantage.values())
    return hosts


def _honest_server_nodes(scenario: Scenario) -> list:
    """Every honest DHT server's node (backdrop and vantage), build
    order: attached, because the eclipse writes to their tables."""
    world = scenario.world
    nodes = [
        world.node_at(index) for index in range(len(world))
        if world.host_at(index).dht_server
    ]
    nodes.extend(node.dht for node in scenario.vantage.values())
    return nodes


def _install_eclipse(
    spec: AttackSpec, scenario: Scenario, target_key: bytes, seed: int,
    state: AttackState,
) -> None:
    """Mine Sybils into the target's closest set and wire them in.

    Each Sybil is a fully protocol-conformant server
    (:class:`~repro.dht.malicious.MaliciousDhtNode`) that answers
    FIND_NODE truthfully — its routing table is seeded with the honest
    servers — while accepting-and-discarding provider records. Honest
    routing tables learn the Sybils directly, standing in for the
    live-network step where a crawlable Sybil is picked up by the
    routine bucket refreshes of everyone near the target.
    """
    ring = round(spec.intensity * ECLIPSE_RING)
    if ring <= 0:
        return
    honest = _honest_server_nodes(scenario)
    dialable = [
        node for node in honest
        if not node.host.nat_private and node.host.online
    ]
    threshold = closest_distance(
        target_key, [node.host.peer_id for node in dialable]
    )
    sybil_ids = mine_sybil_ids(
        target_key, ring, closer_than=threshold, label=f"sybil-{seed}"
    )
    honest_ids = [node.host.peer_id for node in dialable]
    for index, peer_id in enumerate(sybil_ids):
        host = SimHost(
            peer_id, region=SYBIL_REGION, peer_class=PeerClass.DATACENTER
        )
        scenario.net.register(host)
        node = MaliciousDhtNode(
            scenario.sim, scenario.net, host,
            derive_rng(seed, "sybil-node", str(index)), server=True,
        )
        # Sybils speak Bitswap like everyone else, over an empty store
        # (DONT_HAVE for every want — they never serve the content).
        BitswapEngine(scenario.sim, scenario.net, host, MemoryBlockstore())
        for honest_id in honest_ids:
            node.routing_table.add(honest_id)
        state.sybils.append(node)
    # The ring is mutually known: each Sybil's closer-peers answer for
    # the target is its fellow Sybils — still a *truthful* FIND_NODE
    # reply (they really are the closest peers), and what makes a walk
    # that touches one Sybil converge onto the whole ring.
    for node in state.sybils:
        for peer_id in sybil_ids:
            node.routing_table.add(peer_id)
    # The whole network learns the ring: the near-target buckets the
    # Sybils land in are sparse, so these inserts virtually always fit.
    for node in honest:
        for peer_id in sybil_ids:
            node.routing_table.add(peer_id)


def _censor_plan(
    spec: AttackSpec, scenario: Scenario, target_key: bytes
) -> FaultPlan:
    """Method-scoped loss at the honest servers nearest the target.

    Models malicious *intermediaries*: the ``intensity``-scaled slice
    of the censor pool silently drops ADD_PROVIDER and GET_PROVIDERS
    while answering every other RPC, so walks still route through them
    but provider traffic dies there.
    """
    chosen = round(spec.intensity * CENSOR_POOL)
    if chosen <= 0:
        return FaultPlan()
    target_int = int.from_bytes(target_key, "big")
    servers = [
        host for host in _honest_server_hosts(scenario) if not host.nat_private
    ]
    servers.sort(key=lambda host: host.peer_id.dht_key_int() ^ target_int)
    censors = frozenset(host.peer_id for host in servers[:chosen])
    return FaultPlan.of(
        FaultRule(
            FaultKind.LOSS,
            probability=1.0,
            peers=censors,
            methods=frozenset({rpc.ADD_PROVIDER, rpc.GET_PROVIDERS}),
        )
    )


def _partition_plan(spec: AttackSpec) -> FaultPlan:
    return FaultPlan.of(
        FaultRule(
            FaultKind.PARTITION,
            probability=spec.intensity,
            partition_groups=PARTITION_GROUPS,
        )
    )


def _schedule_churn_storm(
    spec: AttackSpec, scenario: Scenario, seed: int
) -> None:
    """Coordinated waves: a chosen cohort drops offline in lockstep.

    Ordinary churn is independent; the storm is the adversarial
    version — one actor yanks an ``intensity``-scaled cohort of the
    churn-prone population off the network simultaneously, repeatedly.
    The simultaneity is what stresses retries (and what the per-peer
    jitter streams must keep from re-firing in lockstep).
    """
    world = scenario.world
    prone = [
        world.host_at(index) for index in range(len(world))
        if world.compact.reachability_at(index) == "churning"
    ]
    cohort_size = round(spec.intensity * len(prone))
    if cohort_size <= 0:
        return
    rng = derive_rng(seed, "attack-churn-storm")
    cohort = rng.sample(prone, cohort_size)
    sim = scenario.sim
    for wave in range(STORM_WAVES):
        off_delay = wave * STORM_PERIOD_S
        on_delay = off_delay + STORM_OFF_S

        def all_off(hosts=tuple(cohort)) -> None:
            for host in hosts:
                host.set_online(False)

        def all_on(hosts=tuple(cohort)) -> None:
            for host in hosts:
                host.set_online(True)

        sim.schedule(off_delay, all_off)
        sim.schedule(on_delay, all_on)


def _schedule_cloud_exodus(spec: AttackSpec, scenario: Scenario) -> None:
    """Remove the top cloud provider's peers mid-run and keep them out.

    "The Cloud Strikes Back": a disproportionate share of the stable
    DHT servers live in a handful of clouds, so one provider
    deplatforming IPFS (or one outage) deletes them all at once. The
    provider with the most peers goes dark immediately; ``intensity``
    scales how much of its fleet is affected.
    """
    world = scenario.world
    clouds = [world.compact.cloud_at(index) for index in range(len(world))]
    counts = Counter(cloud for cloud in clouds if cloud is not None)
    if not counts:
        return
    top = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[0][0]
    fleet = [
        world.host_at(index) for index, cloud in enumerate(clouds) if cloud == top
    ]
    removed = round(spec.intensity * len(fleet))
    if removed <= 0:
        return
    doomed = tuple(fleet[:removed])

    def exodus() -> None:
        for host in doomed:
            host.set_online(False)

    scenario.sim.schedule(0.0, exodus)


def install_placement(
    spec: AttackSpec, scenario: Scenario, target_key: bytes, seed: int
) -> AttackState:
    """Phase 1: attacker placement, before anything is published."""
    state = AttackState()
    if not spec.active:
        return state
    if spec.kind == "eclipse":
        _install_eclipse(spec, scenario, target_key, seed, state)
    elif spec.kind == "censor":
        state.plan = _censor_plan(spec, scenario, target_key)
        state.plan_phase = "placement"
    elif spec.kind == "partition":
        state.plan = _partition_plan(spec)
        state.plan_phase = "incident"
    return state


def install_incident(
    spec: AttackSpec, scenario: Scenario, seed: int
) -> None:
    """Phase 2: incidents striking after publication (call at the
    moment the incident should begin — schedules are relative)."""
    if not spec.active:
        return
    if spec.kind == "churn_storm":
        _schedule_churn_storm(spec, scenario, seed)
    elif spec.kind == "cloud_exodus":
        _schedule_cloud_exodus(spec, scenario)
