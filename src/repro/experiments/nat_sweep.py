"""The dialability sweep: NAT-mode mix x hole-punch adoption x TTL.

Each cell builds a fresh NAT world (:class:`NatWorldConfig` on the
scenario), runs the paper's crawl/probe campaign to measure the
*emergent* undialable share, classifies every online peer with AutoNAT
dial-backs and scores the verdicts against ground truth, then retrieves
content from a NAT'ed publisher to measure what relaying costs and
hole punching buys. The grid is sharded through
:func:`repro.experiments.runner.run_cells`, and results are
byte-identical for any ``--workers N`` — each cell derives every RNG
stream from the frozen config, never from shared state.

The report grades four claims through :mod:`repro.validation`:

- the default cell's undialable share lands in the paper's 45.5 %
  PASS band (``peer.undialable_fraction``, Fig 4a / Section 5.3);
- AutoNAT agrees with ground-truth NAT modes on >= 95 % of peers;
- hole-punch adoption does not slow retrieval down (and upgrades
  punchable paths to direct connections);
- NAT'ed publishers stay retrievable through relays even with zero
  adoption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.bootstrap import join_network
from repro.experiments.chaos import (
    GETTER_REGION,
    PUBLISHER_REGION,
    RETRIEVAL_SPACING_S,
    cold_retrieve,
)
from repro.experiments.datasets import build_world
from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.runner import Cell, run_cells
from repro.experiments.scenario import DEFAULT_NAT_MIX, NatWorldConfig, Scenario
from repro.node.host import IpfsNode
from repro.simnet.latency import AWS_REGION_MAP, PeerClass
from repro.simnet.nat import (
    DEFAULT_KEEPALIVE_INTERVAL_S,
    DEFAULT_MAPPING_TTL_S,
    NatBox,
    NatMode,
    autonat_check,
    seed_keepalive_mapping,
)
from repro.simnet.relay import cold_dialable
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.validation.compare import grade_at_least
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import TARGETS_BY_KEY

#: NAT-mode mixes for the never-reachable cohort. ``cone_heavy`` makes
#: the mapping-TTL axis bite (full-cone dialability dies with the
#: mapping); ``symmetric_heavy`` is the punch-hostile arm.
MIXES: dict[str, tuple[tuple[str, float], ...]] = {
    "default": DEFAULT_NAT_MIX,
    "cone_heavy": (
        (NatMode.FULL_CONE.value, 0.50),
        (NatMode.ADDRESS_RESTRICTED.value, 0.20),
        (NatMode.PORT_RESTRICTED.value, 0.20),
        (NatMode.SYMMETRIC.value, 0.10),
    ),
    "symmetric_heavy": (
        (NatMode.FULL_CONE.value, 0.05),
        (NatMode.ADDRESS_RESTRICTED.value, 0.15),
        (NatMode.PORT_RESTRICTED.value, 0.30),
        (NatMode.SYMMETRIC.value, 0.50),
    ),
}

#: The NAT mode of the cell's content publisher: the worst common mode
#: of each mix that the public getter can still reach.
PUBLISHER_MODE: dict[str, NatMode] = {
    "default": NatMode.PORT_RESTRICTED,
    "cone_heavy": NatMode.ADDRESS_RESTRICTED,
    "symmetric_heavy": NatMode.SYMMETRIC,
}

#: NAT mode of the retrieving node (``None`` = public). The
#: symmetric-heavy arm boxes the getter too: symmetric x symmetric is
#: the pair DCUtR cannot punch, so adoption buys nothing there and the
#: relay fallback carries the traffic — graded degradation, not a cliff.
GETTER_MODE: dict[str, NatMode | None] = {
    "default": None,
    "cone_heavy": None,
    "symmetric_heavy": NatMode.SYMMETRIC,
}

#: AutoNAT agreement floor, also asserted by the nat tier (``validate``).
AUTONAT_AGREEMENT_FLOOR = 0.95

#: Minimum retrieval success rate for any cell (relay fallback floor).
RELAY_SUCCESS_FLOOR = 0.75
PUNCH_SUCCESS_FLOOR = 0.5
#: How many public peers a cell's AutoNAT service probes from.
AUTONAT_HELPERS = 12
#: Bytes of the object each cell's NAT'ed pair publishes and retrieves.
OBJECT_SIZE = 16 * 1024
#: DCUtR hole-punching adoption per cell: none, then every peer.
ADOPTIONS = (0.0, 1.0)


@dataclass(frozen=True)
class NatSweepConfig:
    """Frozen inputs of one sweep run (the cache key for artifacts)."""

    seed: int = 42
    n_peers: int = 250
    crawl_hours: float = 2.0
    retrievals_per_cell: int = 5
    mixes: tuple[str, ...] = ("default", "cone_heavy", "symmetric_heavy")
    mapping_ttls: tuple[float, ...] = (DEFAULT_MAPPING_TTL_S, 30.0)


def bench_nat_config() -> NatSweepConfig:
    """The CI-sized sweep behind the committed ``BENCH_nat.json``."""
    return NatSweepConfig(
        seed=42,
        n_peers=250,
        crawl_hours=1.5,
        retrievals_per_cell=4,
    )


@dataclass
class NatCellResult:
    """Everything one (mix, adoption, ttl) cell measured."""

    seed: int
    mix: str
    adoption: float
    mapping_ttl_s: float
    boxed_peers: int
    #: ``None`` when no crawl saw a peer.
    undialable: float | None
    autonat_agreement: float
    autonat_checked: int
    attempted: int
    latencies: list[float] = field(default_factory=list)
    punches_attempted: int = 0
    punches_succeeded: int = 0
    relay_dials: int = 0
    direct_upgrades: int = 0

    @property
    def succeeded(self) -> int:
        return len(self.latencies)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0

    @property
    def ttfb_p50_s(self) -> float | None:
        if not self.latencies:
            return None
        (p50,) = percentiles(self.latencies, [50])
        return p50


def _measure_undialable(
    scenario: Scenario, config: NatSweepConfig
) -> float | None:
    return run_crawl_timeseries(
        scenario.world,
        CrawlCampaignConfig(
            duration_s=config.crawl_hours * 3600.0,
            seed=config.seed,
        ),
    ).undialable_fraction()


def _measure_autonat(
    scenario: Scenario, config: NatSweepConfig
) -> tuple[float, int]:
    """Classify every online backdrop peer; return (agreement, checked)."""
    world = scenario.world
    hosts = [world.host_at(index) for index in range(len(world))]
    # Probe helpers: public peers currently online, the handful of
    # always-on reliable ones first. Churning helpers can drop offline
    # mid-probe; the AutoNAT probe timeout abandons those probes.
    candidates = [
        index for index, host in enumerate(hosts)
        if host.nat is None and host.reachable
    ]
    candidates.sort(
        key=lambda index: world.compact.reachability_at(index) != "reliable"
    )
    helpers = [hosts[index].peer_id for index in candidates][:AUTONAT_HELPERS]

    agreements: list[bool] = []

    def classify_all():
        for host in hosts:
            if not host.online:
                continue
            candidates = [h for h in helpers if h != host.peer_id]
            public = yield from autonat_check(scenario.net, host, candidates)
            agreements.append(public == cold_dialable(host, scenario.sim.now))

    scenario.sim.run_process(classify_all())
    checked = len(agreements)
    agreement = sum(agreements) / checked if checked else 1.0
    return agreement, checked


def _run_cell(
    config: NatSweepConfig, mix_name: str, adoption: float, ttl: float
) -> NatCellResult:
    """One sweep cell in its own fresh world (picklable for sharding)."""
    nat_world = NatWorldConfig(
        mix=MIXES[mix_name], punch_adoption=adoption, mapping_ttl_s=ttl
    )
    scenario = build_world(
        config.n_peers, config.seed, "nat-sweep-pop", nat_world=nat_world
    )
    sim, net = scenario.sim, scenario.net
    world = scenario.world
    boxed = sum(
        1 for index in range(len(world)) if world.host_at(index).nat is not None
    )

    undialable = _measure_undialable(scenario, config)
    agreement, checked = _measure_autonat(scenario, config)

    def boxed_node(rng_label: str, region: str, mode: NatMode | None) -> IpfsNode:
        nat = None
        if mode is not None:
            nat = NatBox(
                mode,
                mapping_ttl_s=nat_world.mapping_ttl_s,
                keepalive_interval_s=DEFAULT_KEEPALIVE_INTERVAL_S,
                port_base=500_000,
            )
        node = IpfsNode(
            sim, net,
            derive_rng(config.seed, rng_label),
            region=AWS_REGION_MAP[region],
            peer_class=PeerClass.DATACENTER,
            nat=nat,
        )
        if nat is not None:
            node.host.dcutr = adoption > 0.0
            seed_keepalive_mapping(
                node.host, scenario.bootstrap_ids[0], sim.now
            )
            if scenario.circuit_dialer is not None:
                for relay_id in scenario.circuit_dialer.relay_ids()[:2]:
                    scenario.circuit_dialer.reserve(node.host, relay_id)
        return node

    publisher = boxed_node(
        "nat-sweep-pub", PUBLISHER_REGION, PUBLISHER_MODE[mix_name]
    )
    getter = boxed_node("nat-sweep-get", GETTER_REGION, GETTER_MODE[mix_name])

    payload = derive_rng(config.seed, "nat-sweep-object").randbytes(OBJECT_SIZE)
    root = publisher.add_bytes(payload).root
    traversal = scenario.traversal
    punches_before = (0, 0)
    if scenario.circuit_dialer is not None:
        punches_before = (
            scenario.circuit_dialer.punches_attempted,
            scenario.circuit_dialer.punches_succeeded,
        )
    outcomes: list[float | None] = []

    def driver():
        yield from join_network(publisher.dht, scenario.bootstrap_ids)
        yield from join_network(getter.dht, scenario.bootstrap_ids)
        yield from publisher.publish_peer_record()
        yield from publisher.publish(root)
        start = sim.now
        for index in range(config.retrievals_per_cell):
            slot = start + index * RETRIEVAL_SPACING_S
            if slot > sim.now:
                yield slot - sim.now
            outcomes.append((yield from cold_retrieve(getter, publisher, root)))

    sim.run_process(driver())
    dialer = scenario.circuit_dialer
    return NatCellResult(
        seed=config.seed,
        mix=mix_name,
        adoption=adoption,
        mapping_ttl_s=ttl,
        boxed_peers=boxed,
        undialable=undialable,
        autonat_agreement=agreement,
        autonat_checked=checked,
        attempted=len(outcomes),
        latencies=[latency for latency in outcomes if latency is not None],
        punches_attempted=(
            dialer.punches_attempted - punches_before[0]
            if dialer is not None
            else 0
        ),
        punches_succeeded=(
            dialer.punches_succeeded - punches_before[1]
            if dialer is not None
            else 0
        ),
        relay_dials=traversal.relay_dials if traversal is not None else 0,
        direct_upgrades=(
            traversal.upgrades_succeeded if traversal is not None else 0
        ),
    )


@dataclass
class NatSweepResults:
    config: NatSweepConfig
    cells: list[NatCellResult] = field(default_factory=list)

    def cell(self, mix: str, adoption: float, ttl: float) -> NatCellResult:
        for cell in self.cells:
            if (
                cell.mix == mix
                and cell.adoption == adoption
                and cell.mapping_ttl_s == ttl
            ):
                return cell
        raise KeyError(f"no cell ({mix}, {adoption}, {ttl})")


def run_nat_sweep(
    config: NatSweepConfig | None = None, workers: int = 1
) -> NatSweepResults:
    """Run the full grid; cell order (and bytes) are worker-invariant."""
    config = config if config is not None else NatSweepConfig()
    cells = [
        Cell(
            label=f"nat:{mix}:adopt={adoption}:ttl={ttl}",
            fn=_run_cell,
            args=(config, mix, adoption, ttl),
        )
        for mix in config.mixes
        for adoption in ADOPTIONS
        for ttl in config.mapping_ttls
    ]
    results = run_cells(cells, workers=workers)
    return NatSweepResults(config=config, cells=list(results))


#: Held by ``benchmarks/e2e/seams.py``; the row type is
#: :class:`repro.validation.report.Claim`.
GradedClaim = Claim

#: What a cell publishes (see :func:`repro.validation.report.cell_field`).
CELL_FIELDS = (
    "mix:", "adoption:.1f", "mapping_ttl_s:.0f", "boxed_peers",
    "undialable:.3f", "autonat_agreement:.3f", "autonat_checked",
    "attempted:", "succeeded:", "success_rate", "ttfb_p50_s:.2f",
    "punches_attempted:", "punches_succeeded:", "relay_dials",
    "direct_upgrades",
)


def grade_sweep(results: NatSweepResults) -> GradedReport:
    """Grade the four claims the sweep is designed to check."""
    config = results.config
    default_ttl = config.mapping_ttls[0]
    baseline = results.cell("default", ADOPTIONS[0], default_ttl)

    target = TARGETS_BY_KEY["peer.undialable_fraction"]
    min_agreement = min(cell.autonat_agreement for cell in results.cells)
    # DCUtR upgrades must actually land when both sides speak the
    # protocol: grade the punch success rate of the fully-adopted
    # default-mix cell.  The default mix leaves ~60 % of boxed pairs
    # punchable (cone x cone and cone x symmetric), so a floor of
    # 0.5 with WARN slack down to 0.3 captures "hole punching works
    # where the NAT matrix says it can".
    adopted = results.cell("default", 1.0, default_ttl)
    if adopted.punches_attempted:
        punch_rate = adopted.punches_succeeded / adopted.punches_attempted
    else:
        punch_rate = 0.0
    min_success = min(cell.success_rate for cell in results.cells)
    claims = [
        Claim.graded(
            "nat.undialable_fraction", baseline.undialable, target.paper_value,
            target.grade(baseline.undialable),
            description=(
                "emergent undialable share of the default mix vs the "
                "paper's 45.5 % (Fig 4a / Section 5.3)"
            ),
        ),
        Claim.graded(
            "nat.autonat_agreement", min_agreement, AUTONAT_AGREEMENT_FLOOR,
            grade_at_least(min_agreement, AUTONAT_AGREEMENT_FLOOR, 0.05),
            description="worst-cell AutoNAT vs ground-truth agreement",
        ),
        Claim.graded(
            "nat.punch_success_rate", punch_rate, PUNCH_SUCCESS_FLOOR,
            grade_at_least(punch_rate, PUNCH_SUCCESS_FLOOR, 0.2),
            description=(
                "DCUtR hole-punch success rate with full adoption "
                "(emergent from the NAT-type compatibility matrix)"
            ),
        ),
        Claim.graded(
            "nat.relay_fallback_success", min_success, RELAY_SUCCESS_FLOOR,
            grade_at_least(min_success, RELAY_SUCCESS_FLOOR, 0.3),
            description=(
                "worst-cell retrieval success from a NAT'ed publisher "
                "(relay fallback keeps content reachable)"
            ),
        ),
    ]
    return GradedReport("nat", config, results.cells, CELL_FIELDS, claims)
