"""Flash crowds against the gateway fleet: run, measure, grade.

Protocol per cell (one storm shape × one fleet arm): build a fresh
world where a *HOME-class* publisher (2.5 MB/s uplink — the choke
point) hosts the catalogue, front it with ``n_gateways`` DATACENTER
bridge nodes behind the arm's fleet routing, then replay a
:mod:`repro.workloads.bursts` trace with one client process per
request, each abandoning at ``deadline_s`` (the browser giving up).

Arms:

- **stock** — plain bridges behind DNS round-robin (the paper's
  Section 3.4 arrangement): every cache miss walks the DHT and
  refetches, no admission control, no failover, and the rotation
  lands every hot CID on *every* gateway, so the fleet fetches each
  object up to ``n_gateways`` times. The duplicate and rotated misses
  serialize on the publisher's uplink and the spike blows through the
  deadline.
- **hardened** — the overload-safe fleet: consistent-hash routing
  (one upstream fetch per object fleet-wide), single-flight
  coalescing, bounded in-flight misses with a byte-bounded deadline
  queue (overflow/deadline sheds are fast 503s, logged as ``SHED``),
  brownout under queue saturation, health-checked failover, and a
  fleet-shared provider-hint cache so failover targets skip cold DHT
  walks.

The diurnal-storm cells additionally take gateway 0 offline inside the
storm window: the stock arm eats the outage (its hash range hard-fails)
while the hardened arm detects and routes around it.

Metrics per cell: goodput (served within deadline / attempted),
answered fraction (1 - shed share), censored latency percentiles
(unserved non-shed requests count at the deadline — completed-only
percentiles would flatter the arm that times out most), duplicate
upstream launches per (gateway, CID), and the overload/fleet counters.

Cells are sharded through :func:`repro.experiments.runner.run_cells`;
every RNG stream derives from the seed and the cell's own labels, so
the assembled results are byte-identical for any ``workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dht.bootstrap import populate_routing_tables
from repro.errors import ReproError
from repro.experiments.runner import Cell, run_cells
from repro.gateway.bridge import GatewayBridge
from repro.gateway.fleet import FleetConfig, GatewayFleet
from repro.gateway.overload import OverloadConfig, ProviderHintCache
from repro.node.host import IpfsNode
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator, with_timeout
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.validation.compare import Grade, grade_at_least
from repro.validation.report import Claim, GradedReport
from repro.workloads.bursts import (
    DiurnalStormConfig,
    NftDropConfig,
    generate_diurnal_storm,
    generate_nft_drop,
)

#: Acceptance floor: hardened goodput over stock goodput at peak spike.
GOODPUT_RATIO_FLOOR = 2.0
#: Goodput-ratio floor for the outage storm (failover vs hard-fail).
STORM_GOODPUT_RATIO_FLOOR = 1.2
#: The hardened arm may shed at most a quarter of all requests.
ANSWERED_FRACTION_FLOOR = 0.75
#: Stock goodput before the spike lands (the quiet-world sanity floor).
BASELINE_GOODPUT_FLOOR = 0.9
#: Ratio cap so an all-but-dead stock arm still yields finite JSON.
RATIO_CAP = 99.0


#: The two fleet arms every storm runs against; the claims grade the
#: second against the first.
ARMS = ("stock", "hardened")
#: What the hardened arm's bridges and fleet run with (stock: neither).
HARDENED_OVERLOAD = OverloadConfig(
    max_inflight_misses=6,
    queue_capacity_bytes=4 * 1024 * 1024,
    queue_deadline_s=5.0,
    brownout_threshold=0.75,
)
HARDENED_FLEET = FleetConfig(probe_interval_s=1.0)
#: per-gateway nginx cache (large enough to hold the catalogue — the
#: experiment stresses the miss path, not eviction).
CACHE_CAPACITY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class FlashCrowdConfig:
    seed: int = 7
    n_gateways: int = 3
    n_backdrop: int = 24
    #: every catalogue object is this big (one object's transfer
    #: occupies the HOME publisher's 2.5 MB/s uplink for ~0.2 s, so the
    #: spike's distinct-object demand exceeds uplink capacity ~5x).
    object_size: int = 512 * 1024
    #: simulated seconds a client waits before abandoning its request.
    deadline_s: float = 8.0
    nft_drop: NftDropConfig = field(default_factory=NftDropConfig)
    storm: DiurnalStormConfig = field(default_factory=DiurnalStormConfig)
    #: gateway 0 goes offline inside the diurnal storm window: this
    #: long after the storm starts, for this long.
    outage_offset_s: float = 5.0
    outage_duration_s: float = 25.0
    storms: tuple[str, ...] = ("nft_drop", "diurnal_storm")


def bench_overload_config() -> FlashCrowdConfig:
    """The configuration frozen into ``BENCH_overload.json`` (CI-sized)."""
    return FlashCrowdConfig(seed=7)


@dataclass
class FlashCellResult:
    """Outcomes and telemetry of one (storm, arm) cell."""

    storm: str
    arm: str
    attempted: int
    served: int
    shed: int
    failed: int
    #: requests inside the storm window (the NFT drop's hot-set spike,
    #: the diurnal storm's surge) — where the acceptance bar applies.
    spike_attempted: int
    spike_served: int
    #: served/attempted among requests arriving before the spike.
    pre_spike_goodput: float
    #: censored latency percentiles over non-shed requests.
    latency_p50: float
    latency_p95: float
    latency_p99: float
    #: upstream launches beyond the first per (gateway, CID).
    duplicate_launches: int
    #: duplicates restricted to the NFT drop's hot set.
    hot_duplicate_launches: int
    coalesced_joins: int
    single_flights: int
    brownout_stale_served: int
    brownout_paths_dropped: int
    hint_fetches: int
    hint_fallbacks: int
    failovers: int
    marked_offline: int
    down_errors: int

    @property
    def goodput(self) -> float:
        """Requests served within the client deadline, per attempted."""
        return self.served / self.attempted if self.attempted else 0.0

    @property
    def spike_goodput(self) -> float:
        """Goodput restricted to the storm window — the number the
        acceptance criterion (hardened >= 2x stock at peak spike)
        binds. Whole-trace goodput dilutes the collapse with quiet
        baseline traffic."""
        if not self.spike_attempted:
            return 0.0
        return self.spike_served / self.spike_attempted

    @property
    def answered_fraction(self) -> float:
        """1 - shed share: how much traffic got a real answer or at
        least a real try (timeouts count; fast 503s do not)."""
        if not self.attempted:
            return 0.0
        return 1.0 - self.shed / self.attempted


def _run_cell(
    config: FlashCrowdConfig, storm_name: str, arm_name: str
) -> FlashCellResult:
    """One (storm, arm) cell in its own fresh world (picklable)."""
    hardened = arm_name == "hardened"

    # The world derives from (seed, storm) only — both arms face the
    # same peers, the same catalogue and the same request trace; the
    # treatment is the overload machinery, nothing else.
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(config.seed, "flash-net", storm_name))
    world_rng = derive_rng(config.seed, "flash-world", storm_name)
    publisher = IpfsNode(
        sim, net, derive_rng(config.seed, "flash-pub", storm_name),
        region=Region.EU, peer_class=PeerClass.HOME,
    )
    gateway_nodes = [
        IpfsNode(
            sim, net, derive_rng(config.seed, "flash-gw", storm_name, str(index)),
            region=Region.NA_WEST, peer_class=PeerClass.DATACENTER,
        )
        for index in range(config.n_gateways)
    ]
    backdrop = [
        IpfsNode(
            sim, net, derive_rng(config.seed, "flash-bg", storm_name, str(index)),
            region=world_rng.choice(list(Region)),
        )
        for index in range(config.n_backdrop)
    ]
    populate_routing_tables(
        [n.dht for n in [publisher, *gateway_nodes, *backdrop]], world_rng
    )

    if storm_name == "nft_drop":
        requests = generate_nft_drop(
            config.nft_drop, derive_rng(config.seed, "flash-trace", storm_name)
        )
        n_objects = config.nft_drop.n_objects
        n_hot = config.nft_drop.n_hot_objects
        spike_start = config.nft_drop.drop_at_s
    elif storm_name == "diurnal_storm":
        requests = generate_diurnal_storm(
            config.storm, derive_rng(config.seed, "flash-trace", storm_name)
        )
        n_objects = config.storm.n_objects
        n_hot = 0
        spike_start = config.storm.storm_start_s
    else:
        raise ReproError(f"unknown storm: {storm_name!r}")

    payload_rng = derive_rng(config.seed, "flash-objects", storm_name)
    payloads = [
        payload_rng.randbytes(config.object_size) for _ in range(n_objects)
    ]

    hints = ProviderHintCache() if hardened else None
    bridges = [
        GatewayBridge(
            node,
            cache_capacity_bytes=CACHE_CAPACITY_BYTES,
            overload=HARDENED_OVERLOAD if hardened else None,
            provider_hints=hints,
        )
        for node in gateway_nodes
    ]
    fleet = GatewayFleet(sim, bridges, HARDENED_FLEET if hardened else None)

    #: (latency or None, was_shed) per request index.
    outcomes: list[tuple[float | None, bool] | None] = [None] * len(requests)

    def client(index, request, cid):
        started = sim.now
        process = sim.spawn(
            fleet.get(
                cid, user=request.user, country=request.country,
                size_hint=config.object_size,
            )
        )
        try:
            response = yield with_timeout(sim, process.future, config.deadline_s)
        except Exception:  # noqa: BLE001 - abandoned or errored, count it
            outcomes[index] = (None, False)
        else:
            outcomes[index] = (sim.now - started, response.shed)

    def driver():
        yield from publisher.publish_peer_record()
        cids = []
        for payload in payloads:
            root, _ = yield from publisher.add_and_publish(payload)
            cids.append(root)
        replay_start = sim.now
        horizon = (
            config.nft_drop.duration_s if storm_name == "nft_drop"
            else config.storm.duration_s
        )
        if storm_name == "diurnal_storm":
            victim = gateway_nodes[0].host
            outage_at = config.storm.storm_start_s + config.outage_offset_s
            sim.schedule(outage_at, lambda: victim.set_online(False))
            sim.schedule(
                outage_at + config.outage_duration_s,
                lambda: victim.set_online(True),
            )
        if hardened:
            sim.spawn(fleet.run_probes(replay_start + horizon))
        futures = []
        for index, request in enumerate(requests):
            target = replay_start + request.timestamp
            if target > sim.now:
                yield target - sim.now
            futures.append(
                sim.spawn(
                    client(index, request, cids[request.object_index])
                ).future
            )
        for future in futures:
            # Skip settled futures without yielding: a yield on a done
            # future resumes the generator inline, and draining
            # hundreds of them would recurse one stack frame each.
            if future.done:
                continue
            try:
                yield future
            except Exception:  # noqa: BLE001 - client already recorded it
                pass
        return cids

    cids = sim.run_process(driver())
    sim.run()  # drain abandoned retrievals still in flight

    served = sum(
        1 for outcome in outcomes
        if outcome is not None and outcome[0] is not None and not outcome[1]
    )
    shed = sum(1 for outcome in outcomes if outcome is not None and outcome[1])
    failed = len(requests) - served - shed
    pre_spike = [
        outcome
        for request, outcome in zip(requests, outcomes)
        if request.timestamp < spike_start and outcome is not None
    ]
    pre_spike_served = sum(
        1 for latency, was_shed in pre_spike
        if latency is not None and not was_shed
    )
    spike = [
        outcome
        for request, outcome in zip(requests, outcomes)
        if request.hot and outcome is not None
    ]
    spike_served = sum(
        1 for latency, was_shed in spike
        if latency is not None and not was_shed
    )
    censored = [
        latency if latency is not None else config.deadline_s
        for outcome in outcomes
        if outcome is not None
        for latency, was_shed in [outcome]
        if not was_shed
    ]
    if censored:
        p50, p95, p99 = percentiles(censored, [50, 95, 99])
    else:
        p50 = p95 = p99 = config.deadline_s

    hot_cids = cids[:n_hot]
    duplicates = sum(bridge.duplicate_launches for bridge in bridges)
    hot_duplicates = sum(
        max(0, bridge.upstream_launches.get(cid, 0) - 1)
        for bridge in bridges
        for cid in hot_cids
    )
    totals = fleet.overload_totals()
    return FlashCellResult(
        storm=storm_name,
        arm=arm_name,
        attempted=len(requests),
        served=served,
        shed=shed,
        failed=failed,
        spike_attempted=len(spike),
        spike_served=spike_served,
        pre_spike_goodput=(
            pre_spike_served / len(pre_spike) if pre_spike else 1.0
        ),
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        duplicate_launches=duplicates,
        hot_duplicate_launches=hot_duplicates,
        coalesced_joins=totals["coalesced_joins"],
        single_flights=totals["single_flights"],
        brownout_stale_served=totals["brownout_stale_served"],
        brownout_paths_dropped=totals["brownout_paths_dropped"],
        hint_fetches=totals["hint_fetches"],
        hint_fallbacks=totals["hint_fallbacks"],
        failovers=fleet.stats.failovers,
        marked_offline=fleet.stats.marked_offline,
        down_errors=fleet.stats.down_errors,
    )


@dataclass
class FlashCrowdResults:
    config: FlashCrowdConfig
    cells: list[FlashCellResult] = field(default_factory=list)

    def cell(self, storm: str, arm: str) -> FlashCellResult:
        for cell in self.cells:
            if cell.storm == storm and cell.arm == arm:
                return cell
        raise KeyError(f"no cell for ({storm!r}, {arm!r})")


def run_flash_crowd(
    config: FlashCrowdConfig | None = None, workers: int = 1
) -> FlashCrowdResults:
    """Run every (storm, arm) cell; shard across ``workers``.

    Cell order is storm-major; every cell derives its streams from the
    seed and its labels, so the assembled results are identical for
    any worker count.
    """
    config = config if config is not None else FlashCrowdConfig()
    cells = [
        Cell(f"flash[{storm}|{arm}]", _run_cell, (config, storm, arm))
        for storm in config.storms
        for arm in ARMS
    ]
    results = FlashCrowdResults(config=config)
    results.cells.extend(run_cells(cells, workers))
    return results


# ----------------------------------------------------------------------
# grading
# ----------------------------------------------------------------------


CELL_FIELDS = (
    "storm:", "arm:", "attempted:", "served", "shed:", "failed",
    "goodput:.2f", "spike_attempted", "spike_served", "spike_goodput:.2f",
    "answered_fraction", "pre_spike_goodput", "latency_p50", "latency_p95",
    "latency_p99:.1f", "duplicate_launches:", "hot_duplicate_launches",
    "coalesced_joins", "single_flights", "brownout_stale_served",
    "brownout_paths_dropped", "hint_fetches", "hint_fallbacks", "failovers",
    "marked_offline", "down_errors",
)


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return RATIO_CAP
    return min(RATIO_CAP, numerator / denominator)


def grade_flash_crowd(results: FlashCrowdResults) -> GradedReport:
    """Grade the hardened arm against stock, storm by storm."""
    claims: list[Claim] = []

    def floor(metric: str, storm: str, measured: float, minimum: float, slack: float):
        claims.append(Claim.graded(
            f"overload.{metric}", measured, minimum,
            grade_at_least(measured, minimum, slack), scope=storm,
        ))

    for storm in results.config.storms:
        stock = results.cell(storm, "stock")
        hard = results.cell(storm, "hardened")
        floor(
            "spike_goodput_ratio", storm,
            _ratio(hard.spike_goodput, stock.spike_goodput),
            GOODPUT_RATIO_FLOOR if storm == "nft_drop"
            else STORM_GOODPUT_RATIO_FLOOR,
            0.25,
        )
        floor(
            "answered_fraction", storm,
            hard.answered_fraction, ANSWERED_FRACTION_FLOOR, 0.15,
        )
        floor(
            "p99_ratio", storm,
            _ratio(stock.latency_p99, hard.latency_p99), 1.0, 0.2,
        )
        floor(
            "baseline_goodput", storm,
            stock.pre_spike_goodput, BASELINE_GOODPUT_FLOOR, 0.25,
        )

    if "nft_drop" in results.config.storms:  # the only storm with a hot set
        drop_hard = results.cell("nft_drop", "hardened")
        # Zero tolerance: single-flight must fully suppress duplicate
        # upstream retrievals of the hot set, and must actually have
        # coalesced something (a vacuous zero would also "pass").
        suppressed = (
            drop_hard.hot_duplicate_launches == 0
            and drop_hard.coalesced_joins > 0
        )
        claims.append(Claim(
            "overload.hot_duplicate_launches",
            float(drop_hard.hot_duplicate_launches), 0.0,
            Grade.PASS if suppressed else Grade.FAIL, scope="nft_drop",
        ))
    return GradedReport(
        "overload", results.config, results.cells, CELL_FIELDS, claims
    )
