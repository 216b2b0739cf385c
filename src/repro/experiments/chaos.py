"""The chaos experiment: retrieval under injected faults, arm by arm.

The paper evaluates IPFS in its network's steady state; this experiment
asks how retrieval *degrades* when the network misbehaves, and what
each layer of protection buys back. The arms are the rungs of the
protection ladder (:data:`ARMS`, one :attr:`NodeConfig.protection
<repro.node.config.NodeConfig.protection>` value each): ``bare`` is the
seed's fire-and-forget stack, ``retry`` adds retry/backoff everywhere,
``resilient`` adds the :mod:`repro.resilience` layer (breakers,
hedging, adaptive deadlines, degraded-mode fallbacks) on top of the
retries. Two sweeps
(:data:`SWEEPS`) run arms of that ladder across a fault intensity:

- ``loss`` — a *static* world under silent RPC loss, ``bare`` vs
  ``retry``: the delta is the value of blindly paying for failures;
- ``recovery`` — a *churning* world (Fig 8: median sessions under 10
  minutes) under a loss + reset + malformed-reply diet, ``retry`` vs
  ``resilient``: the delta is what *learning about failures* buys
  beyond retrying them, plus retrievals of content that is cached near
  its key but announced by nobody, which only the fallback broadcast
  can find.

Protocol per (arm, intensity) level: build a fresh world, publish one
object from the EU vantage node in calm weather, install the fault
plan, then have the US vantage node retrieve it repeatedly, cold every
time (:func:`cold_retrieve`). Levels are independent cells — every RNG
stream derives from the seed, the arm and the intensity — so
:func:`run_chaos` shards them over any number of workers with
identical results, and :func:`grade_chaos` turns the sweep's expected
shapes into claims (``chaos`` / ``chaos-recovery`` subcommands,
``BENCH_chaos.json`` / ``BENCH_chaos_recovery.json``).
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Callable, Generator, Mapping
from dataclasses import dataclass
from typing import Any

from repro.blockstore.memory import MemoryBlockstore
from repro.dht.keyspace import key_for_cid, key_for_peer, xor_distance
from repro.errors import ReproError
from repro.experiments.datasets import build_world
from repro.experiments.runner import run_cells, sweep_cells
from repro.experiments.scenario import Scenario
from repro.merkledag.builder import DagBuilder
from repro.node.config import NodeConfig
from repro.obs import Observability
from repro.resilience import PROTECTIONS
from repro.simnet.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.simnet.network import NetworkStats
from repro.simnet.sim import with_timeout
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.validation.compare import Grade
from repro.validation.report import Claim, GradedReport

#: One fixed publisher/getter pair (the perf experiment rotates all six
#: regions; the sweeps hold the path constant so fault intensity is the
#: only variable).
PUBLISHER_REGION = "eu_central_1"
GETTER_REGION = "us_west_1"

OBJECT_SIZE = 64 * 1024
#: Simulated seconds before an unfinished retrieval counts as failed (a
#: lost want with no retry never settles on its own).
RETRIEVAL_BUDGET_S = 180.0
#: The attack and NAT sweeps pin retrieval start times to this grid
#: (measured from the incident start), so both arms sample the *same*
#: points of the timeline — back-to-back retrievals would let an arm
#: whose failures burn more simulated time drift into calmer weather
#: and look better for it.
RETRIEVAL_SPACING_S = 130.0
#: How many near-key dialable peers cache the unannounced object.
UNANNOUNCED_REPLICAS = 8


#: The ladder, weakest first: each arm is the protection rung every
#: vantage node of its worlds runs (the backdrop stays ``bare``). A
#: rung is all of its mechanisms at once; see
#: :data:`repro.resilience.core.PROTECTIONS`.
ARMS = PROTECTIONS

#: Summed over the vantage nodes' ``ResilienceStats`` into each level
#: (zero below the ``resilient`` arm by construction).
RESILIENCE_COUNTERS = (
    "breaker_opened", "breaker_skips", "hedges_launched", "hedge_wins",
    "fallback_broadcasts", "fallback_hits", "adaptive_deadlines",
)


def mixed_fault_plan(intensity: float) -> FaultPlan:
    """A fault diet at overall probability ``intensity`` per RPC.

    60 % of the budget is silent loss, 20 % mid-RPC resets, 20 %
    malformed replies — covering the distinct failure signatures the
    resilience layer must handle (timeout, fast error, garbage that
    must not count as success).
    """
    if intensity <= 0.0:
        return FaultPlan.of()
    return FaultPlan.of(
        FaultRule(FaultKind.LOSS, 0.6 * intensity),
        FaultRule(FaultKind.RESET, 0.2 * intensity),
        FaultRule(FaultKind.MALFORMED, 0.2 * intensity),
    )


@dataclass(frozen=True)
class ChaosConfig:
    """One sweep; the defaults are the ``loss`` bench shape."""

    seed: int = 42
    n_peers: int = 300
    #: a row of :data:`SWEEPS`.
    sweep: str = "loss"
    #: per-RPC fault probabilities to sweep.
    intensities: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3)
    retrievals_per_level: int = 12
    #: Per level, extra retrievals of content that is *cached but not
    #: announced*: copies live on the peers closest to the key, but no
    #: provider record exists (the paper's re-provide problem — Section
    #: 6.4 measures providing as the dominant cost, and nodes that skip
    #: it leave their caches invisible to the DHT). Only the
    #: degraded-mode broadcast can find these.
    unannounced_retrievals: int = 0
    #: rungs of :data:`ARMS` to run; grading sets the last against the
    #: first.
    arms: tuple[str, ...] = ("bare", "retry")

    def __post_init__(self) -> None:
        if self.sweep not in SWEEPS:
            raise ReproError(
                f"unknown sweep {self.sweep!r} (choose from {', '.join(SWEEPS)})"
            )
        if not self.arms or not set(self.arms) <= set(ARMS):
            raise ReproError(
                f"arms must name rungs of {', '.join(ARMS)}, got {self.arms!r}"
            )
        # written so NaN is refused too
        if not self.intensities or not all(
            0.0 <= intensity <= 1.0 for intensity in self.intensities
        ):
            raise ReproError(
                f"intensities must be probabilities in [0, 1], got {self.intensities!r}"
            )
        if self.retrievals_per_level < 1:
            raise ReproError(
                f"retrievals_per_level must be at least 1, got {self.retrievals_per_level}"
            )


@dataclass
class ChaosLevel:
    """One (arm, intensity) level: outcomes plus what the protocol
    stack and the resilience layer did to get them."""

    arm: str
    intensity: float
    attempted: int
    #: successful *announced-content* retrieval latencies; the
    #: percentiles compare like-for-like across arms, so the
    #: unannounced retrievals (which only one arm can win) stay out.
    latencies: list[float]
    #: [p50, p90, p95] of ``latencies``; ``None`` with no success.
    latency_p50_s: float | None
    latency_p90_s: float | None
    latency_p95_s: float | None
    #: the cached-but-unannounced retrievals, reported apart (they
    #: count toward ``attempted`` / ``succeeded``).
    unannounced_attempted: int
    unannounced_succeeded: int
    faults_injected: int
    faults_by_kind: dict[str, int]
    retries_attempted: int
    rpcs_timed_out: int
    evictions: int
    #: the level's :class:`NetworkStats` at sweep end (each level runs
    #: its own world, so these are per-level counters).
    stats: NetworkStats
    breaker_opened: int = 0
    breaker_skips: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    fallback_broadcasts: int = 0
    fallback_hits: int = 0
    adaptive_deadlines: int = 0

    @property
    def succeeded(self) -> int:
        return len(self.latencies) + self.unannounced_succeeded

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0


def _drain_unpinned(node) -> None:
    for cid in list(node.blockstore.cids()):
        if not node.blockstore.is_pinned(cid):
            node.blockstore.delete(cid)


def cold_retrieve(getter, publisher, root) -> Generator[Any, Any, float | None]:
    """One retrieval of ``root`` that pays the full discovery + dial +
    Bitswap path: ``getter`` first drops its connections, what it knows
    of ``publisher`` and every unpinned block. Returns the latency, or
    ``None`` when the retrieval failed or outlived
    :data:`RETRIEVAL_BUDGET_S`."""
    sim = getter.sim
    getter.disconnect_all()
    getter.address_book.forget(publisher.peer_id)
    _drain_unpinned(getter)
    started = sim.now
    process = sim.spawn(getter.retrieve(root))
    try:
        yield with_timeout(sim, process.future, RETRIEVAL_BUDGET_S)
    except Exception:  # noqa: BLE001 - a failed retrieval, count it
        return None
    return sim.now - started


def _seed_unannounced(config: ChaosConfig, label: str, scenario: Scenario):
    """Plant an object in near-key caches with *no* provider record.

    Builds a DAG nobody announces and copies its blocks into the caches
    of the ``UNANNOUNCED_REPLICAS`` dialable backdrop peers closest to
    the root's DHT key — exactly the peers a provider walk for that key
    converges on. The walk finds no records (there are none), so only
    the degraded-mode broadcast over the connections the walk opened
    can discover the copies. Returns the root CID.
    """
    store = MemoryBlockstore()
    payload = derive_rng(config.seed, f"{label}-unannounced").randbytes(OBJECT_SIZE)
    root = DagBuilder(store).add_bytes(payload).root
    target = key_for_cid(root)
    world = scenario.world
    dialable = [
        index for index in range(len(world)) if not world.host_at(index).nat_private
    ]
    dialable.sort(
        key=lambda index: xor_distance(target, key_for_peer(world.peer_id_at(index)))
    )
    for index in dialable[:UNANNOUNCED_REPLICAS]:
        cache = world.engine_at(index).blockstore
        for cid in list(store.cids()):
            cache.put(store.get(cid))
    return root


def play_level(
    config: ChaosConfig,
    arm: str,
    intensity: float,
    obs: Observability | None = None,
) -> tuple[Scenario, FaultInjector, list[float | None], list[float | None]]:
    """Build one level's fresh world and run its retrievals.

    Returns the world, its injector and the announced and unannounced
    retrieval outcomes. The simulation stops the instant the last
    retrieval ends; a caller that wants settled counters keeps running
    ``scenario.sim`` itself.
    """
    sweep = SWEEPS[config.sweep]
    label = sweep.label
    scenario = build_world(
        config.n_peers, config.seed, f"{label}-pop",
        [PUBLISHER_REGION, GETTER_REGION],
        with_churn=sweep.churn, node_config=NodeConfig(protection=arm),
    )
    sim, net = scenario.sim, scenario.net
    if obs is not None:
        net.install_observability(obs)
    publisher = scenario.vantage[PUBLISHER_REGION]
    getter = scenario.vantage[GETTER_REGION]
    injector = FaultInjector(
        sweep.plan(intensity),
        derive_rng(
            config.seed, f"{label}-faults", f"{intensity:g}",
            sweep.fault_tags.get(arm, arm),
        ),
    )
    outcomes: list[float | None] = []
    unannounced: list[float | None] = []

    def driver() -> Generator:
        # Publish in calm weather: the incident starts after the object
        # is announced, so the sweep measures retrieval degradation
        # rather than publication noise compounding it.
        for node in scenario.vantage.values():
            yield from node.publish_peer_record()
        payload = derive_rng(config.seed, f"{label}-object").randbytes(OBJECT_SIZE)
        root = publisher.add_bytes(payload).root
        yield from publisher.publish(root)
        net.install_faults(injector)
        for _ in range(config.retrievals_per_level):
            outcomes.append((yield from cold_retrieve(getter, publisher, root)))
        if config.unannounced_retrievals > 0:
            hidden = _seed_unannounced(config, label, scenario)
            for _ in range(config.unannounced_retrievals):
                unannounced.append(
                    (yield from cold_retrieve(getter, publisher, hidden))
                )

    sim.run_process(driver())
    return scenario, injector, outcomes, unannounced


def run_level(
    config: ChaosConfig,
    arm: str,
    intensity: float,
    obs: Observability | None = None,
) -> ChaosLevel:
    """One arm at one intensity, in its own fresh world."""
    scenario, injector, outcomes, unannounced = play_level(
        config, arm, intensity, obs
    )
    net = scenario.net
    latencies = [latency for latency in outcomes if latency is not None]
    p50, p90, p95 = (
        percentiles(latencies, [50, 90, 95]) if latencies else (None, None, None)
    )
    vantage = list(scenario.vantage.values())
    evictions = sum(
        node.routing_table.evictions for node in scenario.world.nodes.values()
    )
    evictions += sum(node.dht.routing_table.evictions for node in vantage)
    return ChaosLevel(
        arm=arm,
        intensity=intensity,
        attempted=len(outcomes) + len(unannounced),
        latencies=latencies,
        latency_p50_s=p50,
        latency_p90_s=p90,
        latency_p95_s=p95,
        unannounced_attempted=len(unannounced),
        unannounced_succeeded=sum(
            latency is not None for latency in unannounced
        ),
        faults_injected=net.stats.faults_injected,
        faults_by_kind=dict(injector.stats.by_kind),
        retries_attempted=net.stats.retries_attempted,
        rpcs_timed_out=net.stats.rpcs_timed_out,
        evictions=evictions,
        stats=dataclasses.replace(net.stats),
        **{
            name: sum(getattr(node.resilience.stats, name) for node in vantage)
            for name in RESILIENCE_COUNTERS
        },
    )


def run_chaos(config: ChaosConfig, workers: int = 1) -> list[ChaosLevel]:
    """Every (arm, intensity) level of the sweep, arm-major; one pool
    shares all of them, and the levels are identical for any
    ``workers``."""
    return run_cells(
        sweep_cells(
            SWEEPS[config.sweep].label, run_level, config,
            config.arms, config.intensities,
        ),
        workers,
    )


# -- grading --------------------------------------------------------------------

#: The recovery claims about latency, breakers and hedges are made
#: where the faults are meaningful.
HOT_INTENSITY = 0.2
#: Where the loss sweep asks that retries strictly beat fire-and-forget.
RETRY_GAIN_INTENSITY = 0.1

#: What a level publishes (see :func:`repro.validation.report.cell_field`).
CELL_FIELDS = (
    "arm:", "intensity:.2f", "attempted", "succeeded", "success_rate:.0%",
    "latency_p50_s:.1f", "latency_p90_s:.1f", "latency_p95_s:.1f",
    "unannounced_attempted", "unannounced_succeeded:", "faults_injected:",
    "faults_by_kind", "retries_attempted:", "rpcs_timed_out", "evictions:",
    "breaker_opened:", "breaker_skips", "hedges_launched:", "hedge_wins",
    "fallback_broadcasts:", "fallback_hits:", "adaptive_deadlines:",
)


def _claim(
    key: str, scope: str, measured, holds: Callable[[Any, Any], bool],
    expected, description: str,
) -> Claim:
    """``measured`` set against ``expected`` by the ordering ``holds``:
    the sweeps' claims compare one level with another, not a number
    with the paper's. A quantity a level could not produce (a
    percentile of no successes) FAILs."""
    ok = measured is not None and expected is not None and holds(measured, expected)
    return Claim(
        key,
        None if measured is None else float(measured),
        None if expected is None else float(expected),
        Grade.PASS if ok else Grade.FAIL,
        scope=scope, description=description,
    )


def _grade_loss(intensities, base, treated) -> list[Claim]:
    calm, peak = min(intensities), max(intensities)
    claims = [_claim(
        "chaos.degradation", "", base[peak].success_rate, operator.le,
        base[calm].success_rate,
        f"baseline success at {peak:.0%} loss is no better than at {calm:.0%}",
    )]
    if RETRY_GAIN_INTENSITY in base:
        claims.append(_claim(
            "chaos.retry_gain", f"loss@{RETRY_GAIN_INTENSITY:g}",
            treated[RETRY_GAIN_INTENSITY].succeeded, operator.gt,
            base[RETRY_GAIN_INTENSITY].succeeded,
            "retries beat fire-and-forget at 10% loss (retrievals succeeded)",
        ))
    claims += [
        _claim(
            "chaos.faults_injected", f"loss@{intensity:g}",
            base[intensity].faults_injected, operator.gt, 0,
            "faults were actually injected at a non-zero level",
        )
        for intensity in intensities if intensity > 0
    ]
    return claims


def _grade_recovery(intensities, base, treated) -> list[Claim]:
    hot = [intensity for intensity in intensities if intensity >= HOT_INTENSITY]
    scope = "recovery@{:g}".format
    claims = [
        _claim(
            "recovery.success_rate", scope(i), treated[i].success_rate,
            operator.ge, base[i].success_rate,
            "at >=20% faults the resilient arm succeeds at least as often",
        )
        for i in hot
    ] + [
        _claim(
            "recovery.latency_p95_s", scope(i), treated[i].latency_p95_s,
            operator.lt, base[i].latency_p95_s,
            "at >=20% faults the resilient arm has a lower p95",
        )
        for i in hot
    ]
    if hot:
        claims += [
            _claim(
                f"recovery.{counter}", "",
                sum(getattr(treated[i], counter) for i in hot), operator.gt, 0,
                f"{counter.replace('_', ' ')} at >=20% faults",
            )
            for counter in ("breaker_opened", "hedges_launched")
        ]
    claims.append(_claim(
        "recovery.fallback_hits", "",
        max(
            min(treated[i].fallback_broadcasts, treated[i].fallback_hits)
            for i in intensities
        ),
        operator.gt, 0,
        "at some level fallback broadcasts both fired and hit",
    ))
    claims += [
        _claim(
            "recovery.unannounced_rescued", scope(i),
            treated[i].unannounced_succeeded, operator.gt,
            base[i].unannounced_succeeded,
            "only fallbacks rescue cached-but-unannounced content",
        )
        for i in intensities
    ] + [
        _claim(
            "recovery.baseline_resilience_events", scope(i),
            base[i].breaker_opened + base[i].hedges_launched
            + base[i].fallback_broadcasts + base[i].adaptive_deadlines,
            operator.eq, 0,
            "the baseline arm keeps every resilience counter at zero",
        )
        for i in intensities
    ]
    return claims


def grade_chaos(config: ChaosConfig, levels: list[ChaosLevel]) -> GradedReport:
    """The sweep's expected shapes as claims: the last arm of
    ``config.arms`` set against the first, one scope per intensity
    where the shape is asked of every level."""
    by_arm: dict[str, dict[float, ChaosLevel]] = {arm: {} for arm in config.arms}
    for level in levels:
        by_arm[level.arm][level.intensity] = level
    sweep = SWEEPS[config.sweep]
    claims = sweep.grade(
        config.intensities, by_arm[config.arms[0]], by_arm[config.arms[-1]]
    )
    return GradedReport(
        sweep.label.replace("-", "_"), config, levels, CELL_FIELDS, claims
    )


@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`: the world, the fault diet and the
    claims — and the names the two modules this one replaced gave their
    RNG streams, kept so every level is bit-identical to theirs."""

    #: churn the backdrop while retrieving.
    churn: bool
    plan: Callable[[float], FaultPlan]
    grade: Callable[..., list[Claim]]
    #: prefix of the population / object / fault-stream rng labels, and
    #: (``BENCH_<label>.json``) the artifact's ``experiment``.
    label: str
    #: arm -> the tag its fault stream is derived under (an arm the
    #: sweep never ran before uses its own name).
    fault_tags: Mapping[str, str]


SWEEPS: dict[str, Sweep] = {
    "loss": Sweep(
        False, FaultPlan.rpc_loss, _grade_loss,
        "chaos", {"bare": "baseline", "retry": "retries"},
    ),
    "recovery": Sweep(
        True, mixed_fault_plan, _grade_recovery,
        "chaos-recovery", {"retry": "baseline", "resilient": "resilient"},
    ),
}

#: The ``recovery`` bench shape (``chaos-recovery`` without flags).
RECOVERY = ChaosConfig(
    sweep="recovery", n_peers=250, intensities=(0.0, 0.2, 0.3),
    retrievals_per_level=8, unannounced_retrievals=3,
    arms=("retry", "resilient"),
)
