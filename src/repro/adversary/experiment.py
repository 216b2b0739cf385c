"""The attack×defense matrix: run, measure, grade.

Protocol per cell (one attack spec × one defense arm): build a fresh
static world, place the attacker, publish one object from the EU
vantage node, unleash the incident, then retrieve repeatedly from the
US vantage node — chaos-sweep style, with the getter's connections,
address book and blocks dropped between attempts so every retrieval
pays the full discovery + dial + Bitswap path. Degradation is measured
as retrieval success rate, p50/p95 time-to-fetch, and dialability.

Grading (per attack kind, against the ``none``/``off`` clean cell):

- *recovery* — the defended arm must win back at least half of the
  success rate the attack suppressed (PASS at >= 50 %, WARN to 25 %);
  an attack that barely bites (suppression <= 5 pp) passes trivially;
- *slowdown* — defended-arm median fetch time must stay within
  ``TTFB_SLOWDOWN_CAP`` (15x) of the clean median (WARN to 30x);
- *dialability* — the defended arm's dial success ratio must hold at
  least ``DIALABILITY_FLOOR`` (30 %) of the clean world's.

Cells are sharded through :func:`repro.experiments.runner.run_cells`;
every cell derives its RNG streams from the seed and its own label, so
the matrix is byte-identical for any ``workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.attacks import (
    ATTACK_KINDS,
    AttackSpec,
    install_incident,
    install_placement,
)
from repro.adversary.defenses import DEFENSES, defense
from repro.dht.keyspace import key_for_cid
from repro.experiments.chaos import (
    GETTER_REGION,
    PUBLISHER_REGION,
    RETRIEVAL_SPACING_S,
    cold_retrieve,
)
from repro.experiments.datasets import build_world
from repro.experiments.runner import Cell, run_cells
from repro.simnet.faults import FaultInjector
from repro.utils.rng import derive_rng
from repro.utils.stats import percentiles
from repro.validation.compare import Grade, grade_at_least
from repro.validation.report import Claim, GradedReport

#: Suppression below this (in success-rate points) means the attack
#: did not measurably bite; recovery is then graded PASS trivially.
SUPPRESSION_EPSILON = 0.05

#: Defended-arm median fetch time may be at most this multiple of the
#: clean median before the slowdown grade degrades (WARN to 2x this).
#: Degraded-mode retrieval is *supposed* to be slow — retries, hedges
#: and republishes all trade latency for success — so the cap only
#: catches pathological stalls, not the expected 10x of heavy weather.
TTFB_SLOWDOWN_CAP = 15.0

#: Defended-arm dialability floor, as a fraction of clean dialability.
#: Attacks legitimately crater dial success (a churn storm's cohort is
#: offline when retried dials reach it); the floor catches collapse.
DIALABILITY_FLOOR = 0.3

#: Clean-cell success-rate floor (the matrix is meaningless if the
#: attack-free world cannot retrieve).
CLEAN_SUCCESS_FLOOR = 0.9


def default_attacks() -> tuple[AttackSpec, ...]:
    return tuple(AttackSpec(kind) for kind in ATTACK_KINDS)


@dataclass(frozen=True)
class AttackMatrixConfig:
    seed: int = 42
    n_peers: int = 160
    retrievals_per_cell: int = 6
    object_size: int = 32 * 1024
    attacks: tuple[AttackSpec, ...] = field(default_factory=default_attacks)


def matrix_config(
    kinds: tuple[str, ...] = ATTACK_KINDS, intensity: float = 1.0, **fields
) -> AttackMatrixConfig:
    """A matrix over ``kinds`` at one ``intensity``; the clean ``none``
    spec, which grading needs, is added when missing."""
    if "none" not in kinds:
        kinds = ("none", *kinds)
    attacks = tuple(
        AttackSpec(kind) if kind == "none" else AttackSpec(kind, intensity)
        for kind in kinds
    )
    return AttackMatrixConfig(attacks=attacks, **fields)


#: The severity grid frozen into ``BENCH_attack.json``: every attack
#: kind is graded at quarter, half and full strength, so a defense that
#: only works against all-out assault (or only against a nuisance
#: level) shows up as a FAIL at the other intensities.
BENCH_INTENSITIES = (0.25, 0.5, 1.0)


def bench_attacks() -> tuple[AttackSpec, ...]:
    """One clean spec plus every kind at every bench intensity."""
    specs = [AttackSpec("none")]
    for spec in default_attacks():
        if spec.kind == "none":
            continue
        specs.extend(
            AttackSpec(spec.kind, intensity=intensity)
            for intensity in BENCH_INTENSITIES
        )
    return tuple(specs)


def bench_attack_config() -> AttackMatrixConfig:
    """The configuration frozen into ``BENCH_attack.json`` (CI-sized)."""
    return AttackMatrixConfig(
        seed=42, n_peers=120, retrievals_per_cell=5, object_size=16 * 1024,
        attacks=bench_attacks(),
    )


@dataclass
class AttackCellResult:
    """Outcomes and telemetry of one (attack, defense) cell."""

    attack: str
    intensity: float
    defense: str
    attempted: int
    latencies: list[float] = field(default_factory=list)
    dials_attempted: int = 0
    dials_succeeded: int = 0
    faults_injected: int = 0
    retries_attempted: int = 0
    #: adversary-side counters (eclipse cells only).
    records_suppressed: int = 0
    queries_censored: int = 0

    @property
    def succeeded(self) -> int:
        return len(self.latencies)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 0.0

    @property
    def dialability(self) -> float:
        if self.dials_attempted == 0:
            return 0.0
        return self.dials_succeeded / self.dials_attempted

    @property
    def ttfb_p50(self) -> float | None:
        """Median successful retrieval duration."""
        return percentiles(self.latencies, [50])[0] if self.latencies else None

    @property
    def ttfb_p95(self) -> float | None:
        return percentiles(self.latencies, [95])[0] if self.latencies else None


def _run_cell(
    config: AttackMatrixConfig, attack: AttackSpec, defense_name: str
) -> AttackCellResult:
    """One matrix cell in its own fresh world (picklable for sharding)."""
    arm = defense(defense_name)
    scenario = build_world(
        config.n_peers, config.seed, "attack-pop",
        [PUBLISHER_REGION, GETTER_REGION],
        with_churn=False, node_config=arm.node_config(),
    )
    sim, net = scenario.sim, scenario.net
    publisher = scenario.vantage[PUBLISHER_REGION]
    getter = scenario.vantage[GETTER_REGION]
    payload = derive_rng(config.seed, "attack-object").randbytes(config.object_size)
    root = publisher.add_bytes(payload).root
    state = install_placement(attack, scenario, key_for_cid(root), config.seed)
    injector = None
    if state.plan.rules:
        injector = FaultInjector(
            state.plan,
            derive_rng(config.seed, "attack-faults", attack.label, defense_name),
        )
    outcomes: list[float | None] = []

    def driver():
        for node in scenario.vantage.values():
            yield from node.publish_peer_record()
        # Placement-phase fault rules (censoring intermediaries) are
        # live for the publication itself — dropping ADD_PROVIDER at
        # store time is the attack.
        if injector is not None and state.plan_phase == "placement":
            net.install_faults(injector)
        yield from publisher.publish(root)
        if injector is not None and state.plan_phase == "incident":
            net.install_faults(injector)
        install_incident(attack, scenario, config.seed)
        if arm.republishes:
            publisher.start_republisher()
        incident_start = sim.now
        for index in range(config.retrievals_per_cell):
            slot = incident_start + index * RETRIEVAL_SPACING_S
            if slot > sim.now:
                yield slot - sim.now
            outcomes.append((yield from cold_retrieve(getter, publisher, root)))

    sim.run_process(driver())
    return AttackCellResult(
        attack=attack.kind,
        intensity=attack.intensity,
        defense=defense_name,
        attempted=len(outcomes),
        latencies=[latency for latency in outcomes if latency is not None],
        dials_attempted=net.stats.dials_attempted,
        dials_succeeded=net.stats.dials_succeeded,
        faults_injected=net.stats.faults_injected,
        retries_attempted=net.stats.retries_attempted,
        records_suppressed=state.records_suppressed,
        queries_censored=state.queries_censored,
    )


@dataclass
class AttackMatrixResults:
    config: AttackMatrixConfig
    cells: list[AttackCellResult] = field(default_factory=list)

    def cell(
        self,
        attack_kind: str,
        defense_name: str,
        intensity: float | None = None,
    ) -> AttackCellResult:
        """The cell for (kind, defense); when the matrix sweeps several
        intensities of one kind, pass ``intensity`` to pick among them
        (omitted = first match, the pre-sweep behaviour)."""
        for cell in self.cells:
            if cell.attack == attack_kind and cell.defense == defense_name:
                if intensity is None or cell.intensity == intensity:
                    return cell
        raise KeyError(
            f"no cell for ({attack_kind!r}, {defense_name!r}, {intensity!r})"
        )


def run_attack_matrix(
    config: AttackMatrixConfig | None = None, workers: int = 1
) -> AttackMatrixResults:
    """Run every (attack, defense) cell; shard across ``workers``.

    Cell order is attack-major; each cell builds its own world from
    seed-derived streams, so the assembled results are identical for
    any worker count.
    """
    config = config if config is not None else AttackMatrixConfig()
    cells = [
        Cell(f"attack[{attack.label}|{defense_name}]", _run_cell,
             (config, attack, defense_name))
        for attack in config.attacks
        for defense_name in DEFENSES
    ]
    results = AttackMatrixResults(config=config)
    results.cells.extend(run_cells(cells, workers))
    return results


# ----------------------------------------------------------------------
# grading
# ----------------------------------------------------------------------


CELL_FIELDS = (
    "attack:", "intensity:g", "defense:", "attempted", "succeeded",
    "success_rate:.2f", "ttfb_p50:.2f", "ttfb_p95", "dialability:.2f",
    "dials_attempted", "dials_succeeded", "faults_injected:",
    "retries_attempted:", "records_suppressed", "queries_censored",
)


def _grade_attack(
    clean: AttackCellResult,
    attacked: AttackCellResult,
    defended: AttackCellResult,
) -> list[Claim]:
    """Recovery, slowdown and dialability of one attack at one
    intensity, scoped ``kind@intensity``."""
    scope = f"{attacked.attack}@{attacked.intensity:g}"

    suppression = clean.success_rate - attacked.success_rate
    if suppression > SUPPRESSION_EPSILON:
        recovery = (defended.success_rate - attacked.success_rate) / suppression
        recovery_verdict = grade_at_least(recovery, 0.5, 0.5)
    else:
        recovery, recovery_verdict = None, (None, Grade.PASS)

    clean_p50, defended_p50 = clean.ttfb_p50, defended.ttfb_p50
    if defended_p50 is None or clean_p50 is None or clean_p50 <= 0:
        slowdown, slowdown_verdict = None, (None, Grade.FAIL)
    else:
        slowdown = defended_p50 / clean_p50
        slowdown_verdict = grade_at_least(TTFB_SLOWDOWN_CAP / slowdown, 1.0, 1.0)

    dial_floor = DIALABILITY_FLOOR * clean.dialability
    if dial_floor > 0:
        dial_verdict = grade_at_least(defended.dialability, dial_floor, 0.5)
    else:
        dial_verdict = (None, Grade.FAIL)

    return [
        Claim.graded(
            "attack.recovery", recovery, 0.5, recovery_verdict, scope=scope,
            description=(
                f"share of the {suppression:.2f} suppressed success rate the "
                "defenses won back"
            ),
        ),
        Claim.graded(
            "attack.slowdown", slowdown, TTFB_SLOWDOWN_CAP, slowdown_verdict,
            scope=scope, description="defended / clean median fetch time (cap)",
        ),
        Claim.graded(
            "attack.dialability", defended.dialability, dial_floor,
            dial_verdict, scope=scope,
            description="defended dial success vs 30 % of the clean world's",
        ),
    ]


def grade_matrix(results: AttackMatrixResults) -> GradedReport:
    """Grade the clean floor, then every attack against the clean cell."""
    clean = results.cell("none", "off")
    claims = [Claim.graded(
        "attack.clean_success", clean.success_rate, CLEAN_SUCCESS_FLOOR,
        grade_at_least(clean.success_rate, CLEAN_SUCCESS_FLOOR, 0.25),
        description="the attack-free world retrieves",
    )]
    for attack in results.config.attacks:
        if attack.kind != "none":
            claims.extend(_grade_attack(
                clean,
                results.cell(attack.kind, "off", attack.intensity),
                results.cell(attack.kind, "on", attack.intensity),
            ))
    return GradedReport(
        "attack", results.config, results.cells, CELL_FIELDS, claims
    )
