"""``validate``: seed-stability conformance for the NAT model.

The nat-sweep experiment (:mod:`repro.experiments.nat_sweep`) grades a
single seed.  This tier asks the sharper question the paper's Section
5.3 number implies: does the *emergent* undialable share stay inside
the PASS band of the 45.5 % target across several seeds, and does the
AutoNAT classifier keep agreeing with ground truth?  A model that only
hits the band at one lucky seed is curve fitting, not reproduction.

The sweep grades three consecutive seeds, ``seed`` to ``seed + 2``, so
the global ``--seed`` moves it like every other graded run. Each seed
gets its own fresh world (default NAT mix, no hole-punch
adoption, default mapping TTL) and contributes two graded claims,
scoped ``seed=<seed>``:

- ``nat.undialable`` — crawl-measured undialable fraction vs the
  paper's 45.5 %, using the same tolerance bands as the fidelity
  registry entry ``peer.undialable_fraction``.
- ``nat.autonat`` — AutoNAT verdict vs ground-truth agreement, floor
  95 %.

Seeds shard through :func:`repro.experiments.runner.run_cells`, so the
report bytes are identical for any ``--workers N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.nat_sweep import (
    AUTONAT_AGREEMENT_FLOOR,
    NatCellResult,
    NatSweepConfig,
    _run_cell,
)
from repro.experiments.runner import Cell, run_cells
from repro.simnet.nat import DEFAULT_MAPPING_TTL_S
from repro.validation.compare import grade_at_least
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import TARGETS_BY_KEY

#: How many consecutive seeds one sweep grades.
SEEDS_PER_SWEEP = 3


@dataclass(frozen=True)
class NatTierConfig:
    """Scales for the nat tier: one world per seed, ``seed`` onwards."""

    seed: int = 42
    n_peers: int = 250
    crawl_hours: float = 2.0


def _seed_cell(config: NatTierConfig, seed: int) -> NatCellResult:
    """Crawl + AutoNAT measurement for one seed (no retrievals)."""
    sweep_config = NatSweepConfig(
        seed=seed,
        n_peers=config.n_peers,
        crawl_hours=config.crawl_hours,
        retrievals_per_cell=0,
    )
    return _run_cell(sweep_config, "default", 0.0, DEFAULT_MAPPING_TTL_S)


CELL_FIELDS = (
    "seed:", "boxed_peers:", "undialable:.3f", "autonat_agreement:.3f",
    "autonat_checked:",
)


def grade_nat_tier(
    config: NatTierConfig, cells: list[NatCellResult]
) -> GradedReport:
    target = TARGETS_BY_KEY["peer.undialable_fraction"]
    claims = []
    for cell in cells:
        scope = f"seed={cell.seed}"
        claims.append(Claim.graded(
            "nat.undialable", cell.undialable, target.paper_value,
            target.grade(cell.undialable), scope=scope,
            description="emergent undialable share vs the paper's 45.5 %",
        ))
        claims.append(Claim.graded(
            "nat.autonat", cell.autonat_agreement, AUTONAT_AGREEMENT_FLOOR,
            grade_at_least(cell.autonat_agreement, AUTONAT_AGREEMENT_FLOOR, 0.05),
            scope=scope, description="AutoNAT vs ground-truth agreement",
        ))
    return GradedReport("nat-tier", config, cells, CELL_FIELDS, claims)


def run_nat_tier(
    config: NatTierConfig | None = None, workers: int = 1
) -> GradedReport:
    """Run one world per seed (sharded) and grade seed stability."""
    config = config if config is not None else NatTierConfig()
    cells = [
        Cell(label=f"nat-tier:seed={seed}", fn=_seed_cell, args=(config, seed))
        for seed in range(config.seed, config.seed + SEEDS_PER_SWEEP)
    ]
    return grade_nat_tier(config, run_cells(cells, workers=workers))
