"""Adversarial what-if suite: deterministic attack/defense experiments.

The paper's robustness story (provider records replicated on the 20
closest peers, hydra boosters, graceful handling of the 45.5 %
undialable population) is evaluated under *benign* churn. This package
asks what happens under adversity instead: Sybil eclipse of a target
CID's keyspace neighbourhood ("Mapping the Interplanetary
Filesystem"), selective provider-record censorship, coordinated churn
storms, region partitions, and removal of the top cloud provider's
peers ("The Cloud Strikes Back"). Each attack is paired against a
defense arm — hydra-style extra replication, the resilience layer, and
aggressive re-publishing — and the degradation is graded with the
:mod:`repro.validation` comparators.

Everything is deterministic: attacker identities are mined by counter
grinding, attacker placement and storm membership derive from labelled
RNG streams, and the attack×defense matrix shards into
:func:`repro.experiments.runner.run_cells` cells that are byte-identical
for any worker count.
"""

from repro.adversary.attacks import ATTACK_KINDS, AttackSpec, AttackState
from repro.adversary.defenses import DEFENSES, DefenseSpec, defended_node_config
from repro.adversary.experiment import (
    AttackCellResult,
    AttackMatrixConfig,
    AttackMatrixResults,
    bench_attack_config,
    grade_matrix,
    matrix_config,
    run_attack_matrix,
)
from repro.adversary.sybil import closest_distance, mine_sybil_ids

__all__ = [
    "ATTACK_KINDS",
    "AttackCellResult",
    "AttackMatrixConfig",
    "AttackMatrixResults",
    "AttackSpec",
    "AttackState",
    "DEFENSES",
    "DefenseSpec",
    "bench_attack_config",
    "closest_distance",
    "defended_node_config",
    "grade_matrix",
    "matrix_config",
    "mine_sybil_ids",
    "run_attack_matrix",
]
