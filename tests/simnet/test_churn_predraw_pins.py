"""The compact world's churn pre-draw, pinned.

``test_compact_equivalence.py`` compares the pre-drawn schedules with
``SessionProcess`` over six simulated hours on a few hundred peers; the
rest of a 24 h schedule, and every larger world, is compared by nothing
else. The sha256 literals below were recorded at the commit *before*
:func:`repro.simnet.compact._churn_schedules` wrote its stdlib calls
(``derive_rng`` per peer, ``lognormvariate``) out inline: the initial
online flags as built, the per-peer slice offsets and the raw delays,
out to the default horizon and to a short one whose overshoot draw is
most of every schedule.
``tests/workloads/test_spelled_draws.py`` keeps the stdlib-calling loop
as a reference.

Regenerate (only for a PR that means to change the churn draws) with:

    PYTHONPATH=src python -m tests.simnet.test_churn_predraw_pins
"""

from __future__ import annotations

import hashlib
from functools import cache

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.simnet.compact import DEFAULT_CHURN_HORIZON_S, build_compact_world
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig

N_PEERS = 3000

#: (seed, churn_horizon_s) -> sha256 of (online as built, churn_off, churn_delays)
PINNED = {
    (42, 600.0): (
        "c25886520bfb46199da5af2c26153913d1f761f56f06c25c71876bbe5eb67689",
        "6877ae12fac7892d0439d8a8cc925d1b98793296119cb074a48790b17729095b",
        "d85611bbde3a9196d2345e8cc3b431d6c9f9dcfa55be47f2e99cce09b2f426c4",
    ),
    (42, 86400.0): (
        "c25886520bfb46199da5af2c26153913d1f761f56f06c25c71876bbe5eb67689",
        "02b97bc996f5e235b2ea0ec9eec72e0c25d88aaced7907acf973ddf12e0ae34d",
        "34be25cb68b386fc352ad8c23434ed09117b33de441ef9aeb3b69555f84d0a99",
    ),
    (43, 600.0): (
        "46a1facaafe535fa78b064ff2882e6f51936a142b17220de4673a0671551ce1b",
        "55b908acb9bc25923e044cf703e4cd5ee477315360ddcd3362312c3acee791e7",
        "48f193556838622543fa4fee237611774e470addaa2f5845eaed1ed7989f9fd5",
    ),
    (43, 86400.0): (
        "46a1facaafe535fa78b064ff2882e6f51936a142b17220de4673a0671551ce1b",
        "40c161eb21a3626b35be512bbb1bcd6a09e6a2376666adbb4aa8175ee8d347ec",
        "ed554789b9934a50300c0cbe1708f7ccee3637cfe878d8002abd60ab7333b7ec",
    ),
}


@cache
def _population(seed: int):
    return generate_compact_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(seed, "population")
    )


def _churn_digests(seed: int, horizon_s: float) -> tuple[str, str, str]:
    world = build_compact_world(
        _population(seed), ScenarioConfig(seed=seed), churn_horizon_s=horizon_s
    )
    return tuple(
        hashlib.sha256(bytes(column)).hexdigest()
        for column in (world._online, world._churn_off, world._churn_delays)
    )


@pytest.mark.parametrize("seed, horizon_s", sorted(PINNED))
def test_churn_predraw_is_pinned(seed, horizon_s):
    assert _churn_digests(seed, horizon_s) == PINNED[seed, horizon_s]


if __name__ == "__main__":
    for seed in (42, 43):
        for horizon_s in (600.0, DEFAULT_CHURN_HORIZON_S):
            online, off, delays = _churn_digests(seed, horizon_s)
            print(
                f"    ({seed}, {horizon_s!r}): (\n        \"{online}\",\n"
                f"        \"{off}\",\n        \"{delays}\",\n    ),"
            )
