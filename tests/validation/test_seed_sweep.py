"""Seed sweep: the paper-target registry holds under RNG seed changes.

The committed tolerance bands must reflect genuine model fidelity, not
one lucky seed. Every registry row, graded by the ``figures`` cells of
the four paper datasets at a small shape, must stay within its band
(PASS or WARN, never FAIL) for each seed in the sweep, and each must be
emitted exactly once.
"""

import dataclasses

import pytest

from repro.experiments import figures
from repro.validation.compare import Grade
from repro.validation.targets import TARGETS_BY_KEY

SEEDS = (42, 43, 44)

#: The four paper datasets at a few seconds' worth of simulation.
QUICK = dataclasses.replace(
    figures.BENCH, population_peers=6_000, crawl_peers=150, perf_peers=600,
    perf_rounds=3, gateway_scale=120,
)


@pytest.mark.parametrize("seed", SEEDS)
def test_quick_tier_within_band_for_seed(seed):
    config = dataclasses.replace(QUICK, seed=seed)
    registry = [
        claim
        for dataset in ("deployment", "crawl", "perf", "gateway")
        for _, _, claims in figures.build_dataset(dataset, figures.RUNNERS[dataset](config))
        for claim in claims if claim.key in TARGETS_BY_KEY
    ]
    assert sorted(claim.key for claim in registry) == sorted(TARGETS_BY_KEY)
    failed = [claim.render() for claim in registry if claim.grade is Grade.FAIL]
    assert not failed, f"seed {seed} out of tolerance: {failed}"
