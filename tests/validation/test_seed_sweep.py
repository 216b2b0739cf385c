"""Seed sweep: the quick-tier gate holds under RNG seed changes.

The committed tolerance bands must reflect genuine model fidelity, not
one lucky seed. Every metric must stay within its band (PASS or WARN,
never FAIL) for each seed in the sweep.
"""

import pytest

from repro.validation.compare import Grade
from repro.validation.conformance import config_for_tier, run_conformance
from repro.validation.targets import DATASETS

SEEDS = (42, 43, 44)


@pytest.mark.parametrize("seed", SEEDS)
def test_quick_tier_within_band_for_seed(seed):
    report = run_conformance(config_for_tier("quick", seed=seed), workers=3)
    failed = [
        claim.render() for claim in report.claims if claim.grade is Grade.FAIL
    ]
    assert not failed, f"seed {seed} out of tolerance: {failed}"
    assert len(report.claims) >= 12
    assert {claim.scope for claim in report.claims} == set(DATASETS)
