"""Chaos benches: retrieval under injected faults, arm by arm.

The paper measures the live network's steady state; these two sweeps
inject deterministic faults and set one rung of the protocol-stack
ladder against the one below it. The smoke tests run the committed
``BENCH_chaos.json`` / ``BENCH_chaos_recovery.json`` configurations and
check that every claim grades PASS (success degrades with loss and
retries buy it back; under churn and mixed faults the resilience layer
succeeds at least as often with a lower p95, and its breakers, hedges
and fallbacks demonstrably engage); the bytes are pinned for every
graded artifact at once by ``test_graded_bench.py``.
"""

import pytest
from conftest import save_report

from repro.experiments.chaos import RECOVERY, ChaosConfig, grade_chaos, run_chaos
from repro.validation.compare import Grade


@pytest.mark.parametrize("name, config", [
    ("chaos", ChaosConfig()), ("chaos_recovery", RECOVERY),
])
def test_chaos_smoke(name, config):
    """Fast end-to-end pass for CI: the frozen bench sweep, sharded,
    must grade PASS on every claim."""
    report = grade_chaos(config, run_chaos(config, workers=2))
    save_report(name, report.render_text())

    assert report.experiment == name
    assert report.overall is Grade.PASS
    assert all(claim.grade is Grade.PASS for claim in report.claims)
