"""Chaos sweep: retrieval success and latency vs injected RPC loss.

The paper measures the live network's steady state; this bench injects
deterministic RPC loss and sweeps its intensity, running the retrieval
protocol once with the seed's fire-and-forget stack and once with the
retry/backoff stack. The shapes to reproduce: success degrades
gracefully (monotonically-ish) with intensity, and retries buy strictly
more success at 10 % loss.
"""

import dataclasses

from conftest import save_report

from repro.experiments.chaos import ChaosConfig, run_chaos_experiment
from repro.experiments.report import render_table
from repro.resilience import ResilienceConfig

CHAOS_PEERS = 300
CHAOS_RETRIEVALS = 12
INTENSITIES = (0.0, 0.05, 0.1, 0.2, 0.3)


def test_chaos_smoke():
    """Fast end-to-end pass for CI: one small faulted level with every
    resilience feature on must still retrieve successfully."""
    config = ChaosConfig(
        n_peers=80,
        intensities=(0.15,),
        retrievals_per_level=2,
        resilience=ResilienceConfig(
            breakers=True, hedging=True, adaptive_timeouts=True,
            fallbacks=True,
        ),
    )
    results = run_chaos_experiment(config)
    level = results.levels[0]
    assert level.attempted == 2
    assert level.succeeded >= 1
    assert level.faults_injected > 0


def test_chaos_sweep():
    config = ChaosConfig(
        n_peers=CHAOS_PEERS,
        intensities=INTENSITIES,
        retrievals_per_level=CHAOS_RETRIEVALS,
    )

    baseline = run_chaos_experiment(dataclasses.replace(config, with_retries=False))
    resilient = run_chaos_experiment(config)

    def fmt_pcts(level):
        pcts = level.latency_percentiles()
        return " / ".join(f"{x:.1f}" for x in pcts) if pcts else "-"

    rows = [
        (
            f"{base.intensity:.0%}",
            f"{base.success_rate:.0%}", fmt_pcts(base),
            f"{ret.success_rate:.0%}", fmt_pcts(ret),
            ret.retries_attempted,
        )
        for base, ret in zip(baseline.levels, resilient.levels)
    ]
    report = render_table(
        "Chaos sweep — retrieval success vs injected RPC loss",
        ["loss", "success (base)", "p50/p90/p95 (base)",
         "success (retry)", "p50/p90/p95 (retry)", "retries"],
        rows,
        note=f"{CHAOS_RETRIEVALS} retrievals per level, {CHAOS_PEERS} peers",
    )

    save_report("chaos_sweep", report)

    by_intensity = {level.intensity: level for level in baseline.levels}
    retry_by_intensity = {level.intensity: level for level in resilient.levels}
    assert by_intensity[0.3].success_rate <= by_intensity[0.0].success_rate, (
        "baseline success at 30% loss is no better than at 0%"
    )
    assert (
        retry_by_intensity[0.1].success_rate > by_intensity[0.1].success_rate
    ), "retries beat fire-and-forget at 10% loss"
    assert all(
        level.faults_injected > 0
        for level in baseline.levels if level.intensity > 0
    ), "faults were actually injected at every non-zero level"
