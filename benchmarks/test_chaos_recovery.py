"""Chaos recovery: the resilience layer under churn x mixed faults.

The chaos sweep showed retries recovering success in a static world.
This bench turns both screws — churn plus a loss/reset/malformed fault
diet — and compares the full retry stack with and without the
resilience layer (breakers, adaptive deadlines, hedging, fallbacks).
The shapes to reproduce: at meaningful fault intensity the resilient
arm retrieves at least as successfully *and* with a lower p95, and the
breaker/hedge/fallback machinery demonstrably engages (non-zero
counters in the exported metrics).
"""

import dataclasses

from conftest import RESULTS_DIR, save_report

from repro.experiments.chaos_recovery import (
    ChaosRecoveryConfig,
    run_chaos_recovery_experiment,
)
from repro.experiments.report import render_table
from repro.obs import Observability
from repro.tools.export import export_chaos_recovery_dataset

RECOVERY_PEERS = 250
RECOVERY_RETRIEVALS = 8
RECOVERY_UNANNOUNCED = 3
INTENSITIES = (0.0, 0.2, 0.3)


def test_chaos_recovery():
    config = ChaosRecoveryConfig(
        n_peers=RECOVERY_PEERS,
        intensities=INTENSITIES,
        retrievals_per_level=RECOVERY_RETRIEVALS,
        unannounced_retrievals=RECOVERY_UNANNOUNCED,
    )
    obs = Observability()

    baseline = run_chaos_recovery_experiment(
        dataclasses.replace(config, with_resilience=False), obs=obs
    )
    resilient = run_chaos_recovery_experiment(config, obs=obs)

    def fmt_pcts(level):
        pcts = level.latency_percentiles()
        return " / ".join(f"{x:.1f}" for x in pcts) if pcts else "-"

    rows = [
        (
            f"{base.intensity:.0%}",
            f"{base.success_rate:.0%}", fmt_pcts(base),
            f"{res.success_rate:.0%}", fmt_pcts(res),
            res.breaker_opened, res.hedges_launched,
            f"{res.fallback_hits}/{res.fallback_broadcasts}",
            res.adaptive_deadlines,
        )
        for base, res in zip(baseline.levels, resilient.levels)
    ]
    report = render_table(
        "Chaos recovery — churn x mixed faults, resilience on vs off",
        ["faults", "success (off)", "p50/p90/p95 (off)",
         "success (on)", "p50/p90/p95 (on)",
         "breakers", "hedges", "fallback hit/cast", "adaptive"],
        rows,
        note=f"{RECOVERY_RETRIEVALS}+{RECOVERY_UNANNOUNCED} retrievals per "
             f"level, {RECOVERY_PEERS} peers, churn on; mixed faults: "
             "60% loss / 20% reset / 20% malformed",
    )

    metrics = obs.metrics.snapshot()
    resilience_counters = {
        name: record["value"] for name, record in metrics.items()
        if name.startswith("resilience.") and record["type"] == "counter"
    }
    report += "\n\nexported resilience counters (both arms, whole sweep):\n"
    report += "\n".join(
        f"  {name} = {value}"
        for name, value in sorted(resilience_counters.items())
    )

    export_rows = export_chaos_recovery_dataset(
        [baseline, resilient], RESULTS_DIR / "chaos_recovery.jsonl"
    )
    report += f"\n\nwrote {export_rows} level records to chaos_recovery.jsonl"

    save_report("chaos_recovery", report)

    base_by = {level.intensity: level for level in baseline.levels}
    res_by = {level.intensity: level for level in resilient.levels}
    hot = [i for i in INTENSITIES if i >= 0.2]
    assert all(
        res_by[i].success_rate >= base_by[i].success_rate for i in hot
    ), "at >=20% faults the resilient arm succeeds at least as often"
    assert all(
        res_by[i].latency_percentiles()[2] < base_by[i].latency_percentiles()[2]
        for i in hot
    ), "at >=20% faults the resilient arm has a lower p95"
    assert any(res_by[i].breaker_opened > 0 for i in hot), (
        "breakers opened under faults"
    )
    assert any(res_by[i].hedges_launched > 0 for i in hot), (
        "hedges launched under faults"
    )
    assert any(
        res_by[i].fallback_broadcasts > 0 and res_by[i].fallback_hits > 0
        for i in INTENSITIES
    ), "fallback broadcasts fired and hit"
    assert all(
        res_by[i].unannounced_succeeded > base_by[i].unannounced_succeeded
        for i in INTENSITIES
    ), "only fallbacks rescue cached-but-unannounced content"
    assert all(
        resilience_counters.get(name, 0) > 0
        for name in (
            "resilience.breaker.opened",
            "resilience.hedge.launched",
            "resilience.fallback.broadcasts",
        )
    ), "breaker/hedge/fallback counters reach the exported metrics"
    assert all(
        level.breaker_opened == 0 and level.hedges_launched == 0
        and level.fallback_broadcasts == 0 and level.adaptive_deadlines == 0
        for level in baseline.levels
    ), "baseline arm keeps every resilience counter at zero"
