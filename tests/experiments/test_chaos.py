"""Tests for the chaos sweep: graceful degradation, the value of
retries, and the zero-intensity no-op guarantee."""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.experiments.chaos import (
    ChaosConfig,
    resilient_node_config,
    run_chaos_experiment,
    run_chaos_pair,
)
from repro.experiments.chaos_recovery import (
    ChaosRecoveryConfig,
    run_chaos_recovery_pair,
)
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.simnet.faults import FaultInjector, FaultPlan
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def ten_percent_loss():
    """Both protocol stacks at 10 % RPC loss (shared by the asserts)."""
    config = ChaosConfig(
        n_peers=200, intensities=(0.1,), retrievals_per_level=12
    )
    baseline = run_chaos_experiment(
        dataclasses.replace(config, with_retries=False)
    )
    resilient = run_chaos_experiment(config)
    return baseline.levels[0], resilient.levels[0]


def test_retries_beat_fire_and_forget_at_10_percent_loss(ten_percent_loss):
    baseline, resilient = ten_percent_loss
    assert resilient.success_rate > baseline.success_rate


def test_resilience_telemetry_is_observable(ten_percent_loss):
    baseline, resilient = ten_percent_loss
    # The baseline stack never retries; the resilient one does, and
    # both surface the injected faults through the network counters.
    assert baseline.retries_attempted == 0
    assert resilient.retries_attempted > 0
    assert baseline.faults_injected > 0
    assert resilient.faults_injected > 0
    # Evict-on-first-failure (baseline) evicts more than threshold-3.
    assert baseline.evictions > 0
    assert resilient.evictions <= baseline.evictions


def test_success_degrades_with_intensity():
    config = ChaosConfig(
        n_peers=200, intensities=(0.0, 0.3), retrievals_per_level=6,
        with_retries=False,
    )
    results = run_chaos_experiment(config)
    calm, stormy = results.levels
    assert calm.success_rate == 1.0
    assert stormy.success_rate <= calm.success_rate
    assert stormy.faults_injected > 0
    assert calm.faults_injected == 0


def test_latency_percentiles_only_over_successes():
    level_cls = run_chaos_experiment(
        ChaosConfig(n_peers=200, intensities=(0.0,), retrievals_per_level=2)
    ).levels[0]
    pcts = level_cls.latency_percentiles()
    assert pcts is not None and len(pcts) == 3
    assert pcts[0] <= pcts[1] <= pcts[2]


def test_zero_intensity_plan_is_byte_identical_to_no_injector():
    """Installing an all-zero FaultPlan must not perturb a seeded run:
    the injector draws from its own RNG stream and a zero-probability
    rule never draws at all."""

    def run(install_zero_plan: bool):
        population = generate_population(
            PopulationConfig(n_peers=150), derive_rng(11, "chaos-ident-pop")
        )
        scenario = build_scenario(
            population,
            ScenarioConfig(seed=11),
            vantage_regions=["eu_central_1", "us_west_1"],
        )
        if install_zero_plan:
            scenario.net.install_faults(FaultInjector(
                FaultPlan.rpc_loss(0.0), derive_rng(11, "chaos-ident-faults")
            ))
        results = run_perf_experiment(
            scenario,
            PerfConfig(
                rounds=1, seed=11, regions=("eu_central_1", "us_west_1")
            ),
        )
        return (
            results.all_publications(),
            results.all_retrievals(),
            results.failures,
            dataclasses.asdict(scenario.net.stats),
        )

    assert run(False) == run(True)


def test_resilient_node_config_enables_every_layer():
    config = resilient_node_config()
    assert config.lookup.rpc_retry.enabled
    assert config.lookup.store_retry.enabled
    assert config.lookup.failure_threshold > 1
    assert config.dial_retry.enabled
    assert config.bitswap_retry.enabled


# ----------------------------------------------------------------------
# the oracle: the level records of the two bench shapes, frozen at the
# commit before the two chaos modules were unified. The literals are the
# sha256 of the JSONL the exporters of that commit wrote
# (``export_chaos_dataset([bare, retry])`` at 300 peers / 12 retrievals
# / 5 intensities, ``export_chaos_recovery_dataset([retry, resilient])``
# at 250 / 8+3 / 3, the latter byte-equal to the then-committed
# ``benchmarks/results/chaos_recovery.jsonl``); the loop below spells
# those two record layouts with the stdlib alone, so it outlives the
# exporters. Neither is to be edited to make a refactor pass.
# ----------------------------------------------------------------------

SWEEP_SHA256 = "62883e06055961e74cf2b0df1454afba5437418581028907d1f5c21f9085bb50"
RECOVERY_SHA256 = "5041edca4044a3fc5d3d60a94dfe14279efbab854736db3a45352f11d84bd057"

SWEEP_TAIL = ("faults_injected", "retries_attempted", "rpcs_timed_out", "evictions")
RECOVERY_TAIL = (
    "unannounced_attempted", "unannounced_succeeded", "faults_injected",
    "retries_attempted", "rpcs_timed_out", "breaker_opened", "breaker_skips",
    "hedges_launched", "hedge_wins", "fallback_broadcasts", "fallback_hits",
    "adaptive_deadlines",
)


def _percentile(ordered, q):
    """numpy's "linear" percentile of a sorted list, ``None`` if empty."""
    if not ordered:
        return None
    rank = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def records_sha256(flag, flagged_levels, tail):
    """sha256 of one JSON line per ``(flag value, level)``, in order."""
    lines = []
    for flagged, level in flagged_levels:
        ordered = sorted(level.latencies)
        record = {
            "intensity": level.intensity,
            flag: flagged,
            "attempted": level.attempted,
            "succeeded": level.succeeded,
            "success_rate": level.success_rate,
            "latency_p50_s": _percentile(ordered, 50),
            "latency_p90_s": _percentile(ordered, 90),
            "latency_p95_s": _percentile(ordered, 95),
        }
        record.update((name, getattr(level, name)) for name in tail)
        lines.append(json.dumps(record) + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_loss_sweep_bench_records_match_the_frozen_sha256():
    bare, retry = run_chaos_pair(ChaosConfig(), workers=2)
    levels = [(False, level) for level in bare.levels]
    levels += [(True, level) for level in retry.levels]
    assert records_sha256("with_retries", levels, SWEEP_TAIL) == SWEEP_SHA256


def test_recovery_bench_records_match_the_frozen_sha256():
    retry, resilient = run_chaos_recovery_pair(
        ChaosRecoveryConfig(
            n_peers=250, retrievals_per_level=8, unannounced_retrievals=3
        ),
        workers=2,
    )
    levels = [(False, level) for level in retry.levels]
    levels += [(True, level) for level in resilient.levels]
    assert records_sha256("with_resilience", levels, RECOVERY_TAIL) == RECOVERY_SHA256
