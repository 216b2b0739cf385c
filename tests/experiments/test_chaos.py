"""Tests for the chaos experiment: the two bench sweeps against their
frozen records, graceful degradation, what each rung of the arm ladder
buys, and the zero-intensity no-op guarantee."""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.errors import ReproError
from repro.experiments.chaos import (
    ARMS,
    RECOVERY,
    ChaosConfig,
    grade_chaos,
    run_chaos,
    run_level,
)
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.obs import Observability
from repro.resilience import Resilience
from repro.simnet.faults import FaultInjector, FaultPlan
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from repro.validation.compare import Grade
from repro.workloads.population import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def loss_bench():
    """The ``loss`` bench sweep, ``{(arm, intensity): level}``."""
    return {
        (level.arm, level.intensity): level
        for level in run_chaos(ChaosConfig(), workers=2)
    }


@pytest.fixture(scope="module")
def recovery_bench():
    return {
        (level.arm, level.intensity): level
        for level in run_chaos(RECOVERY, workers=2)
    }


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


def test_loss_sweep_bench_records_match_the_frozen_sha256(loss_bench):
    levels = [(level.arm != "bare", level) for level in loss_bench.values()]
    assert records_sha256("with_retries", levels, SWEEP_TAIL) == SWEEP_SHA256


def test_recovery_bench_records_match_the_frozen_sha256(recovery_bench):
    levels = [(level.arm == "resilient", level) for level in recovery_bench.values()]
    assert records_sha256("with_resilience", levels, RECOVERY_TAIL) == RECOVERY_SHA256


def test_both_bench_sweeps_grade_pass(loss_bench, recovery_bench):
    for config, levels in ((ChaosConfig(), loss_bench), (RECOVERY, recovery_bench)):
        report = grade_chaos(config, list(levels.values()))
        assert report.overall is Grade.PASS
        assert all(claim.grade is Grade.PASS for claim in report.claims)


def test_a_level_with_no_successes_fails_its_claim_instead_of_raising(recovery_bench):
    levels = [
        dataclasses.replace(level, latencies=[], latency_p95_s=None)
        if (level.arm, level.intensity) == ("resilient", 0.2) else level
        for level in recovery_bench.values()
    ]
    report = grade_chaos(RECOVERY, levels)
    (claim,) = [
        claim for claim in report.claims
        if claim.key == "recovery.latency_p95_s" and claim.scope == "recovery@0.2"
    ]
    assert (claim.measured, claim.grade) == (None, Grade.FAIL)
    assert report.failed()


def test_retries_beat_fire_and_forget_at_10_percent_loss(loss_bench):
    assert loss_bench["retry", 0.1].success_rate > loss_bench["bare", 0.1].success_rate


def test_resilience_telemetry_is_observable(loss_bench):
    baseline, resilient = loss_bench["bare", 0.1], loss_bench["retry", 0.1]
    # The baseline stack never retries; the resilient one does, and
    # both surface the injected faults through the network counters.
    assert baseline.retries_attempted == 0
    assert resilient.retries_attempted > 0
    assert baseline.faults_injected > 0
    assert resilient.faults_injected > 0
    # Evict-on-first-failure (baseline) evicts more than threshold-3.
    assert baseline.evictions > 0
    assert resilient.evictions <= baseline.evictions


def test_success_degrades_with_intensity(loss_bench):
    calm, stormy = loss_bench["bare", 0.0], loss_bench["bare", 0.3]
    assert calm.success_rate == 1.0
    assert stormy.success_rate <= calm.success_rate
    assert stormy.faults_injected > 0
    assert calm.faults_injected == 0


def test_latency_percentiles_only_over_successes(loss_bench):
    level = loss_bench["bare", 0.3]
    assert 0 < len(level.latencies) == level.succeeded < level.attempted
    assert (
        min(level.latencies) <= level.latency_p50_s <= level.latency_p90_s
        <= level.latency_p95_s <= max(level.latencies)
    )


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
            PerfConfig(rounds=1, seed=11),
        )
        return (
            results.all_publications(),
            results.all_retrievals(),
            results.failures,
            dataclasses.asdict(scenario.net.stats),
        )

    assert run(False) == run(True)


def test_resilient_node_config_enables_every_layer():
    # The retry rung: every retry layer on, nothing of the top rung.
    res = Resilience("retry", Simulator())
    assert res.hop_policy.enabled
    assert res.store_policy.enabled
    assert res.eviction_threshold > 1
    assert res.dial_policy.enabled
    assert res.want_policy.enabled
    assert not res.enabled
    assert res.breakers is None and res.rtt is None


@pytest.mark.parametrize("fields", [
    {"intensities": (0.1, 1.5)},
    {"intensities": (-0.1,)},
    {"intensities": (float("nan"),)},
    {"intensities": ()},
    {"sweep": "hurricane"},
    {"arms": ("bare", "turbo")},
    {"arms": ()},
    {"retrievals_per_level": 0},
])
def test_config_refuses_bad_input_where_the_library_is_entered(fields):
    with pytest.raises(ReproError):
        ChaosConfig(**fields)


TINY = dataclasses.replace(
    RECOVERY, seed=7, n_peers=80, intensities=(0.15,), retrievals_per_level=2,
    unannounced_retrievals=2,
)

RESILIENCE_METRICS = (
    "resilience.breaker.opened",
    "resilience.hedge.launched",
    "resilience.fallback.broadcasts",
)


def resilience_counters(obs):
    return {
        name: record["value"]
        for name, record in obs.metrics.snapshot().items()
        if name.startswith("resilience.") and record["type"] == "counter"
    }


class TestChaosRecovery:
    @pytest.fixture(scope="class")
    def resilient(self):
        obs = Observability()
        return run_level(TINY, "resilient", 0.15, obs=obs), obs

    @pytest.fixture(scope="class")
    def baseline(self):
        obs = Observability()
        return run_level(TINY, "retry", 0.15, obs=obs), obs

    def test_resilient_arm_reports_coherent_telemetry(self, resilient):
        level, _ = resilient
        assert level.arm == "resilient"
        assert level.attempted == 4  # 2 announced + 2 unannounced
        assert level.unannounced_attempted == 2
        assert level.succeeded == len(level.latencies) + level.unannounced_succeeded
        assert 0.0 <= level.success_rate <= 1.0
        assert level.faults_injected > 0
        # The unannounced objects have no provider record anywhere, so
        # every rescue came through the degraded-mode broadcast.
        assert level.fallback_broadcasts >= level.unannounced_succeeded > 0
        assert level.fallback_hits >= level.unannounced_succeeded

    def test_resilient_arm_lands_its_counters_in_the_exported_metrics(self, resilient):
        level, obs = resilient
        counters = resilience_counters(obs)
        assert all(counters.get(name, 0) > 0 for name in RESILIENCE_METRICS), counters
        # the getter is the only node that retrieves, so its stats are
        # what the level reports
        assert counters["resilience.hedge.launched"] == level.hedges_launched
        assert counters["resilience.fallback.broadcasts"] == level.fallback_broadcasts

    def test_baseline_arm_runs_without_resilience_counters(self, baseline):
        level, obs = baseline
        assert level.arm == "retry"
        assert level.breaker_opened == 0
        assert level.hedges_launched == 0
        assert level.fallback_broadcasts == 0
        assert level.adaptive_deadlines == 0
        assert not any(resilience_counters(obs).values())
        # Unannounced content is invisible without the fallback.
        assert level.unannounced_succeeded == 0

    def test_full_resilience_config_turns_everything_on(self):
        assert ARMS == ("bare", "retry", "resilient")
        res = Resilience("resilient", Simulator())
        assert res.enabled
        assert res.breakers is not None and res.rtt is not None
        # The top rung keeps the retry rung's schedules underneath.
        retry = Resilience("retry", Simulator())
        assert (res.hop_policy, res.store_policy, res.dial_policy, res.want_policy) == (
            retry.hop_policy, retry.store_policy, retry.dial_policy, retry.want_policy
        )
        assert res.eviction_threshold == retry.eviction_threshold
