"""The four dataset runners: population → world → campaign, once.

Every consumer of the paper's three datasets — the figure cells of
:mod:`repro.experiments.figures`, the three dataset cells of
:mod:`repro.validation.conformance` and the ``perf`` / ``deployment`` /
``crawl`` / ``gateway`` / ``trace`` subcommands — builds them here,
varying only what it really varies: size, world seed, run seed, the
population's rng label, and for ``perf`` the ``NodeConfig`` / ``obs``
the CLI passes. Kept apart from the figure registry because
``repro.validation`` (which every graded pipeline imports) needs the
runners and nothing else of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.experiments.deployment import (
    CrawlCampaignConfig,
    CrawlCampaignResults,
    PopulationAnalysis,
    analyze_population,
    run_crawl_timeseries,
)
from repro.experiments.gateway_exp import (
    GatewayExperimentConfig,
    GatewayExperimentResults,
    run_gateway_experiment,
)
from repro.experiments.perf import PerfConfig, PerfResults, run_perf_experiment
from repro.experiments.scenario import AWS_REGIONS, Scenario, ScenarioConfig, build_scenario
from repro.node.config import NodeConfig
from repro.obs import Observability
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import GatewayTraceConfig
from repro.workloads.compact import CompactPopulation
from repro.workloads.population import PopulationConfig, generate_population


def _population(n_peers: int, seed: int, label: str) -> CompactPopulation:
    return generate_population(PopulationConfig(n_peers=n_peers), derive_rng(seed, label))


def build_world(
    n_peers: int, seed: int, label: str,
    vantage_regions: Sequence[str] | None = None, **scenario: Any,
) -> Scenario:
    """A population of ``n_peers`` drawn from ``(seed, label)`` as a
    simulated network; ``scenario`` are :class:`ScenarioConfig` fields."""
    return build_scenario(
        _population(n_peers, seed, label), ScenarioConfig(seed=seed, **scenario),
        vantage_regions=vantage_regions,
    )


def perf_dataset(
    n_peers: int, rounds: int, *, seed: int, run_seed: int, label: str,
    node_config: NodeConfig | None = None, obs: Observability | None = None,
) -> tuple[Scenario, PerfResults]:
    """The six-region publish/retrieve experiment (Sections 4.3, 6.1-6.2)."""
    scenario = build_world(n_peers, seed, label, AWS_REGIONS, node_config=node_config)
    return scenario, run_perf_experiment(
        scenario, PerfConfig(rounds=rounds, seed=run_seed), obs=obs
    )


def deployment_dataset(
    n_peers: int, *, seed: int, label: str
) -> tuple[CompactPopulation, PopulationAnalysis]:
    """The registry-join analysis over a population (Section 5)."""
    population = _population(n_peers, seed, label)
    return population, analyze_population(population)


def crawl_dataset(
    n_peers: int, hours: float, interval_s: float, *, seed: int, run_seed: int, label: str
) -> tuple[Scenario, CrawlCampaignResults]:
    """Crawler + uptime prober over a churning world (Sections 4.1, 5.3)."""
    scenario = build_world(n_peers, seed, label)
    return scenario, run_crawl_timeseries(scenario.world, CrawlCampaignConfig(
        crawl_interval_s=interval_s, duration_s=hours * 3600.0, seed=run_seed
    ))


def gateway_dataset(
    scale: int, *, seed: int, cache_capacity_bytes: int | None = None
) -> GatewayExperimentResults:
    """One replayed day at the gateway (Sections 4.2, 6.3)."""
    return run_gateway_experiment(GatewayExperimentConfig(
        trace=GatewayTraceConfig(scale=scale),
        cache_capacity_bytes=cache_capacity_bytes, seed=seed,
    ))
