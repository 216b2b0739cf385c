"""Conformance runner: execute the three evaluations, grade fidelity.

Runs scaled-down versions of the paper's three measurement campaigns
— the peer dataset (population analysis + crawl/probe campaign), the
gateway dataset (trace replay) and the performance dataset (six-region
publish/retrieve) — computes the same statistics the paper reports,
and grades each against :data:`repro.validation.targets.TARGETS`.

The three datasets are independent experiment cells in the sense of
:mod:`repro.experiments.runner`: each builds its world from RNGs
derived from ``(seed, dataset)``, so they can shard across worker
processes and the merged report is byte-identical for any ``workers``
value. The layer is read-only over experiment outputs: it installs no
hooks and flips no feature flags, so the golden trace is untouched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from repro.experiments.datasets import (
    crawl_dataset,
    deployment_dataset,
    gateway_dataset,
    perf_dataset,
)
from repro.experiments.runner import Cell, run_cells
from repro.utils.stats import percentiles
from repro.validation.compare import ks_against_reference
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import (
    DATASETS,
    GATEWAY,
    PEER,
    PERFORMANCE,
    RETRIEVAL_CDF_FIG9D,
    TARGETS,
    TARGETS_BY_KEY,
)
from repro.workloads.compact import REACH_NEVER

#: Regions the paper finds slowest for retrievals (Table 4 / Fig 9a:
#: af_south and ap_southeast; sa_east sits in the same far band).
_FAR_REGIONS = frozenset({"af_south_1", "ap_southeast_2", "sa_east_1"})


@dataclass(frozen=True)
class ValidationConfig:
    """Scales of the three scaled-down evaluations (one tier)."""

    tier: str = "quick"
    seed: int = 42
    population_peers: int = 6_000
    crawl_peers: int = 150
    crawl_hours: float = 12.0
    crawl_interval_s: float = 1800.0
    perf_peers: int = 600
    perf_rounds: int = 3
    gateway_scale: int = 120


QUICK = ValidationConfig()

FULL = ValidationConfig(
    tier="full",
    population_peers=30_000,
    crawl_peers=300,
    perf_peers=1_500,
    perf_rounds=4,
    gateway_scale=40,
)

TIERS: dict[str, ValidationConfig] = {"quick": QUICK, "full": FULL}


def config_for_tier(tier: str, seed: int | None = None) -> ValidationConfig:
    """The committed configuration of a tier, optionally re-seeded."""
    try:
        config = TIERS[tier]
    except KeyError:
        raise ValueError(
            f"unknown tier {tier!r}; expected one of {sorted(TIERS)}"
        ) from None
    if seed is not None and seed != config.seed:
        config = replace(config, seed=seed)
    return config


# --------------------------------------------------------------------------
# Dataset cells (module-level and picklable for runner sharding)
# --------------------------------------------------------------------------

#: The metric keys each dataset cell produces, pinned so the registry
#: and the runners cannot drift apart silently (tested both ways).
METRIC_KEYS_BY_DATASET: dict[str, tuple[str, ...]] = {
    dataset: tuple(t.key for t in TARGETS if t.dataset == dataset)
    for dataset in DATASETS
}


def run_peer_dataset(config: ValidationConfig) -> dict[str, float | None]:
    """Population analysis + crawl/probe campaign (Section 5)."""
    population, analysis = deployment_dataset(
        config.population_peers, seed=config.seed, label="validate-pop"
    )
    never = population.peer_reach.count(REACH_NEVER) / len(population)

    _, campaign = crawl_dataset(
        config.crawl_peers, config.crawl_hours, config.crawl_interval_s,
        seed=config.seed, run_seed=config.seed, label="validate-crawl-pop",
    )
    churn = campaign.churn_summary()

    return {
        "peer.country_share_us": analysis.country_shares.get("US", 0.0),
        "peer.country_share_cn": analysis.country_shares.get("CN", 0.0),
        "peer.multihoming_share": analysis.multihoming,
        "peer.top10_as_share": analysis.top10_as_share,
        "peer.top100_as_share": analysis.top100_as_share,
        "peer.cloud_ip_share": sum(row.share for row in analysis.cloud_rows),
        "peer.never_reachable_share": never,
        "peer.undialable_fraction": campaign.undialable_fraction(),
        "peer.session_under_8h": churn.under_8h_fraction,
    }


def run_gateway_dataset(config: ValidationConfig) -> dict[str, float]:
    """One replayed day of gateway traffic (Sections 4.2, 6.3)."""
    results = gateway_dataset(config.gateway_scale, seed=config.seed)
    trace = results.trace
    user_countries = Counter(
        trace.user_countries[user] for user in set(trace.user_ids)
    )
    n_users = sum(user_countries.values())
    usage = results.usage_summary()
    tiers = {row.tier.value: row for row in results.tier_table()}
    referrals = results.referrals()
    sizes = trace.cid_sizes
    size_median, = percentiles(sizes, [50])

    return {
        "gateway.user_share_us": user_countries.get("US", 0) / n_users,
        "gateway.user_share_cn": user_countries.get("CN", 0) / n_users,
        "gateway.requests_per_user": usage["requests"] / usage["users"],
        "gateway.requests_per_cid": usage["requests"] / usage["unique_cids"],
        "gateway.nginx_request_share": tiers["nginx cache"].request_share,
        "gateway.node_store_request_share": (
            tiers["IPFS node store"].request_share
        ),
        "gateway.combined_hit_rate": results.combined_hit_rate(),
        "gateway.referred_share": referrals["referred_share"],
        "gateway.semi_popular_referral_share": referrals["semi_popular_share"],
        "gateway.object_size_median_kb": size_median / 1000.0,
        "gateway.object_size_over_100kb": (
            sum(1 for size in sizes if size > 100_000) / len(sizes)
        ),
    }


def run_performance_dataset(config: ValidationConfig) -> dict[str, float]:
    """The six-region publish/retrieve experiment (Sections 6.1-6.2)."""
    _, results = perf_dataset(
        config.perf_peers, config.perf_rounds, seed=config.seed,
        run_seed=config.seed, label="validate-perf-pop",
    )
    publications = [r.total_duration for r in results.all_publications()]
    retrievals = [r.total_duration for r in results.all_retrievals()]
    operations = len(publications) + len(retrievals)
    success = operations / (operations + results.failures) if operations else 0.0
    pub_p50, = percentiles(publications, [50])
    get_p50, get_p90, get_p95 = percentiles(retrievals, [50, 90, 95])
    region_medians = {
        region: row["retrieval"][0]
        for region, row in results.latency_percentiles().items()
        if "retrieval" in row
    }
    slowest = max(region_medians, key=region_medians.__getitem__)

    return {
        "perf.publication_p50_s": pub_p50,
        "perf.retrieval_p50_s": get_p50,
        "perf.retrieval_p90_s": get_p90,
        "perf.retrieval_p95_s": get_p95,
        "perf.retrieval_success_rate": success,
        "perf.retrieval_cdf_ks": ks_against_reference(
            retrievals, RETRIEVAL_CDF_FIG9D
        ),
        "perf.slowest_region_is_far": 1.0 if slowest in _FAR_REGIONS else 0.0,
    }


_DATASET_RUNNERS = {
    PEER: run_peer_dataset,
    GATEWAY: run_gateway_dataset,
    PERFORMANCE: run_performance_dataset,
}


# --------------------------------------------------------------------------
# Grading
# --------------------------------------------------------------------------


def grade_measurements(
    config: ValidationConfig, measured: dict[str, float]
) -> GradedReport:
    """Grade a measurement dict against the registry (registry order):
    one claim per paper target, scoped by its dataset."""
    missing = [t.key for t in TARGETS if t.key not in measured]
    if missing:
        raise ValueError(f"measurements missing for targets: {missing}")
    unknown = sorted(set(measured) - set(TARGETS_BY_KEY))
    if unknown:
        raise ValueError(f"measurements with no registered target: {unknown}")
    claims = [
        Claim.graded(
            target.key, measured[target.key], target.paper_value,
            target.grade(measured[target.key]), scope=target.dataset,
            description=f"{target.description} ({target.source})",
        )
        for target in TARGETS
    ]
    # The three dataset cells hand back exactly the measured values the
    # claims carry, so there is no per-cell table to publish.
    return GradedReport("fidelity", config, (), (), claims)


def run_conformance(
    config: ValidationConfig, workers: int = 1
) -> GradedReport:
    """Run all three dataset cells and grade the merged measurements.

    The cells are independent (each derives its RNGs from the seed and
    its own label), so any ``workers`` value yields the same report.
    """
    cells = [
        Cell(f"validate[{dataset}]", _DATASET_RUNNERS[dataset], (config,))
        for dataset in DATASETS
    ]
    measured: dict[str, float] = {}
    for dataset, result in zip(DATASETS, run_cells(cells, workers=workers)):
        expected = METRIC_KEYS_BY_DATASET[dataset]
        if tuple(result) != expected:  # pragma: no cover - runner bug
            raise RuntimeError(
                f"{dataset} cell produced keys {tuple(result)}, "
                f"expected {expected}"
            )
        measured.update(result)
    return grade_measurements(config, measured)
