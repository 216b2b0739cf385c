"""The gateway experiment (Sections 4.2 and 6.3).

Generates a day of traffic with :mod:`repro.workloads.gateway_trace`,
replays it through a :class:`~repro.gateway.gateway.Gateway`, and
computes every quantity the paper reports: request time series
(Fig 4b), user geography (Fig 6), latency and size distributions
(Fig 11a), cache-tier traffic bins (Fig 11b), tier summaries (Table 5),
referral statistics, and the size/latency correlation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.gateway.gateway import Gateway
from repro.gateway.logs import (
    AccessLogEntry,
    CacheTier,
    TierSummary,
    bin_traffic,
    referral_statistics,
    request_rate_series,
    tier_summary,
)
from repro.gateway.replay import DEFAULT_CACHE_FRACTION_OF_CORPUS
from repro.utils.rng import derive_rng
from repro.utils.stats import Cdf, pearson_correlation
from repro.workloads.gateway_trace import (
    GatewayTrace,
    GatewayTraceConfig,
    generate_gateway_trace,
)

@dataclass(frozen=True)
class GatewayExperimentConfig:
    trace: GatewayTraceConfig = field(default_factory=GatewayTraceConfig)
    cache_capacity_bytes: int | None = None
    seed: int = 99


@dataclass
class GatewayExperimentResults:
    trace: GatewayTrace
    log: list[AccessLogEntry]

    # -- Fig 4b ---------------------------------------------------------
    def request_series(self, bin_seconds: float = 300.0):
        return request_rate_series(self.log, bin_seconds)

    # -- Fig 6 ----------------------------------------------------------
    def user_country_shares(self) -> dict[str, float]:
        counts = Counter(entry.country for entry in self.log)
        total = sum(counts.values())
        return {country: count / total for country, count in counts.most_common()}

    # -- Fig 11a ---------------------------------------------------------
    def latency_cdf(self) -> Cdf:
        return Cdf.from_samples(entry.latency for entry in self.log)

    def size_cdf(self) -> Cdf:
        return Cdf.from_samples(entry.size for entry in self.log)

    def size_latency_correlation(self) -> float:
        return pearson_correlation(
            [float(entry.size) for entry in self.log],
            [entry.latency for entry in self.log],
        )

    # -- Fig 11b / Table 5 ------------------------------------------------
    def traffic_bins(self, bin_seconds: float = 1800.0):
        return bin_traffic(self.log, bin_seconds)

    def tier_table(self) -> list[TierSummary]:
        return tier_summary(self.log)

    def combined_hit_rate(self) -> float:
        """Share of requests served from either cache tier (>80 % in
        the paper once the node store is counted)."""
        hit_tiers = (CacheTier.NGINX, CacheTier.NODE_STORE)
        hits = sum(1 for e in self.log if e.tier in hit_tiers)
        return hits / len(self.log) if self.log else 0.0

    # -- referrals ---------------------------------------------------------
    def referrals(self) -> dict[str, float]:
        return referral_statistics(self.log)

    # -- headline usage numbers (Section 4.2) -------------------------------
    def usage_summary(self) -> dict[str, float]:
        return {
            "requests": len(self.log),
            "users": len({entry.user for entry in self.log}),
            "unique_cids": len({entry.cid_index for entry in self.log}),
            "bytes": sum(entry.size for entry in self.log),
        }


def run_gateway_experiment(config: GatewayExperimentConfig) -> GatewayExperimentResults:
    """Generate + replay one day of gateway traffic."""
    rng = derive_rng(config.seed, "gateway")
    trace = generate_gateway_trace(config.trace, derive_rng(config.seed, "trace"))
    capacity = config.cache_capacity_bytes
    if capacity is None:
        corpus_bytes = sum(trace.cid_sizes)
        capacity = max(1, int(corpus_bytes * DEFAULT_CACHE_FRACTION_OF_CORPUS))
    gateway = Gateway(
        cache_capacity_bytes=capacity,
        pinned_cids=trace.pinned_cids,
        rng=rng,
    )
    log = gateway.replay(trace.requests)
    return GatewayExperimentResults(trace=trace, log=log)
