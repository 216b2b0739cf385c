"""The gateway experiment (Sections 4.2 and 6.3).

Serves one generated day through the replay's stages —
:func:`~repro.workloads.gateway_trace.generate_columnar_trace`, then
:func:`~repro.gateway.replay.resolve_tiers`, then
:func:`~repro.gateway.replay.sample_latencies` over the whole day from
one sequential stream — and computes every quantity the paper reports
from the columns: request time series (Fig 4b), user geography
(Fig 6), latency and size distributions (Fig 11a), cache-tier traffic
bins (Fig 11b), tier summaries (Table 5), referral statistics, and the
size/latency correlation.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.gateway.logs import AccessLogEntry, TierSummary
from repro.gateway.replay import (
    DEFAULT_CACHE_FRACTION_OF_CORPUS,
    TIER_NAMES,
    TIER_NGINX,
    TIER_NODE_STORE,
    TIER_NON_CACHED,
    resolve_tiers,
    sample_latencies,
)
from repro.utils.rng import derive_rng
from repro.utils.stats import Cdf, pearson_correlation, percentile
from repro.workloads.gateway_trace import (
    ColumnarTrace,
    GatewayTraceConfig,
    generate_columnar_trace,
)


@dataclass(frozen=True)
class GatewayExperimentConfig:
    trace: GatewayTraceConfig = field(default_factory=GatewayTraceConfig)
    cache_capacity_bytes: int | None = None
    seed: int = 99


@dataclass
class GatewayExperimentResults:
    """The served day as columns: the trace, each request's tier code,
    the bytes requested per tier code, and the node-store and
    non-cached latencies in request order."""

    trace: ColumnarTrace
    tiers: array
    tier_bytes: list[int]
    node_store_latencies: array
    non_cached_latencies: array

    def latencies(self) -> Iterator[float]:
        """Each request's latency, in request order (nginx hits 0 s)."""
        per_tier = {
            TIER_NODE_STORE: iter(self.node_store_latencies),
            TIER_NON_CACHED: iter(self.non_cached_latencies),
        }
        for tier in self.tiers:
            yield 0.0 if tier == TIER_NGINX else next(per_tier[tier])

    def sizes(self) -> Iterator[int]:
        """Each request's object size, in request order."""
        return map(self.trace.cid_sizes.__getitem__, self.trace.cid_ids)

    def entries(self) -> Iterator[AccessLogEntry]:
        """The day as access-log rows (export, equivalence tests)."""
        for index, latency in enumerate(self.latencies()):
            request = self.trace.request_at(index)
            yield AccessLogEntry(
                timestamp=request.timestamp,
                user=request.user,
                country=request.country,
                cid_index=request.cid_index,
                size=request.size,
                latency=latency,
                tier=TIER_NAMES[self.tiers[index]],
                referrer=request.referrer,
            )

    # -- Fig 4b ---------------------------------------------------------
    def request_series(self, bin_seconds: float = 300.0):
        """Requests per bin (the gateway-timezone series)."""
        bins = Counter(int(ts // bin_seconds) for ts in self.trace.timestamps)
        return [(index * bin_seconds, count) for index, count in sorted(bins.items())]

    # -- Fig 6 ----------------------------------------------------------
    def user_country_shares(self) -> dict[str, float]:
        countries = self.trace.user_countries
        counts = Counter(countries[user] for user in self.trace.user_ids)
        total = sum(counts.values())
        return {country: count / total for country, count in counts.most_common()}

    # -- Fig 11a ---------------------------------------------------------
    def latency_cdf(self) -> Cdf:
        return Cdf.from_samples(self.latencies())

    def size_cdf(self) -> Cdf:
        return Cdf.from_samples(self.sizes())

    def size_latency_correlation(self) -> float:
        return pearson_correlation(
            [float(size) for size in self.sizes()], list(self.latencies())
        )

    # -- Fig 11b / Table 5 ------------------------------------------------
    def traffic_bins(self, bin_seconds: float = 1800.0):
        """(bin_start, cached_requests, non_cached_requests) per bin —
        the two stacked series of Figure 11b."""
        bins: dict[int, list[int]] = {}
        for ts, tier in zip(self.trace.timestamps, self.tiers):
            counts = bins.setdefault(int(ts // bin_seconds), [0, 0])
            counts[tier == TIER_NON_CACHED] += 1
        return [
            (index * bin_seconds, cached, non_cached)
            for index, (cached, non_cached) in sorted(bins.items())
        ]

    def tier_table(self) -> list[TierSummary]:
        """Per-tier medians and shares (Table 5), one row per tier."""
        n = len(self.tiers)
        latencies = {
            TIER_NGINX: [0.0],  # every nginx hit is served in 0 s
            TIER_NODE_STORE: self.node_store_latencies,
            TIER_NON_CACHED: self.non_cached_latencies,
        }
        rows = []
        for code, tier in TIER_NAMES.items():
            count = self.tiers.count(code)
            if not count:
                rows.append(TierSummary(tier, 0.0, 0.0, 0.0))
                continue
            rows.append(TierSummary(
                tier=tier,
                median_latency=percentile(latencies[code], 50),
                traffic_share=self.tier_bytes[code] / self.trace.total_bytes,
                request_share=count / n,
            ))
        return rows

    def combined_hit_rate(self) -> float:
        """Share of requests served from either cache tier (>80 % in
        the paper once the node store is counted)."""
        hits = self.tiers.count(TIER_NGINX) + self.tiers.count(TIER_NODE_STORE)
        return hits / len(self.tiers) if self.tiers else 0.0

    # -- referrals ---------------------------------------------------------
    def referrals(self) -> dict[str, float]:
        """Referral shares (Section 6.3 "Gateway Referrals"): referrer
        code 0 is a direct hit, a positive code a semi-popular site."""
        trace = self.trace
        referred = trace.referred_count
        return {
            "referred_share": referred / len(trace) if len(trace) else 0.0,
            "semi_popular_share": (
                trace.semi_popular_count / referred if referred else 0.0
            ),
            "semi_popular_sites": len(
                {code for code in trace.referrer_codes if code > 0}
            ),
        }

    # -- headline usage numbers (Section 4.2) -------------------------------
    def usage_summary(self) -> dict[str, float]:
        return {
            "requests": len(self.trace),
            "users": self.trace.user_count,
            "unique_cids": self.trace.cid_count,
            "bytes": self.trace.total_bytes,
        }


def run_gateway_experiment(config: GatewayExperimentConfig) -> GatewayExperimentResults:
    """Generate and serve one day of gateway traffic."""
    trace = generate_columnar_trace(config.trace, derive_rng(config.seed, "trace"))
    capacity = config.cache_capacity_bytes
    if capacity is None:
        corpus_bytes = sum(trace.cid_sizes)
        capacity = max(1, int(corpus_bytes * DEFAULT_CACHE_FRACTION_OF_CORPUS))
    tiers, tier_bytes = resolve_tiers(trace, capacity)
    node_store, non_cached = sample_latencies(
        derive_rng(config.seed, "gateway").random, tiers
    )
    return GatewayExperimentResults(
        trace, tiers, tier_bytes, node_store, non_cached
    )
