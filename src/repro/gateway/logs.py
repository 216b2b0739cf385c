"""Gateway access-log schema and aggregations (Figure 11, Table 5)."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from repro.utils.stats import percentile


class CacheTier(str, Enum):
    """Where a request was served from (the three columns of Table 5).

    ``SHED`` is ours, not the paper's: admission control turned the
    request away with a 503-equivalent before any upstream work ran
    (zero bytes served). Stock replays never produce it.
    """

    NGINX = "nginx cache"
    NODE_STORE = "IPFS node store"
    NON_CACHED = "Non Cached"
    SHED = "Shed"


@dataclass(frozen=True)
class AccessLogEntry:
    """One served request (mirrors the paper's nginx log fields)."""

    timestamp: float
    user: str
    country: str
    cid_index: int
    size: int
    latency: float
    tier: CacheTier
    referrer: str | None


@dataclass(frozen=True)
class TierSummary:
    """One column of Table 5."""

    tier: CacheTier
    median_latency: float
    traffic_share: float
    request_share: float


def tier_summary(entries: Iterable[AccessLogEntry]) -> list[TierSummary]:
    """Per-tier medians and shares (Table 5)."""
    entries = list(entries)
    total_bytes = sum(entry.size for entry in entries)
    total_requests = len(entries)
    rows = []
    for tier in CacheTier:
        subset = [entry for entry in entries if entry.tier == tier]
        if not subset:
            rows.append(TierSummary(tier, 0.0, 0.0, 0.0))
            continue
        rows.append(
            TierSummary(
                tier=tier,
                median_latency=percentile([entry.latency for entry in subset], 50),
                traffic_share=sum(e.size for e in subset) / total_bytes,
                request_share=len(subset) / total_requests,
            )
        )
    return rows


def bin_traffic(
    entries: Iterable[AccessLogEntry], bin_seconds: float = 1800.0
) -> list[tuple[float, int, int]]:
    """(bin_start, cached_requests, non_cached_requests) per bin —
    the two stacked series of Figure 11b."""
    bins: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for entry in entries:
        if entry.tier == CacheTier.SHED:
            continue  # nothing was served; Fig 11b plots traffic
        index = int(entry.timestamp // bin_seconds)
        if entry.tier == CacheTier.NON_CACHED:
            bins[index][1] += 1
        else:
            bins[index][0] += 1
    return [
        (index * bin_seconds, cached, non_cached)
        for index, (cached, non_cached) in sorted(bins.items())
    ]


def request_rate_series(
    entries: Iterable[AccessLogEntry], bin_seconds: float = 300.0
) -> list[tuple[float, int]]:
    """Requests per bin (Figure 4b's gateway-timezone series)."""
    bins: dict[int, int] = defaultdict(int)
    for entry in entries:
        bins[int(entry.timestamp // bin_seconds)] += 1
    return [(index * bin_seconds, count) for index, count in sorted(bins.items())]


def referral_statistics(entries: Iterable[AccessLogEntry]) -> dict[str, float]:
    """Referral shares (Section 6.3 "Gateway Referrals")."""
    entries = list(entries)
    referred = [entry for entry in entries if entry.referrer is not None]
    if not entries:
        return {
            "referred_share": 0.0, "semi_popular_share": 0.0,
            "semi_popular_sites": 0,
        }
    semi = [
        entry for entry in referred if entry.referrer.startswith("site-")
    ]
    return {
        "referred_share": len(referred) / len(entries),
        "semi_popular_share": len(semi) / len(referred) if referred else 0.0,
        "semi_popular_sites": len({entry.referrer for entry in semi}),
    }
