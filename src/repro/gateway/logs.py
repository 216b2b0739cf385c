"""Gateway access-log schema: cache tiers, log rows and Table 5 rows."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
