"""The gateway itself: tiered request serving.

Requests flow nginx cache -> pinned node store -> upstream IPFS
retrieval, mirroring the ipfs.io bridge (Section 3.4). Upstream
latency is drawn from :func:`default_upstream_model`, a distribution
fitted to the paper's non-cached latencies (Fig 11a, median ≈ 4.04 s).
:class:`~repro.gateway.bridge.GatewayBridge` is the variant whose
misses are real retrievals on a live simulated network.
"""

from __future__ import annotations

import math
import random

from repro.gateway.cache import ObjectCache
from repro.gateway.logs import AccessLogEntry, CacheTier
from repro.workloads.gateway_trace import GatewayRequest

#: Fitted to Table 5's non-cached median of 4.04 s: the 1 s Bitswap
#: window plus walks and fetch, log-normal around the remainder.
_NON_CACHED_MEDIAN_REMAINDER_S = 3.04
_NON_CACHED_SIGMA = 0.75

#: Node-store hits complete "consistently ... below 24 ms" with an
#: 8 ms median (Section 6.3).
_NODE_STORE_MEDIAN_S = 0.008
_NODE_STORE_SIGMA = 0.5
_NODE_STORE_MAX_S = 0.024


def default_upstream_model(request: GatewayRequest, rng: random.Random) -> float:
    """Sample a non-cached retrieval latency (Bitswap window + rest)."""
    rest = rng.lognormvariate(math.log(_NON_CACHED_MEDIAN_REMAINDER_S), _NON_CACHED_SIGMA)
    return 1.0 + rest


def node_store_latency(rng: random.Random) -> float:
    """Latency of a pinned-store hit (disk read, no network)."""
    return min(
        rng.lognormvariate(math.log(_NODE_STORE_MEDIAN_S), _NODE_STORE_SIGMA),
        _NODE_STORE_MAX_S,
    )


class Gateway:
    """One gateway instance: caches plus an access log."""

    def __init__(
        self,
        cache_capacity_bytes: int,
        pinned_cids: set[int],
        rng: random.Random,
    ) -> None:
        self.web_cache = ObjectCache(cache_capacity_bytes)
        self.pinned_cids = set(pinned_cids)
        self.rng = rng
        self.log: list[AccessLogEntry] = []

    def serve(self, request: GatewayRequest) -> AccessLogEntry:
        """Serve one GET request, logging tier and latency."""
        if self.web_cache.lookup(request.cid_index):
            tier = CacheTier.NGINX
            latency = 0.0
        elif request.cid_index in self.pinned_cids:
            tier = CacheTier.NODE_STORE
            latency = node_store_latency(self.rng)
            # Pinned content is already on local disk; nginx is
            # configured to bypass its cache for the node store (double
            # caching would only evict genuinely remote content). This
            # is what keeps the node-store tier at ~40% of requests in
            # Table 5 instead of migrating into the nginx tier.
        else:
            tier = CacheTier.NON_CACHED
            latency = default_upstream_model(request, self.rng)
            self.web_cache.insert(request.cid_index, request.size)
        entry = AccessLogEntry(
            timestamp=request.timestamp,
            user=request.user,
            country=request.country,
            cid_index=request.cid_index,
            size=request.size,
            latency=latency,
            tier=tier,
            referrer=request.referrer,
        )
        self.log.append(entry)
        return entry

    def replay(self, requests) -> list[AccessLogEntry]:
        """Serve a whole trace in timestamp order."""
        return [self.serve(request) for request in requests]
