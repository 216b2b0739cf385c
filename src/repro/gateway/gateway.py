"""The gateway's fitted latency models.

Requests flow nginx cache -> pinned node store -> upstream IPFS
retrieval, mirroring the ipfs.io bridge (Section 3.4). A node-store
hit draws :func:`node_store_latency`; a miss draws
:func:`default_upstream_model`, a distribution fitted to the paper's
non-cached latencies (Fig 11a, median ≈ 4.04 s).
:func:`~repro.gateway.replay.sample_latencies` draws the same two
models for one replay window's tiers;
:class:`~repro.gateway.bridge.GatewayBridge` is the variant whose
misses are real retrievals on a live simulated network.
"""

from __future__ import annotations

import math
import random

#: Fitted to Table 5's non-cached median of 4.04 s: the 1 s Bitswap
#: window plus walks and fetch, log-normal around the remainder.
_NON_CACHED_MEDIAN_REMAINDER_S = 3.04
_NON_CACHED_SIGMA = 0.75

#: Node-store hits complete "consistently ... below 24 ms" with an
#: 8 ms median (Section 6.3).
_NODE_STORE_MEDIAN_S = 0.008
_NODE_STORE_SIGMA = 0.5
_NODE_STORE_MAX_S = 0.024


def default_upstream_model(rng: random.Random) -> float:
    """Sample a non-cached retrieval latency (Bitswap window + rest)."""
    rest = rng.lognormvariate(math.log(_NON_CACHED_MEDIAN_REMAINDER_S), _NON_CACHED_SIGMA)
    return 1.0 + rest


def node_store_latency(rng: random.Random) -> float:
    """Latency of a pinned-store hit (disk read, no network)."""
    return min(
        rng.lognormvariate(math.log(_NODE_STORE_MEDIAN_S), _NODE_STORE_SIGMA),
        _NODE_STORE_MAX_S,
    )
