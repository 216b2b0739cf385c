"""HTTP gateways into IPFS (Sections 3.4 and 6.3).

A gateway bridges plain-HTTP clients into the P2P network. Ours mirrors
the ipfs.io deployment the paper instruments:

- an **nginx-style web cache** (LRU) in front — tier 1, 0-latency hits;
- the co-located node's **pinned store** (Web3/NFT Storage content) —
  tier 2, single-digit-millisecond hits;
- a full **IPFS retrieval** upstream for everything else — tier 3,
  seconds.

:mod:`repro.gateway.replay` resolves a day's tiers and samples the
fitted latency models of :mod:`repro.gateway.gateway`; its
:class:`ReplayResult` is the day Figures 4b, 6 and 11 and Table 5 read.
"""

from repro.gateway.bridge import BridgedResponse, GatewayBridge
from repro.gateway.cache import ObjectCache
from repro.gateway.fleet import FleetConfig, FleetStats, GatewayFleet
from repro.gateway.gateway import default_upstream_model
from repro.gateway.logs import AccessLogEntry, CacheTier
from repro.gateway.overload import (
    MissGate,
    OverloadConfig,
    OverloadStats,
    ProviderHintCache,
)
from repro.gateway.replay import (
    ReplayConfig,
    ReplayResult,
    resolve_tiers,
    run_replay,
)

__all__ = [
    "AccessLogEntry",
    "BridgedResponse",
    "CacheTier",
    "FleetConfig",
    "FleetStats",
    "GatewayBridge",
    "GatewayFleet",
    "MissGate",
    "ObjectCache",
    "OverloadConfig",
    "OverloadStats",
    "ProviderHintCache",
    "ReplayConfig",
    "ReplayResult",
    "default_upstream_model",
    "resolve_tiers",
    "run_replay",
]
