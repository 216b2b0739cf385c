"""Protection rungs above the paper's stock node (Sections 5–6).

A node runs one rung of :data:`PROTECTIONS`: ``bare`` (go-ipfs v0.10),
``retry`` (jittered backoff everywhere) or ``resilient`` (the retries
plus per-peer circuit breakers, adaptive RPC deadlines from an online
RTT estimator, hedged requests and degraded-mode fallbacks: Bitswap
broadcast, stale gateway serves). The default is ``bare``; see
:mod:`repro.resilience.core`.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, BreakerRegistry
from repro.resilience.core import PROTECTIONS, Resilience, ResilienceStats
from repro.resilience.hedge import HedgeOutcome, first_success, hedged_call
from repro.resilience.rtt import RttEstimator

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerRegistry",
    "RttEstimator",
    "HedgeOutcome",
    "first_success",
    "hedged_call",
    "PROTECTIONS",
    "Resilience",
    "ResilienceStats",
]
