"""Graceful degradation under churn (Sections 5–6 of the paper).

Four independent, individually-flagged mechanisms: per-peer circuit
breakers, adaptive RPC deadlines from an online RTT estimator, hedged
requests, and degraded-mode fallbacks (Bitswap broadcast, stale
gateway serves). All default off; see :mod:`repro.resilience.core`.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    BreakerRegistry,
)
from repro.resilience.core import (
    DISABLED_RESILIENCE_CONFIG,
    Resilience,
    ResilienceConfig,
    ResilienceStats,
)
from repro.resilience.hedge import HedgeOutcome, first_success, hedged_call
from repro.resilience.rtt import RttEstimator

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerConfig",
    "BreakerRegistry",
    "RttEstimator",
    "HedgeOutcome",
    "first_success",
    "hedged_call",
    "Resilience",
    "ResilienceConfig",
    "ResilienceStats",
    "DISABLED_RESILIENCE_CONFIG",
]
