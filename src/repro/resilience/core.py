"""The resilience facade: one object the protocol stack consults.

`Resilience` bundles the circuit-breaker registry (:mod:`.breaker`),
the RTT estimator (:mod:`.rtt`) and the bookkeeping for hedges and
degraded-mode fallbacks behind a single always-present object. Every
feature is gated by its own flag in :class:`ResilienceConfig`, and all
flags default **off**: a disabled `Resilience` allocates no registry,
no estimator, draws no randomness, schedules nothing, and its
record/allow methods are early-return no-ops — runs without the flags
stay byte-identical to the tree before this layer existed (the golden
trace in ``tests/test_determinism.py`` enforces it).

Counters live in two places on purpose: :class:`ResilienceStats` is a
plain per-node struct experiments aggregate cheaply, and when the
network carries an :class:`repro.obs.Observability` the same events
also bump ``resilience.*`` metrics and emit tracer events so chaos
runs can be inspected with the standard trace tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.multiformats.peerid import PeerId
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    BreakerRegistry,
)
from repro.resilience.rtt import RttEstimator

if TYPE_CHECKING:
    from repro.simnet.network import Network
    from repro.simnet.sim import Simulator

#: hedge-delay fallback while the estimator is cold.
HEDGE_DEFAULT_DELAY_S = 2.0
#: how long a fallback Bitswap broadcast waits for an IHAVE.
FALLBACK_WINDOW_S = 2.0
#: adaptive cap on an IPNS resolve: this many per-hop deadlines.
WALK_HOP_BUDGET = 6


@dataclass(frozen=True)
class ResilienceConfig:
    """Feature flags and tunables for the resilience layer.

    Each flag enables one independent mechanism; all default off so the
    stock stack is bit-for-bit unchanged.
    """

    #: per-peer circuit breakers fed by dial/RPC outcomes.
    breakers: bool = False
    #: race a delayed duplicate for slow walk queries and dials.
    hedging: bool = False
    #: replace fixed RPC timeouts with RTT-derived deadlines.
    adaptive_timeouts: bool = False
    #: degraded modes: Bitswap broadcast after walk exhaustion, stale
    #: gateway cache entries served with a `degraded` flag.
    fallbacks: bool = False

    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    @property
    def any_enabled(self) -> bool:
        return self.breakers or self.hedging or self.adaptive_timeouts or self.fallbacks


@dataclass
class ResilienceStats:
    """Per-node counts of what the resilience layer actually did."""

    breaker_opened: int = 0
    breaker_half_opened: int = 0
    breaker_closed: int = 0
    breaker_skips: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0
    fallback_broadcasts: int = 0
    fallback_hits: int = 0
    stale_served: int = 0
    adaptive_deadlines: int = 0


class Resilience:
    """Per-node resilience state consulted across the protocol stack."""

    def __init__(
        self,
        config: ResilienceConfig,
        sim: "Simulator",
        network: "Network | None" = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        # Hot paths branch on these plain bools, not attribute chains.
        self.breakers_on = config.breakers
        self.hedging_on = config.hedging
        self.adaptive_on = config.adaptive_timeouts
        self.fallbacks_on = config.fallbacks
        self.stats = ResilienceStats()
        self.breakers: BreakerRegistry | None = (
            BreakerRegistry(
                config.breaker,
                clock=lambda: sim.now,
                on_transition=self._on_breaker_transition,
            )
            if config.breakers
            else None
        )
        # Hedging shares the estimator: its launch delay is a quantile
        # of the same observed durations the deadline is derived from.
        self.rtt: RttEstimator | None = (
            RttEstimator()
            if (config.adaptive_timeouts or config.hedging)
            else None
        )

    # -- circuit breakers ------------------------------------------------

    def allow(self, peer_id: PeerId) -> bool:
        """Gate one request; counts and exports refusals."""
        if self.breakers is None:
            return True
        if self.breakers.allow(peer_id):
            return True
        self.stats.breaker_skips += 1
        self._count("resilience.breaker.skips")
        return False

    def is_open(self, peer_id: PeerId) -> bool:
        """Read-only breaker check for filters (no state transitions)."""
        return self.breakers is not None and self.breakers.is_open(peer_id)

    def record_success(self, peer_id: PeerId) -> None:
        if self.breakers is not None:
            self.breakers.record_success(peer_id)

    def record_failure(self, peer_id: PeerId) -> None:
        if self.breakers is not None:
            self.breakers.record_failure(peer_id)

    def _on_breaker_transition(self, peer_id: PeerId, old: str, new: str) -> None:
        if new == OPEN:
            self.stats.breaker_opened += 1
            self._count("resilience.breaker.opened")
        elif new == HALF_OPEN:
            self.stats.breaker_half_opened += 1
            self._count("resilience.breaker.half_opened")
        elif new == CLOSED:
            self.stats.breaker_closed += 1
            self._count("resilience.breaker.closed")
        network = self.network
        if network is not None and network.tracer.enabled:
            network.tracer.event(
                "resilience.breaker", peer=str(peer_id), **{"from": old, "to": new}
            )

    # -- adaptive deadlines ----------------------------------------------

    def observe_rtt(self, region: Hashable, duration_s: float) -> None:
        """Feed one successful RPC duration into the estimator."""
        if self.rtt is not None:
            self.rtt.observe(region, duration_s)

    def rpc_deadline_s(self, region: Hashable, default: float) -> float:
        """The deadline for one RPC toward ``region`` (default when cold)."""
        if self.rtt is None or not self.adaptive_on:
            return default
        deadline = self.rtt.deadline_s(region, None)
        if deadline is None:
            return default
        self.stats.adaptive_deadlines += 1
        return deadline

    def walk_budget_s(self, default: float) -> float:
        """An adaptive overall budget: :data:`WALK_HOP_BUDGET` hop deadlines.

        Never exceeds ``default`` — adaptation only tightens budgets.
        """
        if self.rtt is None or not self.adaptive_on:
            return default
        deadline = self.rtt.deadline_s(None, None)
        if deadline is None:
            return default
        return min(default, deadline * WALK_HOP_BUDGET)

    def hedge_delay_s(self, region: Hashable) -> float:
        """How long the original request runs before a hedge launches."""
        if self.rtt is None:
            return HEDGE_DEFAULT_DELAY_S
        return self.rtt.hedge_delay_s(region, HEDGE_DEFAULT_DELAY_S)

    # -- event counters ---------------------------------------------------

    def count_hedge_launched(self) -> None:
        self.stats.hedges_launched += 1
        self._count("resilience.hedge.launched")

    def count_hedge_win(self) -> None:
        self.stats.hedge_wins += 1
        self._count("resilience.hedge.wins")

    def count_hedge_loss(self) -> None:
        self.stats.hedge_losses += 1
        self._count("resilience.hedge.losses")

    def count_fallback_broadcast(self) -> None:
        self.stats.fallback_broadcasts += 1
        self._count("resilience.fallback.broadcasts")

    def count_fallback_hit(self) -> None:
        self.stats.fallback_hits += 1
        self._count("resilience.fallback.hits")

    def count_stale_served(self) -> None:
        self.stats.stale_served += 1
        self._count("resilience.fallback.stale_served")

    def _count(self, name: str) -> None:
        network = self.network
        if network is not None and network.obs is not None:
            network.obs.metrics.counter(name).inc()


#: Shared config for nodes constructed without an explicit one; frozen,
#: so one instance can safely back every disabled-by-default node.
DISABLED_RESILIENCE_CONFIG = ResilienceConfig()
