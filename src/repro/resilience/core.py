"""The resilience facade: one object the protocol stack consults.

`Resilience` holds a node's protection rung (:data:`PROTECTIONS`) and
everything the rung decides: the retry schedules of walk hops, record
stores, dials and Bitswap re-wants, the routing table's eviction
threshold, and — on the ``resilient`` rung only — the circuit-breaker
registry (:mod:`.breaker`), the RTT estimator (:mod:`.rtt`) and the
bookkeeping for hedges and degraded-mode fallbacks. The stack branches
on one bool, :attr:`Resilience.enabled`. What a rung does to one
remote call lives here alone: :meth:`Resilience.call` runs it under a
schedule (the one caller of :func:`repro.utils.retry.retry`) and
:meth:`Resilience.judge` feeds its outcome to the peer's breaker.
Below the top rung the facade allocates no registry, no estimator,
draws no randomness, schedules nothing, and its record/allow methods
are early-return no-ops; the ``bare`` rung is go-ipfs v0.10 exactly
(the golden trace in ``tests/test_determinism.py`` enforces it).

Counters live in two places on purpose: :class:`ResilienceStats` is a
plain per-node struct experiments aggregate cheaply, and when the
network carries an :class:`repro.obs.Observability` the same events
also bump ``resilience.*`` metrics and emit tracer events so chaos
runs can be inspected with the standard trace tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.multiformats.peerid import PeerId
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, BreakerRegistry
from repro.resilience.rtt import RttEstimator
from repro.simnet.sim import Future, TimeoutError_
from repro.utils.retry import AttemptFactory, JitterStreams, RetryPolicy, retry

if TYPE_CHECKING:
    from repro.simnet.network import Network
    from repro.simnet.sim import Simulator

#: hedge-delay fallback while the estimator is cold.
HEDGE_DEFAULT_DELAY_S = 2.0
#: how long a fallback Bitswap broadcast waits for an IHAVE.
FALLBACK_WINDOW_S = 2.0
#: adaptive cap on an IPNS resolve: this many per-hop deadlines.
WALK_HOP_BUDGET = 6

#: The protection ladder, weakest first. ``bare`` is the paper's
#: go-ipfs v0.10: a walk abandons a candidate on its first failure, the
#: publisher is fire-and-forget, a dial gets one immediate second try
#: and one failed query evicts a peer. ``retry`` re-attempts walk hops,
#: stores, dials and Bitswap wants with jittered backoff and evicts on
#: the third strike. ``resilient`` adds breakers, hedging, adaptive
#: deadlines and fallbacks on top of the retries.
PROTECTIONS = ("bare", "retry", "resilient")

NO_RETRY = RetryPolicy()
#: go-ipfs's immediate second dial over the peer's other addresses.
REDIAL = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
#: the hardened rungs' schedule for stores, dials and Bitswap re-wants.
BACKOFF = RetryPolicy(
    max_attempts=3, base_delay_s=0.25, max_delay_s=4.0, jitter="decorrelated"
)
#: the hardened rungs' per-hop walk schedule: one re-attempt, so a hop
#: stays near the budget one un-retried query gets.
HOP_BACKOFF = RetryPolicy(
    max_attempts=2, base_delay_s=0.25, max_delay_s=2.0, jitter="decorrelated"
)

#: rung -> (walk hop, record store, dial, Bitswap re-want) schedules.
RETRY_SCHEDULES = {
    "bare": (NO_RETRY, NO_RETRY, REDIAL, NO_RETRY),
    "retry": (HOP_BACKOFF, BACKOFF, BACKOFF, BACKOFF),
    "resilient": (HOP_BACKOFF, BACKOFF, BACKOFF, BACKOFF),
}
#: rung -> consecutive query failures before a routing-table eviction.
EVICTION_THRESHOLDS = {"bare": 1, "retry": 3, "resilient": 3}


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
        protection: str,
        sim: "Simulator",
        network: "Network | None" = None,
    ) -> None:
        self.sim = sim
        self.network = network
        (
            self.hop_policy, self.store_policy, self.dial_policy, self.want_policy
        ) = RETRY_SCHEDULES[protection]
        self.eviction_threshold = EVICTION_THRESHOLDS[protection]
        #: the top rung: breakers, hedging, adaptive deadlines and
        #: fallbacks, all on together. Hot paths branch on this bool.
        self.enabled = protection == "resilient"
        self.stats = ResilienceStats()
        self.breakers: BreakerRegistry | None = None
        # Hedging shares the estimator: its launch delay is a quantile
        # of the same observed durations the deadline is derived from.
        self.rtt: RttEstimator | None = None
        if self.enabled:
            self.breakers = BreakerRegistry(
                clock=lambda: sim.now, on_transition=self._on_breaker_transition
            )
            self.rtt = RttEstimator()

    # -- one remote call -------------------------------------------------

    def call(
        self,
        policy: RetryPolicy,
        jitter: JitterStreams,
        peer_id: PeerId,
        attempt: AttemptFactory,
        deadline_s: float | None = None,
    ) -> Future:
        """One remote call toward ``peer_id`` under ``policy``.

        Without retries this is the bare ``attempt(1)``. Otherwise one
        spawned :func:`retry` process backs off on the peer's
        ``jitter`` stream and counts each re-attempt. It schedules what
        ``yield from retry(...)`` would: a spawn runs its first step
        inline, and a settled attempt resumes it, then the caller.
        """
        if not policy.enabled:
            return attempt(1)
        return self.sim.spawn(
            retry(
                self.sim, jitter.for_peer(peer_id), policy, attempt,
                self._tally_retry, deadline_s,
            )
        ).future

    def judge(self, peer_id: PeerId, future: Future) -> None:
        """Feed ``future``'s outcome to ``peer_id``'s breaker once it
        settles; a no-op below the top rung."""
        if self.breakers is None:
            return

        def feed(settled: Future) -> None:
            if settled.failed:
                self.record_failure(peer_id)
            else:
                self.record_success(peer_id)

        future.add_callback(feed)

    def _tally_retry(self, _attempt: int, error: BaseException) -> None:
        stats = self.network.stats
        stats.retries_attempted += 1
        if isinstance(error, TimeoutError_):
            stats.rpcs_timed_out += 1

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
        if self.rtt is None:
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
        if self.rtt is None:
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

