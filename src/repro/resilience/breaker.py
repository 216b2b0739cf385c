"""Per-peer circuit breakers over simulated time.

The crawls in Section 5 put 45.5 % of advertised DHT entries in the
"undialable" bucket, and Figure 8's churn means a peer that answered a
minute ago may be gone now. go-ipfs pays for that with full dial/RPC
timeouts on every contact; a circuit breaker remembers the outcome so
a peer that just burned a timeout is skipped — or probed with a single
trial request — instead of charged for again.

Classic three-state machine, driven entirely by the simulated clock:

- **closed** — traffic flows; consecutive failures are counted and
  reset on any success;
- **open** — entered after :data:`FAILURE_THRESHOLD` consecutive
  failures; every request is refused until :data:`COOLDOWN_S` of
  sim-time passes;
- **half-open** — after the cooldown, :data:`HALF_OPEN_PROBES` trial
  request may pass. A success closes the breaker; a failure re-opens
  it with the cooldown escalated by :data:`COOLDOWN_MULTIPLIER`, up
  to :data:`MAX_COOLDOWN_S`.

The registry holds one breaker per peer, created lazily on the first
recorded failure, so a healthy network costs one dictionary miss per
outcome. Nothing here draws randomness or reads wall clocks; breaker
decisions are a pure function of the outcome sequence and sim-time.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.multiformats.peerid import PeerId

#: Breaker states (plain strings: they travel into metrics and traces).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: consecutive failures that trip a closed breaker open. The chaos
#: sweep's retrievals are minutes apart, so two strikes and a 90 s
#: cooldown skip a dead peer for the rest of one retrieval and re-probe
#: it within the next.
FAILURE_THRESHOLD = 2
#: sim-seconds an open breaker refuses traffic before probing.
COOLDOWN_S = 90.0
#: trial requests allowed through a half-open breaker.
HALF_OPEN_PROBES = 1
#: cooldown escalation on a failed probe (repeat offenders wait
#: longer), and its cap.
COOLDOWN_MULTIPLIER = 2.0
MAX_COOLDOWN_S = 600.0


class _PeerBreaker:
    """Mutable per-peer state; only the registry touches it."""

    __slots__ = ("state", "failures", "opened_at", "cooldown_s", "probes")

    def __init__(self, cooldown_s: float) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.cooldown_s = cooldown_s
        self.probes = 0  # trial requests admitted while half-open


#: Callback fired on every state transition: (peer, old_state, new_state).
TransitionHook = Callable[[PeerId, str, str], None]


class BreakerRegistry:
    """One circuit breaker per peer, on a shared simulated clock."""

    def __init__(
        self,
        clock: Callable[[], float],
        on_transition: TransitionHook | None = None,
    ) -> None:
        self._clock = clock
        self._on_transition = on_transition
        self._breakers: dict[PeerId, _PeerBreaker] = {}
        #: requests refused because a breaker was open.
        self.skips = 0

    def __len__(self) -> int:
        return len(self._breakers)

    def _transition(self, peer_id: PeerId, breaker: _PeerBreaker, new: str) -> None:
        old, breaker.state = breaker.state, new
        if self._on_transition is not None and old != new:
            self._on_transition(peer_id, old, new)

    def state(self, peer_id: PeerId) -> str:
        """The peer's current breaker state (CLOSED when unknown)."""
        breaker = self._breakers.get(peer_id)
        return CLOSED if breaker is None else breaker.state

    def is_open(self, peer_id: PeerId) -> bool:
        """Read-only check: is traffic to the peer currently refused?

        Unlike :meth:`allow` this never transitions the breaker and
        never consumes a half-open probe, so filters (routing table,
        address book) can consult it without racing the callers that
        actually send the traffic. A breaker whose cooldown has elapsed
        reads as not-open (the next :meth:`allow` will probe it).
        """
        breaker = self._breakers.get(peer_id)
        if breaker is None or breaker.state != OPEN:
            return False
        return self._clock() - breaker.opened_at < breaker.cooldown_s

    def allow(self, peer_id: PeerId) -> bool:
        """Gate one request toward the peer; counts refusals.

        Open breakers whose cooldown has elapsed move to half-open
        here, and half-open breakers admit up to
        :data:`HALF_OPEN_PROBES` trial requests.
        """
        breaker = self._breakers.get(peer_id)
        if breaker is None or breaker.state == CLOSED:
            return True
        if breaker.state == OPEN:
            if self._clock() - breaker.opened_at < breaker.cooldown_s:
                self.skips += 1
                return False
            self._transition(peer_id, breaker, HALF_OPEN)
            breaker.probes = 0
        if breaker.probes < HALF_OPEN_PROBES:
            breaker.probes += 1
            return True
        self.skips += 1
        return False

    def record_success(self, peer_id: PeerId) -> None:
        """A request toward the peer succeeded."""
        breaker = self._breakers.get(peer_id)
        if breaker is None:
            return
        if breaker.state == CLOSED:
            breaker.failures = 0
            return
        # A half-open probe (or a straggler from before the trip)
        # succeeded: the peer is back.
        breaker.failures = 0
        breaker.cooldown_s = COOLDOWN_S
        self._transition(peer_id, breaker, CLOSED)

    def record_failure(self, peer_id: PeerId) -> None:
        """A request toward the peer failed (timeout, reset, garbage)."""
        breaker = self._breakers.get(peer_id)
        if breaker is None:
            breaker = _PeerBreaker(COOLDOWN_S)
            self._breakers[peer_id] = breaker
        if breaker.state == HALF_OPEN:
            # The probe failed: re-open with an escalated cooldown.
            breaker.cooldown_s = min(
                MAX_COOLDOWN_S, breaker.cooldown_s * COOLDOWN_MULTIPLIER
            )
            breaker.opened_at = self._clock()
            self._transition(peer_id, breaker, OPEN)
            return
        if breaker.state == OPEN:
            return  # concurrent requests from before the trip
        breaker.failures += 1
        if breaker.failures >= FAILURE_THRESHOLD:
            breaker.opened_at = self._clock()
            self._transition(peer_id, breaker, OPEN)

    def open_peers(self) -> list[PeerId]:
        """Peers currently refused (diagnostics)."""
        return [pid for pid in self._breakers if self.is_open(pid)]
