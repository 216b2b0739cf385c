"""Tests for the per-peer circuit breaker registry."""

from repro.multiformats.peerid import PeerId
from repro.resilience import CLOSED, HALF_OPEN, OPEN, BreakerRegistry
from repro.resilience.breaker import (
    COOLDOWN_MULTIPLIER,
    COOLDOWN_S,
    FAILURE_THRESHOLD,
    MAX_COOLDOWN_S,
)

PEER = PeerId.from_public_key(b"breaker-peer-a")
OTHER = PeerId.from_public_key(b"breaker-peer-b")


class Clock:
    """A settable sim clock stand-in."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make(clock, hook=None) -> BreakerRegistry:
    return BreakerRegistry(clock=clock, on_transition=hook)


def trip(registry: BreakerRegistry, peer_id: PeerId) -> None:
    """The threshold of consecutive failures: opens a closed breaker."""
    for _ in range(FAILURE_THRESHOLD):
        registry.record_failure(peer_id)


class TestConfig:
    def test_validation(self):
        # What the removed per-node breaker config used to validate.
        assert FAILURE_THRESHOLD >= 1
        assert 0 < COOLDOWN_S <= MAX_COOLDOWN_S


class TestTransitions:
    def test_unknown_peer_is_closed_and_allowed(self):
        registry = make(Clock())
        assert registry.state(PEER) == CLOSED
        assert registry.allow(PEER)
        assert not registry.is_open(PEER)
        assert len(registry) == 0

    def test_opens_after_consecutive_failures(self):
        registry = make(Clock())
        for _ in range(FAILURE_THRESHOLD - 1):
            registry.record_failure(PEER)
        assert registry.state(PEER) == CLOSED
        registry.record_failure(PEER)
        assert registry.state(PEER) == OPEN
        assert registry.is_open(PEER)
        assert not registry.allow(PEER)

    def test_success_resets_the_failure_streak(self):
        registry = make(Clock())
        for _ in range(FAILURE_THRESHOLD - 1):
            registry.record_failure(PEER)
        registry.record_success(PEER)
        for _ in range(FAILURE_THRESHOLD - 1):
            registry.record_failure(PEER)
        assert registry.state(PEER) == CLOSED

    def test_peers_are_independent(self):
        registry = make(Clock())
        trip(registry, PEER)
        assert registry.is_open(PEER)
        assert not registry.is_open(OTHER)
        assert registry.allow(OTHER)

    def test_refusals_count_skips(self):
        registry = make(Clock())
        trip(registry, PEER)
        assert not registry.allow(PEER)
        assert not registry.allow(PEER)
        assert registry.skips == 2

    def test_cooldown_elapses_into_half_open_via_allow(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        clock.now = COOLDOWN_S - 0.1
        assert not registry.allow(PEER)
        clock.now = COOLDOWN_S
        assert registry.allow(PEER)  # the probe
        assert registry.state(PEER) == HALF_OPEN

    def test_is_open_is_read_only(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        clock.now = 2 * COOLDOWN_S
        # Past the cooldown the peer is no longer treated as open, but
        # a read must not consume the probe or change state.
        assert not registry.is_open(PEER)
        assert registry.state(PEER) == OPEN
        assert registry.allow(PEER)
        assert registry.state(PEER) == HALF_OPEN

    def test_half_open_admits_only_the_configured_probes(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        clock.now = COOLDOWN_S
        assert registry.allow(PEER)
        assert not registry.allow(PEER)  # probe budget spent

    def test_probe_success_closes_and_resets_cooldown(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        clock.now = COOLDOWN_S
        assert registry.allow(PEER)
        registry.record_success(PEER)
        assert registry.state(PEER) == CLOSED
        # A later trip starts from the base cooldown again.
        trip(registry, PEER)
        clock.now += COOLDOWN_S
        assert registry.allow(PEER)

    def test_probe_failure_reopens_with_escalated_cooldown(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        clock.now = COOLDOWN_S
        assert registry.allow(PEER)
        registry.record_failure(PEER)
        assert registry.state(PEER) == OPEN
        clock.now = COOLDOWN_S + COOLDOWN_S
        assert not registry.allow(PEER)  # escalated cooldown not over yet
        clock.now = COOLDOWN_S + COOLDOWN_MULTIPLIER * COOLDOWN_S
        assert registry.allow(PEER)

    def test_cooldown_escalation_is_capped(self):
        clock = Clock()
        registry = make(clock)
        trip(registry, PEER)
        # Fail probes until the escalation reaches the cap, then once
        # more: the cooldown stays at the cap instead of doubling.
        cooldown = COOLDOWN_S
        while True:
            clock.now += cooldown
            assert registry.allow(PEER)
            registry.record_failure(PEER)
            if cooldown == MAX_COOLDOWN_S:
                break
            cooldown = min(MAX_COOLDOWN_S, cooldown * COOLDOWN_MULTIPLIER)
        opened = clock.now
        clock.now = opened + MAX_COOLDOWN_S - 1.0
        assert not registry.allow(PEER)
        clock.now = opened + MAX_COOLDOWN_S
        assert registry.allow(PEER)

    def test_failures_while_open_are_ignored(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3 * FAILURE_THRESHOLD):
            registry.record_failure(PEER)
        clock.now = COOLDOWN_S
        # Extra failures while open must not extend or escalate.
        assert registry.allow(PEER)

    def test_open_peers_listing(self):
        registry = make(Clock())
        trip(registry, PEER)
        for _ in range(FAILURE_THRESHOLD - 1):
            registry.record_failure(OTHER)
        assert registry.open_peers() == [PEER]


class TestTransitionHook:
    def test_hook_sees_each_transition_once(self):
        clock = Clock()
        seen = []
        registry = make(
            clock, hook=lambda peer, old, new: seen.append((old, new))
        )
        trip(registry, PEER)
        clock.now = COOLDOWN_S
        registry.allow(PEER)
        registry.record_success(PEER)
        assert seen == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)
        ]


class TestSustainedAttack:
    """Cooldown escalation against an eclipsing peer that keeps failing.

    The adversarial shape (repro.adversary's Sybil ring): a peer that
    answers routing but fails every useful request, for longer than any
    single cooldown. Each failed half-open probe must escalate the
    cooldown — the defender backs off the attacker geometrically rather
    than re-probing on a fixed clock — and one success after the attack
    window closes must fully reset it.
    """

    def test_repeated_trips_escalate_then_recover(self):
        from repro.adversary.sybil import mine_sybil_ids

        base = COOLDOWN_S
        clock = Clock()
        registry = make(clock)
        (sybil,) = mine_sybil_ids(b"\x5a" * 32, 1, label="breaker-sybil")

        trip(registry, sybil)
        assert registry.state(sybil) == OPEN
        assert not registry.allow(sybil)

        # Probe 1 fails: the cooldown escalates base -> 2 base.
        clock.now = base
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = base + base
        assert not registry.allow(sybil)  # the base cooldown is history
        clock.now = base + 2 * base

        # Probe 2 fails: 2 base -> 4 base.
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = 3 * base + 2 * base
        assert not registry.allow(sybil)
        clock.now = 3 * base + 4 * base

        # Probe 3 fails: 4 base -> 8 base, capped at MAX_COOLDOWN_S.
        capped = min(MAX_COOLDOWN_S, 8 * base)
        assert capped < 8 * base
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = 7 * base + 4 * base
        assert not registry.allow(sybil)
        clock.now = 7 * base + capped
        assert registry.allow(sybil)

        # The attack window closes; the probe succeeds. The breaker
        # closes and the *next* trip waits the base cooldown again.
        registry.record_success(sybil)
        assert registry.state(sybil) == CLOSED
        trip(registry, sybil)
        clock.now = 7 * base + capped + base
        assert registry.allow(sybil)

    def test_escalation_is_per_peer(self):
        from repro.adversary.sybil import mine_sybil_ids

        clock = Clock()
        registry = make(clock)
        ring = mine_sybil_ids(b"\xa5" * 32, 2, label="breaker-ring")

        # Escalate the first Sybil's cooldown to twice the base.
        trip(registry, ring[0])
        clock.now = COOLDOWN_S
        assert registry.allow(ring[0])
        registry.record_failure(ring[0])

        # The second Sybil trips fresh: its cooldown is still the base.
        trip(registry, ring[1])
        clock.now = COOLDOWN_S + COOLDOWN_S
        assert registry.allow(ring[1])   # base cooldown elapsed
        assert not registry.allow(ring[0])  # escalated: needs twice the base
