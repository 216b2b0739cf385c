"""Tests for the per-peer circuit breaker registry."""

import pytest

from repro.errors import ReproError
from repro.multiformats.peerid import PeerId
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    BreakerRegistry,
)
from repro.resilience.breaker import MAX_COOLDOWN_S

PEER = PeerId.from_public_key(b"breaker-peer-a")
OTHER = PeerId.from_public_key(b"breaker-peer-b")


class Clock:
    """A settable sim clock stand-in."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make(clock, hook=None, **overrides) -> BreakerRegistry:
    defaults = dict(failure_threshold=3, cooldown_s=60.0)
    defaults.update(overrides)
    return BreakerRegistry(
        BreakerConfig(**defaults), clock=clock, on_transition=hook
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ReproError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ReproError):
            BreakerConfig(cooldown_s=0.0)
        with pytest.raises(ReproError):
            BreakerConfig(cooldown_s=MAX_COOLDOWN_S + 1.0)


class TestTransitions:
    def test_unknown_peer_is_closed_and_allowed(self):
        registry = make(Clock())
        assert registry.state(PEER) == CLOSED
        assert registry.allow(PEER)
        assert not registry.is_open(PEER)
        assert len(registry) == 0

    def test_opens_after_consecutive_failures(self):
        registry = make(Clock())
        registry.record_failure(PEER)
        registry.record_failure(PEER)
        assert registry.state(PEER) == CLOSED
        registry.record_failure(PEER)
        assert registry.state(PEER) == OPEN
        assert registry.is_open(PEER)
        assert not registry.allow(PEER)

    def test_success_resets_the_failure_streak(self):
        registry = make(Clock())
        registry.record_failure(PEER)
        registry.record_failure(PEER)
        registry.record_success(PEER)
        registry.record_failure(PEER)
        registry.record_failure(PEER)
        assert registry.state(PEER) == CLOSED

    def test_peers_are_independent(self):
        registry = make(Clock())
        for _ in range(3):
            registry.record_failure(PEER)
        assert registry.is_open(PEER)
        assert not registry.is_open(OTHER)
        assert registry.allow(OTHER)

    def test_refusals_count_skips(self):
        registry = make(Clock())
        for _ in range(3):
            registry.record_failure(PEER)
        assert not registry.allow(PEER)
        assert not registry.allow(PEER)
        assert registry.skips == 2

    def test_cooldown_elapses_into_half_open_via_allow(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 59.9
        assert not registry.allow(PEER)
        clock.now = 60.0
        assert registry.allow(PEER)  # the probe
        assert registry.state(PEER) == HALF_OPEN

    def test_is_open_is_read_only(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 120.0
        # Past the cooldown the peer is no longer treated as open, but
        # a read must not consume the probe or change state.
        assert not registry.is_open(PEER)
        assert registry.state(PEER) == OPEN
        assert registry.allow(PEER)
        assert registry.state(PEER) == HALF_OPEN

    def test_half_open_admits_only_the_configured_probes(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 60.0
        assert registry.allow(PEER)
        assert not registry.allow(PEER)  # probe budget spent

    def test_probe_success_closes_and_resets_cooldown(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 60.0
        assert registry.allow(PEER)
        registry.record_success(PEER)
        assert registry.state(PEER) == CLOSED
        # A later trip starts from the base cooldown again.
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now += 60.0
        assert registry.allow(PEER)

    def test_probe_failure_reopens_with_escalated_cooldown(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 60.0
        assert registry.allow(PEER)
        registry.record_failure(PEER)
        assert registry.state(PEER) == OPEN
        clock.now = 60.0 + 60.0
        assert not registry.allow(PEER)  # doubled cooldown not over yet
        clock.now = 60.0 + 120.0
        assert registry.allow(PEER)

    def test_cooldown_escalation_is_capped(self):
        clock = Clock()
        registry = make(clock, cooldown_s=400.0)
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 400.0
        assert registry.allow(PEER)
        registry.record_failure(PEER)  # cooldown would be 800, capped at 600
        clock.now = 400.0 + MAX_COOLDOWN_S - 1.0
        assert not registry.allow(PEER)
        clock.now = 400.0 + MAX_COOLDOWN_S
        assert registry.allow(PEER)

    def test_failures_while_open_are_ignored(self):
        clock = Clock()
        registry = make(clock)
        for _ in range(6):
            registry.record_failure(PEER)
        clock.now = 60.0
        # Extra failures while open must not extend or escalate.
        assert registry.allow(PEER)

    def test_open_peers_listing(self):
        registry = make(Clock())
        for _ in range(3):
            registry.record_failure(PEER)
        registry.record_failure(OTHER)
        assert registry.open_peers() == [PEER]


class TestTransitionHook:
    def test_hook_sees_each_transition_once(self):
        clock = Clock()
        seen = []
        registry = make(
            clock, hook=lambda peer, old, new: seen.append((old, new))
        )
        for _ in range(3):
            registry.record_failure(PEER)
        clock.now = 60.0
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

        clock = Clock()
        registry = make(clock, cooldown_s=90.0)
        (sybil,) = mine_sybil_ids(b"\x5a" * 32, 1, label="breaker-sybil")

        for _ in range(3):
            registry.record_failure(sybil)
        assert registry.state(sybil) == OPEN
        assert not registry.allow(sybil)

        # Probe 1 fails: cooldown escalates 90 -> 180.
        clock.now = 90.0
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = 90.0 + 90.0
        assert not registry.allow(sybil)  # the base cooldown is history
        clock.now = 90.0 + 180.0

        # Probe 2 fails: 180 -> 360.
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = 270.0 + 180.0
        assert not registry.allow(sybil)
        clock.now = 270.0 + 360.0

        # Probe 3 fails: 360 -> 720, capped at MAX_COOLDOWN_S = 600.
        assert registry.allow(sybil)
        registry.record_failure(sybil)
        clock.now = 630.0 + 360.0
        assert not registry.allow(sybil)
        clock.now = 630.0 + 600.0
        assert registry.allow(sybil)

        # The attack window closes; the probe succeeds. The breaker
        # closes and the *next* trip waits the base cooldown again.
        registry.record_success(sybil)
        assert registry.state(sybil) == CLOSED
        for _ in range(3):
            registry.record_failure(sybil)
        clock.now = 1230.0 + 90.0
        assert registry.allow(sybil)

    def test_escalation_is_per_peer(self):
        from repro.adversary.sybil import mine_sybil_ids

        clock = Clock()
        registry = make(clock, cooldown_s=90.0)
        ring = mine_sybil_ids(b"\xa5" * 32, 2, label="breaker-ring")

        # Escalate the first Sybil's cooldown to 180.
        for _ in range(3):
            registry.record_failure(ring[0])
        clock.now = 90.0
        assert registry.allow(ring[0])
        registry.record_failure(ring[0])

        # The second Sybil trips fresh: its cooldown is still the base.
        for _ in range(3):
            registry.record_failure(ring[1])
        clock.now = 90.0 + 90.0
        assert registry.allow(ring[1])   # base cooldown elapsed
        assert not registry.allow(ring[0])  # escalated: needs 180 more
