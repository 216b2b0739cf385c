"""Retry with exponential backoff over simulated time.

Every protocol layer that talks to remote peers (DHT walks, record
stores, peer-routing dials, Bitswap sessions) faces the same failure
modes: dial timeouts against the 45.5 % of undialable peers, RPCs that
never return because the target churned offline, and — under the chaos
experiments — injected loss, resets and blackholes. A :class:`RetryPolicy` gives them one principled answer
instead of ad-hoc "retry once" code.

Delays follow capped exponential backoff with optional jitter.
``decorrelated`` jitter is the AWS Architecture Blog variant
(``sleep = min(cap, uniform(base, 3 * previous_sleep))``), which avoids
the synchronized retry storms plain exponential backoff produces when
many peers fail at once. All randomness comes from an explicit
:class:`random.Random` so experiments stay deterministic, and a policy
with ``max_attempts=1`` never sleeps and never draws from the RNG —
the no-op default that keeps seeded results byte-identical.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.errors import ReproError
from repro.simnet.sim import Future, Simulator, TimeoutError_, with_timeout
from repro.utils.rng import derive_rng

#: growth factor of the exponential backoff between retries.
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and budgets for one class of operation.

    ``max_attempts`` counts the first try: 1 means "no retries" (the
    default, preserving pre-retry behaviour exactly).
    """

    max_attempts: int = 1
    base_delay_s: float = 0.5
    max_delay_s: float = 30.0
    #: "none" (deterministic exponential) or "decorrelated"
    #: (AWS-style, needs ``previous``).
    jitter: str = "none"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ReproError(
                f"need 0 <= base ({self.base_delay_s}) <= cap ({self.max_delay_s})"
            )
        if self.jitter not in ("none", "decorrelated"):
            raise ReproError(f"unknown jitter mode: {self.jitter!r}")

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def next_delay(
        self, attempt: int, previous: float, rng: random.Random
    ) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        ``previous`` is the delay used before the previous retry (pass
        ``base_delay_s`` initially); it only matters for decorrelated
        jitter. The result is always within [0, max_delay_s], and with
        jitter within [base_delay_s, max_delay_s] (base <= cap is
        guaranteed by construction).
        """
        if self.jitter == "decorrelated":
            return min(
                self.max_delay_s,
                rng.uniform(self.base_delay_s, max(self.base_delay_s, previous * 3)),
            )
        return min(
            self.max_delay_s, self.base_delay_s * BACKOFF_MULTIPLIER ** (attempt - 1)
        )


class JitterStreams:
    """Deterministic per-peer RNG streams for retry jitter.

    When one incident fails many in-flight operations at once — a churn
    storm knocks a wave of peers offline, a partition heals — every
    caller that jitters its backoff from a *shared* RNG stream draws in
    the same order and can re-fire in lockstep: the synchronized retry
    storm jittered backoff exists to prevent. Deriving one stream per
    (owner, remote peer) pair decorrelates the schedules — two nodes
    backing off from the same peer, or one node backing off from two
    peers, draw from unrelated streams — while keeping every delay a
    pure function of the owner identity, so seeded runs stay
    reproducible for any interleaving of retries.

    Streams are created lazily on first use (``owner`` is not even
    stringified before then); an operation that never retries (or whose
    policy is unjittered) never draws, so runs without retries remain
    byte-identical to the pre-jitter tree.
    """

    def __init__(self, owner: object, *labels: str) -> None:
        self._owner = owner
        self._labels = labels if labels else ("retry-jitter",)
        self._streams: dict[str, random.Random] = {}

    def for_peer(self, peer_id: object) -> random.Random:
        """The owner's jitter stream toward ``peer_id`` (cached)."""
        key = str(peer_id)
        stream = self._streams.get(key)
        if stream is None:
            stream = derive_rng(str(self._owner), *self._labels, key)
            self._streams[key] = stream
        return stream


#: Factory invoked once per attempt; returns the attempt's future.
AttemptFactory = Callable[[int], Future]


def retry(
    sim: Simulator,
    rng: random.Random,
    policy: RetryPolicy,
    attempt_factory: AttemptFactory,
    on_retry: Callable[[int, BaseException], None] | None = None,
    deadline_s: float | None = None,
) -> Generator:
    """Drive ``attempt_factory`` under ``policy`` as a sim process.

    Yields the future of each attempt (so callers embed this with
    ``yield from``); returns the first successful result. Failed
    attempts back off per the policy; ``on_retry(attempt, error)`` is
    called before each re-attempt (used for stats counters). Raises the
    last error once attempts or the deadline are exhausted.

    ``deadline_s`` is the caller's remaining budget (e.g. an adaptive
    walk deadline): a retry whose backoff sleep would cross it is not
    attempted, and every attempt is truncated to what is left via
    ``with_timeout``, so the last attempt cannot overshoot it. Without
    one, attempts run unwrapped exactly as before.
    """
    deadline = None if deadline_s is None else sim.now + deadline_s
    previous = policy.base_delay_s
    last_error: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if deadline is not None and deadline - sim.now <= 0:
                break  # no budget left: do not even send the attempt
            future = attempt_factory(attempt)
            if deadline is not None:
                future = with_timeout(sim, future, deadline - sim.now)
            result = yield future
            return result
        except Exception as exc:  # noqa: BLE001 - retry any library error
            last_error = exc
        if attempt >= policy.max_attempts:
            break
        delay = policy.next_delay(attempt, previous, rng)
        previous = delay
        if deadline is not None and sim.now + delay > deadline:
            break
        if on_retry is not None:
            on_retry(attempt, last_error)
        if delay > 0:
            yield delay
    if last_error is None:
        raise TimeoutError_("retry budget exhausted before first attempt")
    raise last_error
