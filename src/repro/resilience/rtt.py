"""Online RTT estimation for adaptive RPC deadlines.

The walk's fixed 10 s per-query timeout is calibrated for the worst
case; Table 1 puts most inter-region RTTs at tens to low hundreds of
milliseconds, so a dead peer costs ~50-100x the typical healthy
response before the walk gives up on it. An online estimator lets the
deadline track what responses *actually* take: per-region EWMA for the
central tendency plus a bounded percentile window for the spread
(reusing :func:`repro.utils.stats.percentile`), combined as

    deadline = clamp(multiplier * max(ewma, p<q>), min, max)

Regions that have not produced :data:`WARMUP` samples yet fall back to
the aggregate estimate over all regions, and a completely cold
estimator falls back to the caller's fixed default — so enabling adaptive
deadlines can never make the *first* queries behave differently from
the fixed-timeout stack.

Samples are full RPC durations on the simulated clock (dial + two
one-way latencies + remote processing), which is exactly the quantity
the deadline bounds. Bitswap block transfers are *not* fed in: their
duration is dominated by payload bandwidth, which would inflate the
control-plane estimate.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.errors import ReproError
from repro.utils.stats import percentile

#: spread percentile feeding the deadline.
DEADLINE_PERCENTILE = 95.0
#: spread percentile for the hedge delay (when the original has been
#: out longer than this, a second copy launches), and its floor.
HEDGE_PERCENTILE = 90.0
MIN_HEDGE_DELAY_S = 0.25
#: EWMA smoothing factor (RFC 6298 uses 1/8; walks see fewer,
#: burstier samples, so smooth a little less).
EWMA_ALPHA = 0.2
#: samples kept per region for the percentile term.
WINDOW = 64
#: samples a key needs before its estimate is trusted.
WARMUP = 5
#: safety factor over the estimate.
DEADLINE_MULTIPLIER = 3.0
#: deadline clamp. The ceiling stays at the fixed 10 s default so
#: adaptation only ever *tightens* the walk's timeout.
MIN_DEADLINE_S = 1.0
MAX_DEADLINE_S = 10.0


class _KeyState:
    """EWMA + sliding window for one estimation key."""

    __slots__ = ("ewma", "window")

    def __init__(self) -> None:
        self.ewma: float | None = None
        self.window: deque[float] = deque(maxlen=WINDOW)


class RttEstimator:
    """Tracks observed RPC durations and derives deadlines from them.

    Keyed by region (any hashable works); ``None`` keys the aggregate
    over all regions, which doubles as the fallback for cold regions.
    """

    def __init__(self) -> None:
        self._by_key: dict[Hashable, _KeyState] = {}
        self.samples_observed = 0

    def observe(self, key: Hashable, duration_s: float) -> None:
        """Record one successful RPC's duration for ``key``'s region."""
        if duration_s < 0:
            raise ReproError(f"negative duration: {duration_s}")
        self.samples_observed += 1
        targets = [self._state(key)] if key is None else [
            self._state(key), self._state(None)
        ]
        for state in targets:
            state.ewma = (
                duration_s if state.ewma is None
                else EWMA_ALPHA * duration_s + (1.0 - EWMA_ALPHA) * state.ewma
            )
            state.window.append(duration_s)

    def _state(self, key: Hashable) -> _KeyState:
        state = self._by_key.get(key)
        if state is None:
            state = _KeyState()
            self._by_key[key] = state
        return state

    def _warm_state(self, key: Hashable) -> _KeyState | None:
        """The key's state if warm, else the aggregate if warm, else None."""
        for candidate in (key, None):
            state = self._by_key.get(candidate)
            if state is not None and len(state.window) >= WARMUP:
                return state
        return None

    def estimate_s(self, key: Hashable, q: float) -> float | None:
        """max(EWMA, q-th percentile) for the key, or None while cold."""
        state = self._warm_state(key)
        if state is None:
            return None
        spread = percentile(list(state.window), q)
        assert state.ewma is not None
        return max(state.ewma, spread)

    def deadline_s(self, key: Hashable, default: float | None) -> float | None:
        """The adaptive RPC deadline for ``key``'s region.

        Returns ``default`` while cold (pass the fixed timeout the
        deadline replaces; ``None`` lets callers detect coldness).
        """
        estimate = self.estimate_s(key, DEADLINE_PERCENTILE)
        if estimate is None:
            return default
        return min(MAX_DEADLINE_S, max(MIN_DEADLINE_S, estimate * DEADLINE_MULTIPLIER))

    def hedge_delay_s(self, key: Hashable, default: float) -> float:
        """How long to give the original before launching a hedge.

        The q-th percentile of observed durations: only the slowest
        (1-q) of requests ever trigger a second copy, the textbook
        tail-tolerant hedging policy (Dean & Barroso, "The Tail at
        Scale"). Falls back to ``default`` while cold.
        """
        estimate = self.estimate_s(key, HEDGE_PERCENTILE)
        if estimate is None:
            return default
        return max(MIN_HEDGE_DELAY_S, estimate)
