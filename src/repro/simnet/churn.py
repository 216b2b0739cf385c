"""Peer session (uptime) models.

Section 5.3 measures churn from 467 k session observations: 87.6 % of
sessions are under 8 hours, only 2.5 % exceed 24 hours, and median
uptime varies by region (24.2 min in Hong Kong vs. more than double in
Germany). We model session lengths as log-normal (the standard fit for
P2P session-length measurements, cf. Stutzbach & Rejaie) with a
region-configurable median, and offline gaps as log-normal as well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.simnet.network import SimHost
from repro.simnet.sim import Simulator


@dataclass(frozen=True)
class ChurnModel:
    """Log-normal session/gap model.

    ``median_session_s`` is the median online time;
    ``sigma`` controls the tail (larger -> heavier; ~1.3-1.6 matches
    the paper's 8 h / 24 h tail fractions for ~30-50 min medians).
    """

    median_session_s: float = 40 * 60.0
    session_sigma: float = 1.45
    median_gap_s: float = 600.0
    gap_sigma: float = 1.0

    def sample_session_length(self, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median_session_s), self.session_sigma)

    def sample_gap_length(self, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median_gap_s), self.gap_sigma)


#: A host that should never churn (e.g. controlled experiment nodes).
ALWAYS_ON = ChurnModel(median_session_s=float("inf"))

#: Share of a built world's churning peers that start online.
WORLD_INITIAL_ONLINE_PROBABILITY = 0.8


class SessionProcess:
    """Drives a host's online flag through alternating sessions/gaps.

    Starts the host mid-behaviour: with probability
    ``initial_online_probability`` the host begins online; its first
    transition is scheduled from a fresh sample.
    """

    def __init__(
        self,
        sim: Simulator,
        host: SimHost,
        model: ChurnModel,
        rng: random.Random,
        initial_online_probability: float = 0.7,
    ) -> None:
        self._sim = sim
        self._host = host
        self._model = model
        self._rng = rng
        self.sessions_started = 0
        if math.isinf(model.median_session_s):
            host.set_online(True)
            return
        online = rng.random() < initial_online_probability
        host.set_online(online)
        if online:
            self.sessions_started += 1
            self._schedule_offline()
        else:
            self._schedule_online()

    def _schedule_offline(self) -> None:
        delay = self._model.sample_session_length(self._rng)

        def go_offline() -> None:
            self._host.set_online(False)
            self._schedule_online()

        self._sim.schedule(delay, go_offline)

    def _schedule_online(self) -> None:
        delay = self._model.sample_gap_length(self._rng)

        def go_online() -> None:
            self._host.set_online(True)
            self.sessions_started += 1
            self._schedule_offline()

        self._sim.schedule(delay, go_online)
