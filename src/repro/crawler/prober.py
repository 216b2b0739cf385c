"""The adaptive uptime prober (Section 4.1).

"We adapt the probe frequency based on how often we observe a peer to
be accessible. Specifically, we select an interval of 0.5x the observed
uptime, starting at a minimum of 30 seconds and ending at a maximum of
15 minutes."

Each probe records whether the peer was reachable at that instant, into
the peer's :class:`PeerTimeline`, which keeps the runs of equal outcomes
and not the probes: memory grows with the sessions a campaign sees, not
with its length. By default probes are *oracle* checks (one event each)
so that multi-day windows over thousands of peers stay cheap;
``probe_via_dial=True`` pays full dial semantics instead. Only the
crawler's unit test sets it: no experiment runs the dialing prober yet.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator, Iterator
from dataclasses import dataclass, field

from repro.multiformats.peerid import PeerId
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.relay import cold_dialable
from repro.simnet.sim import Simulator

MIN_INTERVAL_S = 30.0
MAX_INTERVAL_S = 15 * 60.0
ADAPT_FACTOR = 0.5


@dataclass
class ProbeConfig:
    probe_via_dial: bool = False


@dataclass
class PeerTimeline:
    """One peer's probe outcomes, as runs of equal outcomes.

    ``bounds`` holds the first and the last probe time of each run, flat
    (``first, last, first, last, ...``); ``first_online`` is the first
    run's outcome, and the runs alternate from it. That is all
    :mod:`repro.crawler.sessions` reads: a session is an online run.
    """

    peer_id: PeerId
    first_online: bool = False
    bounds: array = field(default_factory=lambda: array("d"))

    @property
    def online(self) -> bool:
        """The last probe's outcome (False before any probe)."""
        return bool(self.bounds) and self.first_online ^ (len(self.bounds) % 4 == 0)

    @property
    def current_uptime_s(self) -> float:
        """The ongoing observed session's length: from its first
        probe to the last one, 0 while offline."""
        return self.bounds[-1] - self.bounds[-2] if self.online else 0.0

    def record(self, when: float, online: bool) -> None:
        """Add a probe at ``when`` (no earlier than the last one)."""
        bounds = self.bounds
        if bounds and online == self.online:
            bounds[-1] = when
            return
        if not bounds:
            self.first_online = online
        bounds.append(when)
        bounds.append(when)

    def runs(self) -> Iterator[tuple[float, float, bool]]:
        """Each run's first and last probe time and outcome, in order."""
        bounds = self.bounds
        for run in range(len(bounds) // 2):
            yield bounds[2 * run], bounds[2 * run + 1], self.first_online ^ (run % 2 == 1)


class UptimeProber:
    """Probes a set of peers until stopped; collects timelines."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        prober_host: SimHost,
        config: ProbeConfig | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = prober_host
        self.config = config if config is not None else ProbeConfig()
        self.timelines: dict[PeerId, PeerTimeline] = {}
        self._stopped = False
        self.probes_sent = 0

    def watch(self, peers: list[PeerId]) -> None:
        """Start probing ``peers`` (idempotent per peer)."""
        for peer_id in peers:
            if peer_id in self.timelines:
                continue
            timeline = PeerTimeline(peer_id)
            self.timelines[peer_id] = timeline
            self.sim.spawn(self._probe_loop(timeline), name="probe")

    def stop(self) -> None:
        self._stopped = True

    def _interval_for(self, timeline: PeerTimeline) -> float:
        interval = ADAPT_FACTOR * timeline.current_uptime_s
        return min(max(interval, MIN_INTERVAL_S), MAX_INTERVAL_S)

    def _probe_once(self, peer_id: PeerId) -> Generator:
        self.probes_sent += 1
        if not self.config.probe_via_dial:
            # Oracle probe: what a full dial *would* observe — online
            # and either directly bound or behind a NAT that currently
            # admits strangers (the emergent dialability outcome).
            remote = self.network.host(peer_id)
            yield 0.0
            return remote is not None and cold_dialable(remote, self.sim.now)
        try:
            # Measurement dial: raw reachability, no traversal upgrades.
            yield self.network.dial(self.host, peer_id, traverse=False)
        except Exception:  # noqa: BLE001 - unreachable in any way
            return False
        self.network.disconnect(self.host, peer_id)
        return True

    def _probe_loop(self, timeline: PeerTimeline) -> Generator:
        while not self._stopped:
            online = yield from self._probe_once(timeline.peer_id)
            timeline.record(self.sim.now, online)
            yield self._interval_for(timeline)
