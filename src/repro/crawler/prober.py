"""The adaptive uptime prober (Section 4.1).

"We adapt the probe frequency based on how often we observe a peer to
be accessible. Specifically, we select an interval of 0.5x the observed
uptime, starting at a minimum of 30 seconds and ending at a maximum of
15 minutes."

Each probe records whether the peer was reachable at that instant. By
default probes are *oracle* checks (one event each) so that multi-day
windows over thousands of peers stay cheap; ``probe_via_dial=True``
pays full dial semantics instead (used by the fidelity tests).
"""

from __future__ import annotations

from collections.abc import Generator
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
    """Probe observations for one peer: (time, was_online) pairs."""

    peer_id: PeerId
    observations: list[tuple[float, bool]] = field(default_factory=list)
    current_uptime_s: float = 0.0  # length of the ongoing observed session


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
        last_online_start: float | None = None
        while not self._stopped:
            online = yield from self._probe_once(timeline.peer_id)
            now = self.sim.now
            timeline.observations.append((now, online))
            if online:
                if last_online_start is None:
                    last_online_start = now
                timeline.current_uptime_s = now - last_online_start
            else:
                last_online_start = None
                timeline.current_uptime_s = 0.0
            yield self._interval_for(timeline)
