"""Region-level latency and bandwidth models.

The performance experiment (Section 4.3) runs from six AWS regions; the
peer population spans 152 countries. We model the world as nine macro
regions with a symmetric RTT matrix calibrated to published inter-region
AWS measurements, plus per-peer "last mile" quality classes:

- ``DATACENTER`` — cloud-hosted peers: negligible last-mile latency,
  high bandwidth, fast request processing.
- ``HOME`` — the self-hosted commodity deployments that Section 5.2
  finds dominate IPFS (>97 % of nodes outside major clouds): tens of ms
  of access latency, consumer uplink bandwidth.
- ``SLOW`` — overloaded or poorly-connected peers, responsible for the
  long tails and timeout spikes of Figure 9c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class Region(str, Enum):
    """Macro regions of the latency matrix."""

    NA_WEST = "na_west"
    NA_EAST = "na_east"
    SA = "sa"
    EU = "eu"
    AFRICA = "africa"
    MIDDLE_EAST = "middle_east"
    ASIA_EAST = "asia_east"
    ASIA_SE = "asia_se"
    OCEANIA = "oceania"


#: AWS region name (as used in the paper's Tables 1 and 4) -> macro region.
AWS_REGION_MAP: dict[str, Region] = {
    "us_west_1": Region.NA_WEST,
    "sa_east_1": Region.SA,
    "eu_central_1": Region.EU,
    "af_south_1": Region.AFRICA,
    "me_south_1": Region.MIDDLE_EAST,
    "ap_southeast_2": Region.OCEANIA,
}

# Symmetric round-trip times in milliseconds between macro regions,
# calibrated to published AWS inter-region latency measurements.
_RTT_MS: dict[frozenset[Region], float] = {}


def _set_rtt(a: Region, b: Region, ms: float) -> None:
    _RTT_MS[frozenset((a, b))] = ms


_INTRA_REGION_RTT_MS = {
    Region.NA_WEST: 30.0,
    Region.NA_EAST: 30.0,
    Region.SA: 40.0,
    Region.EU: 25.0,
    Region.AFRICA: 55.0,
    Region.MIDDLE_EAST: 45.0,
    Region.ASIA_EAST: 35.0,
    Region.ASIA_SE: 40.0,
    Region.OCEANIA: 35.0,
}

_PAIRS = [
    (Region.NA_WEST, Region.NA_EAST, 65),
    (Region.NA_WEST, Region.SA, 190),
    (Region.NA_WEST, Region.EU, 145),
    (Region.NA_WEST, Region.AFRICA, 290),
    (Region.NA_WEST, Region.MIDDLE_EAST, 240),
    (Region.NA_WEST, Region.ASIA_EAST, 110),
    (Region.NA_WEST, Region.ASIA_SE, 170),
    (Region.NA_WEST, Region.OCEANIA, 140),
    (Region.NA_EAST, Region.SA, 120),
    (Region.NA_EAST, Region.EU, 85),
    (Region.NA_EAST, Region.AFRICA, 230),
    (Region.NA_EAST, Region.MIDDLE_EAST, 180),
    (Region.NA_EAST, Region.ASIA_EAST, 170),
    (Region.NA_EAST, Region.ASIA_SE, 220),
    (Region.NA_EAST, Region.OCEANIA, 200),
    (Region.SA, Region.EU, 200),
    (Region.SA, Region.AFRICA, 340),
    (Region.SA, Region.MIDDLE_EAST, 280),
    (Region.SA, Region.ASIA_EAST, 300),
    (Region.SA, Region.ASIA_SE, 320),
    (Region.SA, Region.OCEANIA, 310),
    (Region.EU, Region.AFRICA, 165),
    (Region.EU, Region.MIDDLE_EAST, 110),
    (Region.EU, Region.ASIA_EAST, 210),
    (Region.EU, Region.ASIA_SE, 165),
    (Region.EU, Region.OCEANIA, 280),
    (Region.AFRICA, Region.MIDDLE_EAST, 190),
    (Region.AFRICA, Region.ASIA_EAST, 330),
    (Region.AFRICA, Region.ASIA_SE, 280),
    (Region.AFRICA, Region.OCEANIA, 380),
    (Region.MIDDLE_EAST, Region.ASIA_EAST, 220),
    (Region.MIDDLE_EAST, Region.ASIA_SE, 170),
    (Region.MIDDLE_EAST, Region.OCEANIA, 270),
    (Region.ASIA_EAST, Region.ASIA_SE, 70),
    (Region.ASIA_EAST, Region.OCEANIA, 130),
    (Region.ASIA_SE, Region.OCEANIA, 95),
]

for _a, _b, _ms in _PAIRS:
    _set_rtt(_a, _b, float(_ms))
for _region, _ms in _INTRA_REGION_RTT_MS.items():
    _set_rtt(_region, _region, _ms)


class PeerClass(str, Enum):
    """Last-mile/quality class of a peer."""

    DATACENTER = "datacenter"
    HOME = "home"
    SLOW = "slow"


@dataclass(frozen=True)
class ClassProfile:
    """Per-class network characteristics."""

    access_latency_ms: float  # added per one-way trip
    bandwidth_bytes_per_s: float  # sustained transfer rate
    processing_delay_s: tuple[float, float]  # uniform range per RPC served
    #: probability an inbound dial is accepted while the peer is
    #: reachable — overloaded or resource-limited peers drop handshakes,
    #: which is what the paper's 5 s / 45 s RPC-batch spikes trace back
    #: to (Section 6.1: "timeouts stem from less responsive peers").
    accept_probability: float = 1.0


_CLASS_PROFILES: dict[PeerClass, ClassProfile] = {
    PeerClass.DATACENTER: ClassProfile(1.0, 50e6, (0.0005, 0.003), 0.998),
    PeerClass.HOME: ClassProfile(15.0, 2.5e6, (0.005, 0.08), 0.98),
    PeerClass.SLOW: ClassProfile(60.0, 0.25e6, (0.15, 1.2), 0.91),
}


# Fast-path lookup tables, derived once at import time. The latency
# model is consulted several times per RPC, and building a frozenset
# per call (the symmetric-pair key) plus chaining profile dict lookups
# dominated `one_way` in profiles. Every derived value below reproduces
# the original arithmetic term-for-term, so sampled delays are
# bit-identical to the pre-optimization model.

#: (a, b) tuple (both orders) -> RTT in ms.
_RTT_PAIR_MS: dict[tuple[Region, Region], float] = {}
for _pair, _ms in _RTT_MS.items():
    _members = tuple(_pair)
    _a, _b = (_members[0], _members[-1])
    _RTT_PAIR_MS[(_a, _b)] = _ms
    _RTT_PAIR_MS[(_b, _a)] = _ms

#: (class_a, class_b) -> summed last-mile access latency in ms.
_ACCESS_SUM_MS: dict[tuple[PeerClass, PeerClass], float] = {
    (a, b): _CLASS_PROFILES[a].access_latency_ms + _CLASS_PROFILES[b].access_latency_ms
    for a in PeerClass
    for b in PeerClass
}

#: (sender, receiver) -> bottleneck bandwidth in bytes/s.
_RATE_MIN: dict[tuple[PeerClass, PeerClass], float] = {
    (a, b): min(
        _CLASS_PROFILES[a].bandwidth_bytes_per_s,
        _CLASS_PROFILES[b].bandwidth_bytes_per_s,
    )
    for a in PeerClass
    for b in PeerClass
}

#: peer class -> (low, high - low) of its uniform processing delay.
_PROCESSING_SPANS: dict[PeerClass, tuple[float, float]] = {
    cls: (low, high - low)
    for cls in PeerClass
    for low, high in (_CLASS_PROFILES[cls].processing_delay_s,)
}


class LatencyModel:
    """Samples one-way delays and transfer times between peers.

    All sampling takes an explicit RNG so experiments are reproducible.
    Jitter is multiplicative log-normal-ish (uniform in [0.85, 1.35]),
    which reproduces the spread without heavy math.
    """

    def __init__(self, jitter: tuple[float, float] = (0.85, 1.35)) -> None:
        low, high = jitter
        self._jitter_low = low
        self._jitter_span = high - low
        #: (region_a, class_a, region_b, class_b) -> rtt/2 + access sum
        #: in ms, filled lazily (729 combinations at most).
        self._base_ms: dict[tuple, float] = {}

    def base_rtt_s(self, a: Region, b: Region) -> float:
        """Deterministic region-pair RTT in seconds (no jitter)."""
        return _RTT_PAIR_MS[(a, b)] / 1000.0

    def one_way(
        self,
        region_a: Region,
        class_a: PeerClass,
        region_b: Region,
        class_b: PeerClass,
        rng: random.Random,
    ) -> float:
        """One-way packet latency in seconds, including last miles."""
        key = (region_a, class_a, region_b, class_b)
        base = self._base_ms.get(key)
        if base is None:
            base = (
                _RTT_PAIR_MS[(region_a, region_b)] / 2.0
                + _ACCESS_SUM_MS[(class_a, class_b)]
            )
            self._base_ms[key] = base
        # `rng.uniform(low, high)` as random.py computes it, without
        # its frame (same for the other two draws below)
        return base * (self._jitter_low + self._jitter_span * rng.random()) / 1000.0

    def processing_delay(self, peer_class: PeerClass, rng: random.Random) -> float:
        """Server-side handling delay for one RPC, in seconds."""
        low, span = _PROCESSING_SPANS[peer_class]
        return low + span * rng.random()

    def transfer_time(
        self, size_bytes: int, sender: PeerClass, receiver: PeerClass, rng: random.Random
    ) -> float:
        """Seconds to push ``size_bytes`` (bottleneck of both uplinks)."""
        rate = _RATE_MIN[(sender, receiver)]
        return size_bytes / rate * (self._jitter_low + self._jitter_span * rng.random())

    @staticmethod
    def class_profile(peer_class: PeerClass) -> ClassProfile:
        return _CLASS_PROFILES[peer_class]
