"""A fleet of gateway bridges behind one load-balancer tier.

The paper's ipfs.io is a *set* of gateways behind DNS round-robin
(Section 3.4); each node's nginx cache is only as good as the slice of
the CID space it keeps seeing. This module models the load-balancer
tier the paper does not study, in two rungs:

- **stock** (``config=None``) — round-robin rotation across members
  like the paper's DNS round-robin, so every member sees (and
  refetches) every hot CID, and a request rotated onto a dead gateway
  surfaces :class:`~repro.errors.GatewayDownError` (the client eats the
  outage);
- **hardened** (a :class:`FleetConfig`) — consistent-hash routing over
  a ring with virtual nodes, so each gateway owns a stable slice of
  the content space (cache-friendly, one upstream fetch per object
  fleet-wide), plus failover: routing walks the ring past gateways
  that are marked offline or unhealthy (dead *or* shedding), so a
  failed node's hash range redistributes to its ring successors.

Both rungs keep the health checks: a rolling error window per gateway,
fed passively by every routed request and, when the config asks for
it, by an active probe process on the simulated clock.

Hashing uses SHA-256 over the CID's binary form — Python's built-in
``hash`` is salted per process and would break cross-run determinism.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.dht.bootstrap import populate_routing_tables
from repro.errors import GatewayDownError, ReproError
from repro.gateway.bridge import BridgedResponse, GatewayBridge
from repro.multiformats.cid import Cid
from repro.node.host import IpfsNode
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng

#: ring points per gateway (more = smoother range distribution).
VIRTUAL_NODES = 64
#: request outcomes kept per gateway for the error window.
HEALTH_WINDOW = 16
#: outcomes needed before the error window is trusted.
MIN_OBSERVATIONS = 8
#: error fraction over the window that marks a gateway unhealthy.
UNHEALTHY_ERROR_RATE = 0.5


def build_fleet_world(
    seed: int,
    prefix: str,
    label: str,
    publisher_region: Region,
    publisher_class: PeerClass,
    n_gateways: int,
    n_backdrop: int,
) -> tuple[Simulator, IpfsNode, list[IpfsNode], list[IpfsNode]]:
    """A fresh object world for a fleet to front: ``(sim, publisher,
    gateway nodes, backdrop)``, every routing table filled.

    The gateway nodes are DATACENTER peers in NA_WEST; the backdrop's
    regions are drawn from the world stream, which then fills the
    tables. Streams are ``derive_rng(seed, f"{prefix}-<part>", label)``
    for the ``net``, ``world`` and ``pub`` parts, and per node index
    for the ``gw`` and ``bg`` parts.
    """
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, f"{prefix}-net", label))
    world_rng = derive_rng(seed, f"{prefix}-world", label)
    publisher = IpfsNode(
        sim, net, derive_rng(seed, f"{prefix}-pub", label),
        region=publisher_region, peer_class=publisher_class,
    )
    gateways = [
        IpfsNode(
            sim, net, derive_rng(seed, f"{prefix}-gw", label, str(index)),
            region=Region.NA_WEST, peer_class=PeerClass.DATACENTER,
        )
        for index in range(n_gateways)
    ]
    backdrop = [
        IpfsNode(
            sim, net, derive_rng(seed, f"{prefix}-bg", label, str(index)),
            region=world_rng.choice(list(Region)),
        )
        for index in range(n_backdrop)
    ]
    populate_routing_tables(
        [n.dht for n in [publisher, *gateways, *backdrop]], world_rng
    )
    return sim, publisher, gateways, backdrop


def _ring_point(data: bytes) -> int:
    """A position on the 64-bit hash ring (stable across processes)."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass(frozen=True)
class FleetConfig:
    """The hardened fleet: consistent-hash routing with failover (see
    the module docstring). A fleet without one is the stock DNS
    round-robin of Section 3.4."""

    #: active liveness probe period (None = passive detection only).
    probe_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.probe_interval_s is not None and self.probe_interval_s <= 0:
            raise ReproError(
                f"probe_interval_s must be positive, got {self.probe_interval_s}"
            )


@dataclass
class FleetStats:
    """What the routing tier did."""

    requests: int = 0
    #: requests served by a gateway other than the ring primary.
    failovers: int = 0
    #: requests that hit an offline gateway and surfaced an error.
    down_errors: int = 0
    #: transitions into the marked-offline set.
    marked_offline: int = 0
    #: transitions back out of it (probe saw the gateway recover).
    recovered: int = 0
    #: active probe rounds run.
    probe_rounds: int = 0
    #: served requests per gateway index.
    served_by_gateway: list[int] = field(default_factory=list)


class GatewayFleet:
    """N bridges behind round-robin (stock) or a consistent-hash ring
    with failover (hardened), with health checks."""

    def __init__(
        self,
        sim: Simulator,
        bridges: list[GatewayBridge],
        config: FleetConfig | None = None,
    ) -> None:
        if not bridges:
            raise ReproError("a fleet needs at least one gateway")
        self.sim = sim
        self.bridges = bridges
        self.config = config
        self.stats = FleetStats(served_by_gateway=[0] * len(bridges))
        ring: list[tuple[int, int]] = []
        for index in range(len(bridges)):
            for replica in range(VIRTUAL_NODES):
                ring.append((_ring_point(b"vnode:%d:%d" % (index, replica)), index))
        ring.sort()
        self._ring = ring
        self._ring_points = [point for point, _ in ring]
        #: next member the round-robin rotation will hand out.
        self._round_robin = 0
        #: gateways the fleet currently believes are down (fed by
        #: observed connection failures and active probes).
        self._marked_offline: set[int] = set()
        #: rolling error window per gateway (1 = failed or shed).
        self._errors: list[deque[int]] = [
            deque(maxlen=HEALTH_WINDOW) for _ in bridges
        ]

    # -- health ------------------------------------------------------------

    def record_outcome(self, index: int, ok: bool) -> None:
        """Feed one request outcome into gateway ``index``'s window."""
        self._errors[index].append(0 if ok else 1)

    def error_rate(self, index: int) -> float | None:
        """Error fraction over the window, or None while under-observed."""
        window = self._errors[index]
        if len(window) < MIN_OBSERVATIONS:
            return None
        return sum(window) / len(window)

    def is_healthy(self, index: int) -> bool:
        if index in self._marked_offline:
            return False
        rate = self.error_rate(index)
        return rate is None or rate < UNHEALTHY_ERROR_RATE

    def _mark_offline(self, index: int) -> None:
        if index not in self._marked_offline:
            self._marked_offline.add(index)
            self.stats.marked_offline += 1

    def _mark_recovered(self, index: int) -> None:
        if index in self._marked_offline:
            self._marked_offline.discard(index)
            self._errors[index].clear()
            self.stats.recovered += 1

    def probe_once(self) -> None:
        """One active liveness round: reconcile the marked-offline set
        with each gateway host's actual reachability."""
        self.stats.probe_rounds += 1
        for index, bridge in enumerate(self.bridges):
            if bridge.node.host.online:
                self._mark_recovered(index)
            else:
                self._mark_offline(index)

    def run_probes(self, until_s: float) -> Generator:
        """Active health-check process: probe every
        ``probe_interval_s`` until the simulated horizon (spawn me)."""
        interval = None if self.config is None else self.config.probe_interval_s
        if interval is None:
            raise ReproError("run_probes needs probe_interval_s configured")
        while self.sim.now + interval <= until_s:
            yield interval
            self.probe_once()

    # -- routing -----------------------------------------------------------

    def primary_for(self, cid: Cid) -> int:
        """The ring-primary gateway for ``cid`` (health ignored)."""
        position = bisect_right(self._ring_points, _ring_point(cid.encode_binary()))
        if position == len(self._ring):
            position = 0
        return self._ring[position][1]

    def _rotate(self) -> int:
        """Hand out the next round-robin member (the DNS answer)."""
        index = self._round_robin
        self._round_robin = (index + 1) % len(self.bridges)
        return index

    def route(self, cid: Cid) -> int:
        """The hardened choice for ``cid``: the first healthy gateway
        clockwise from its ring point. Falls back to the ring primary
        when nothing is healthy."""
        position = bisect_right(self._ring_points, _ring_point(cid.encode_binary()))
        if position == len(self._ring):
            position = 0
        primary = self._ring[position][1]
        seen: set[int] = set()
        for step in range(len(self._ring)):
            index = self._ring[(position + step) % len(self._ring)][1]
            if index in seen:
                continue
            seen.add(index)
            if self.is_healthy(index):
                return index
            if len(seen) == len(self.bridges):
                break
        return primary

    # -- serving -----------------------------------------------------------

    def get(
        self,
        cid: Cid,
        user: str = "browser",
        country: str = "??",
        size_hint: int | None = None,
    ) -> Generator:
        """Serve one GET through the fleet (a process; spawn or embed).

        Rotates (stock) or routes by consistent hash (hardened),
        detects dead gateways on contact (marking them so later hardened
        requests route around), and feeds every outcome back into the
        health windows.
        """
        self.stats.requests += 1
        hardened = self.config is not None
        if hardened:
            primary = self.primary_for(cid)
            index = self.route(cid)
        else:
            primary = index = self._rotate()
        bridge = self.bridges[index]
        if not bridge.node.host.online:
            # Connection refused. Mark it; the hardened fleet re-routes
            # this very request to the next healthy gateway.
            self._mark_offline(index)
            self.record_outcome(index, ok=False)
            if hardened:
                index = self.route(cid)
                bridge = self.bridges[index]
            if not bridge.node.host.online:
                self.stats.down_errors += 1
                raise GatewayDownError(f"gateway {index} is offline for {cid}")
        if index != primary:
            self.stats.failovers += 1
        try:
            response: BridgedResponse = yield from bridge.get(
                cid, user=user, country=country, size_hint=size_hint
            )
        except GatewayDownError:
            self._mark_offline(index)
            self.record_outcome(index, ok=False)
            self.stats.down_errors += 1
            raise
        except Exception:
            self.record_outcome(index, ok=False)
            raise
        # A shed response is the gateway telling us it is overloaded:
        # count it against health so its range starts failing over.
        self.record_outcome(index, ok=not response.shed)
        if not response.shed:
            self.stats.served_by_gateway[index] += 1
        return response

    # -- reporting ---------------------------------------------------------

    def overload_totals(self) -> dict[str, int]:
        """Summed overload counters across the member bridges."""
        totals = {
            "coalesced_joins": 0, "single_flights": 0, "shed": 0,
            "brownout_stale_served": 0, "brownout_paths_dropped": 0,
            "hint_fetches": 0, "hint_fallbacks": 0,
            "duplicate_launches": 0,
        }
        for bridge in self.bridges:
            stats = bridge.overload_stats
            totals["coalesced_joins"] += stats.coalesced_joins
            totals["single_flights"] += stats.single_flights
            totals["shed"] += stats.shed
            totals["brownout_stale_served"] += stats.brownout_stale_served
            totals["brownout_paths_dropped"] += stats.brownout_paths_dropped
            totals["hint_fetches"] += stats.hint_fetches
            totals["hint_fallbacks"] += stats.hint_fallbacks
            totals["duplicate_launches"] += bridge.duplicate_launches
        return totals
