"""NAT behaviour and AutoNAT (Section 2.3).

The paper's headline connectivity finding — 45.5 % of DHT entries are
undialable, concentrated behind NATs — emerges here instead of being a
static world-builder tag. A :class:`NatBox` models one peer's NAT as a
mapping state machine in the classic STUN taxonomy:

- **full cone** — one WAN port for all destinations; anybody may dial
  in while a mapping is alive;
- **address-restricted cone** — same WAN port, but inbound is admitted
  only from peers the box has sent to (any of their ports);
- **port-restricted cone** — inbound only from the exact (peer, port)
  endpoints the box has sent to;
- **symmetric** — a fresh WAN port per destination; inbound only from
  the exact endpoint a mapping points at, and the port another peer
  *observes* is useless for reaching us.

Mappings expire after a TTL unless refreshed by outbound traffic (or
by the box's virtual keepalive, which models the long-lived bootstrap
connections every go-ipfs node maintains without scheduling events).
Port allocation is a deterministic counter — no RNG — so replays and
sharded experiment cells are byte-identical.

On top of the boxes sits AutoNAT, :func:`autonat_check`: helpers dial
the subject back *from a fresh observer endpoint* (the amplification
guard real AutoNAT uses), so only genuinely cold-dialable peers —
public hosts, and full-cone boxes with a live mapping — classify as
reachable. A peer whose check sees more than :data:`AUTONAT_THRESHOLD`
dial-backs land qualifies as a *DHT server* (Section 2.3). Built worlds
do not run the check at join time: the world builder sets each host's
``dht_server`` from its population tag, and the ``nat-sweep`` scores
AutoNAT's verdicts against :func:`repro.simnet.relay.cold_dialable`.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from enum import Enum

from repro.multiformats.peerid import PeerId
from repro.simnet.network import DEFAULT_LISTEN_PORT, SimHost, SimNetwork
from repro.simnet.sim import all_of, with_timeout

#: "If more than three peers can connect to the newly joining peer,
#: then the new peer upgrades its participation to act as a server."
AUTONAT_THRESHOLD = 3

#: How many dial-back probes to request.
AUTONAT_PROBES = 8

#: Give up on outstanding dial-back probes after this long. Generous
#: against every transport's dial timeout; it only fires when a probing
#: helper churns offline mid-dial and its probe future would otherwise
#: never settle.
AUTONAT_PROBE_TIMEOUT_S = 60.0

#: Default NAT mapping lifetime. Consumer gear commonly evicts idle
#: UDP/TCP mappings after a couple of minutes; libp2p's bootstrap
#: keepalives are what hold them open in practice.
DEFAULT_MAPPING_TTL_S = 120.0

#: Default interval of the virtual keepalive (the periodic outbound
#: traffic of long-lived bootstrap/relay connections). With
#: ``ttl >= interval`` the advertised mapping never lapses; sweeping
#: the TTL *below* it opens dead windows between refreshes.
DEFAULT_KEEPALIVE_INTERVAL_S = 60.0

#: First external port a box allocates (deterministic counter from here).
EPHEMERAL_PORT_BASE = 1024


class NatMode(str, Enum):
    """The STUN taxonomy, plus PUBLIC for un-NAT'ed peers."""

    PUBLIC = "public"
    FULL_CONE = "full_cone"
    ADDRESS_RESTRICTED = "address_restricted"
    PORT_RESTRICTED = "port_restricted"
    SYMMETRIC = "symmetric"


#: Modes whose boxes reuse one WAN port for every destination.
_CONE_MODES = frozenset(
    {NatMode.FULL_CONE, NatMode.ADDRESS_RESTRICTED, NatMode.PORT_RESTRICTED}
)


@dataclass
class NatMapping:
    """One live translation entry: we sent to (dst_peer, dst_port)."""

    external_port: int
    dst_peer: PeerId
    dst_port: int
    created_at: float
    refreshed_at: float


class NatBox:
    """The mapping state machine of one NAT'ed endpoint.

    All state transitions are driven by explicit timestamps (the
    simulation clock) and a deterministic port counter; the box never
    draws randomness, so installing boxes cannot perturb any seeded
    RNG stream.
    """

    def __init__(
        self,
        mode: NatMode,
        *,
        mapping_ttl_s: float = DEFAULT_MAPPING_TTL_S,
        keepalive_interval_s: float | None = None,
        port_base: int = EPHEMERAL_PORT_BASE,
    ) -> None:
        if mode is NatMode.PUBLIC:
            raise ValueError("a PUBLIC peer has no NatBox")
        if mapping_ttl_s <= 0:
            raise ValueError(f"mapping TTL must be positive, got {mapping_ttl_s}")
        self.mode = mode
        self.mapping_ttl_s = mapping_ttl_s
        self.keepalive_interval_s = keepalive_interval_s
        self._port_base = port_base
        self._next_port = port_base
        #: (dst_peer, dst_port) -> mapping
        self._mappings: dict[tuple[PeerId, int], NatMapping] = {}
        #: cone modes translate every flow through one WAN port
        self._wan_port: int | None = None

    # -- port allocation ---------------------------------------------------

    def _allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _effective_refresh(self, mapping: NatMapping, now: float) -> float:
        """Last refresh, counting virtual keepalive ticks since creation."""
        refreshed = mapping.refreshed_at
        interval = self.keepalive_interval_s
        if interval is not None and interval > 0 and now >= mapping.created_at:
            ticks = int((now - mapping.created_at) // interval)
            refreshed = max(refreshed, mapping.created_at + ticks * interval)
        return refreshed

    def _is_live(self, mapping: NatMapping, now: float) -> bool:
        return now - self._effective_refresh(mapping, now) <= self.mapping_ttl_s

    # -- state transitions -------------------------------------------------

    def map_outbound(self, dst_peer: PeerId, dst_port: int, now: float) -> int:
        """Record outbound traffic toward an endpoint; returns the
        external source port the traffic leaves through.

        Reuses (and refreshes) a live mapping for the same destination.
        Cone modes keep translating through one WAN port; a symmetric
        box allocates a fresh port per destination endpoint.
        """
        key = (dst_peer, dst_port)
        mapping = self._mappings.get(key)
        if mapping is not None and self._is_live(mapping, now):
            mapping.refreshed_at = now
            return mapping.external_port
        if self.mode in _CONE_MODES:
            if self._wan_port is None or not self.has_live_mapping(now):
                # The idle box's WAN binding lapsed; the next outbound
                # flow re-binds on a fresh port (stale advertised
                # addresses are exactly how full-cone peers go dark).
                self._wan_port = self._allocate_port()
            port = self._wan_port
        else:
            port = self._allocate_port()
        self._mappings[key] = NatMapping(
            external_port=port, dst_peer=dst_peer, dst_port=dst_port,
            created_at=now, refreshed_at=now,
        )
        return port

    # -- queries -----------------------------------------------------------

    def has_live_mapping(self, now: float) -> bool:
        return any(self._is_live(m, now) for m in self._mappings.values())

    def external_port_toward(
        self, dst_peer: PeerId, dst_port: int, now: float
    ) -> int | None:
        """The external port a given destination currently observes."""
        mapping = self._mappings.get((dst_peer, dst_port))
        if mapping is None or not self._is_live(mapping, now):
            return None
        return mapping.external_port

    def admits_stranger(self, now: float) -> bool:
        """Whether a never-seen endpoint's dial would land (cold dial).

        Only a full-cone box with a live WAN binding is open to the
        world; every other mode filters unknown sources.
        """
        return self.mode is NatMode.FULL_CONE and self.has_live_mapping(now)

    def allows_inbound(self, src_peer: PeerId, src_port: int, now: float) -> bool:
        """Whether a dial from ``(src_peer, src_port)`` gets through."""
        if self.mode is NatMode.FULL_CONE:
            return self.has_live_mapping(now)
        if self.mode is NatMode.ADDRESS_RESTRICTED:
            return any(
                mapping.dst_peer == src_peer and self._is_live(mapping, now)
                for mapping in self._mappings.values()
            )
        # Port-restricted and symmetric: the exact endpoint must match
        # a live mapping (symmetric mappings are per-endpoint anyway).
        mapping = self._mappings.get((src_peer, src_port))
        return mapping is not None and self._is_live(mapping, now)


def seed_keepalive_mapping(
    host: SimHost, bootstrap_peer: PeerId, now: float = 0.0
) -> None:
    """Model the bootstrap connection every node opens on startup: one
    mapping toward a bootstrap peer, held open by the box's virtual
    keepalive. This is what makes a freshly-built full-cone peer
    cold-dialable without scheduling keepalive events."""
    if host.nat is not None:
        host.nat.map_outbound(bootstrap_peer, DEFAULT_LISTEN_PORT, now)


# ---------------------------------------------------------------------------
# AutoNAT
# ---------------------------------------------------------------------------


def autonat_check(
    network: SimNetwork, host: SimHost, candidate_peers: list[PeerId]
) -> Generator:
    """Run AutoNAT dial-back probes; returns True if publicly reachable.

    A process (``yield from``-able): asks up to :data:`AUTONAT_PROBES`
    of the candidate peers — the subject itself never counts — to dial
    back, and compares the successes against the threshold. Dial-backs
    arrive from fresh observer endpoints (the AutoNAT v2 amplification
    guard), so a restricted cone cannot pass just because a helper
    happens to hold one of its mappings.

    A helper that churns offline mid-dial leaves its probe future
    unsettled forever; the timeout abandons such probes and scores
    whatever did settle.
    """
    probes = []
    for peer_id in candidate_peers[:AUTONAT_PROBES]:
        remote = network.host(peer_id)
        if remote is None or not remote.online or peer_id == host.peer_id:
            continue
        probes.append(network.dial(remote, host.peer_id, from_observer=True))
    if not probes:
        return False
    try:
        yield with_timeout(network.sim, all_of(probes), AUTONAT_PROBE_TIMEOUT_S)
    except Exception:  # noqa: BLE001 - abandoned probes count as failures
        pass
    successes = 0
    for probe in probes:
        if not probe.done or probe.failed:
            continue
        successes += 1
        # Dial-backs opened reverse connections purely for probing.
        connection = probe.result()
        network.disconnect(network.hosts[connection.local], host.peer_id)
    return successes > AUTONAT_THRESHOLD
