"""Circuit relaying and DCUtR hole punching.

Two mechanisms the paper mentions but could not yet rely on:

- **p2p-circuit relaying** (Section 2.2): a publicly reachable peer
  forwards traffic to a NAT'ed peer that holds a *reservation* with
  it. Multiaddresses compose as
  ``/ip4/../p2p/<relay>/p2p-circuit/p2p/<target>``.
- **Direct Connection Upgrade through Relay** (DCUtR, Section 3.1:
  "a NAT hole-punching solution is currently being developed ... still
  under-test"): once two peers share a relayed connection, they attempt
  a simultaneous open to punch through their NATs and upgrade to a
  direct connection.

Relayed traffic pays both hops' latency and shares the relay's
bandwidth. DCUtR is a *real* simultaneous open: each side maps an
outbound flow toward the other's observed endpoint and the punch lands
iff both sides admit the resulting source ports. Boxed endpoints ask
their :class:`~repro.simnet.nat.NatBox`, which reproduces the classic
compatibility matrix (cone x cone works, symmetric x port-restricted
does not) emergently, with no random draw; a host without a box admits
the punch unless it is statically ``nat_private``, the rule
:attr:`SimHost.reachable` applies to a dial.

:class:`NatTraversal`, installed via
:meth:`SimNetwork.install_traversal`, chains the pieces into the dial
path real nodes use: direct when the target is cold-dialable, else a
relay circuit, then a DCUtR upgrade when both sides speak it.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

from repro.errors import DialError, PartitionError
from repro.multiformats.peerid import PeerId
from repro.simnet.network import (
    DEFAULT_LISTEN_PORT,
    Connection,
    SimHost,
    SimNetwork,
)
from repro.simnet.sim import Future
from repro.simnet.transport import Transport

@dataclass
class RelayService:
    """Relay capability for one public host.

    NAT'ed peers call :meth:`reserve`; the registry of reservations is
    what lets :class:`CircuitDialer` route around NATs.
    """

    host: SimHost
    capacity: int = 128
    reservations: dict[PeerId, float] = field(default_factory=dict)

    def reserve(self, peer: SimHost, now: float) -> bool:
        """Grant (or refresh) a reservation; False when full/offline."""
        if not self.host.reachable:
            return False
        if peer.peer_id not in self.reservations and (
            len(self.reservations) >= self.capacity
        ):
            return False
        self.reservations[peer.peer_id] = now
        return True

    def has_reservation(self, peer_id: PeerId) -> bool:
        return peer_id in self.reservations


class CircuitDialer:
    """Relay-aware dialing and DCUtR upgrades over a SimNetwork."""

    def __init__(self, network: SimNetwork) -> None:
        self.network = network
        self._relays: dict[PeerId, RelayService] = {}
        #: NAT'ed peer -> relays it holds reservations with
        self._reservations: dict[PeerId, list[PeerId]] = {}
        self.punches_attempted = 0
        self.punches_succeeded = 0

    # -- relay management -------------------------------------------------

    def enable_relay(self, host: SimHost, capacity: int = 128) -> RelayService:
        """Make a public host act as a circuit relay."""
        if host.nat_private:
            raise DialError("a NAT'ed host cannot act as a relay")
        service = RelayService(host, capacity)
        self._relays[host.peer_id] = service
        return service

    def _severed(self, src: SimHost, dst: SimHost) -> bool:
        """Whether an active partition cuts the ``src -> dst`` path."""
        faults = self.network.faults
        if faults is None:
            return False
        if not faults.severed(src, dst.region, self.network.sim.now):
            return False
        self.network.stats.faults_injected += 1
        return True

    def reserve(self, peer: SimHost, relay_id: PeerId) -> bool:
        """Register ``peer`` (typically NAT'ed) with a relay."""
        service = self._relays.get(relay_id)
        if service is None:
            raise DialError(f"{relay_id} is not a relay")
        if self._severed(peer, service.host):
            # The reservation request dies at the partition boundary.
            return False
        if not service.reserve(peer, self.network.sim.now):
            return False
        self._reservations.setdefault(peer.peer_id, [])
        if relay_id not in self._reservations[peer.peer_id]:
            self._reservations[peer.peer_id].append(relay_id)
        return True

    def relays_for(self, peer_id: PeerId) -> list[PeerId]:
        return list(self._reservations.get(peer_id, []))

    def relay_ids(self) -> list[PeerId]:
        """Every peer currently acting as a relay (registration order)."""
        return list(self._relays)

    # -- circuit dialing -----------------------------------------------------

    def dial(self, src: SimHost, target_id: PeerId) -> Generator:
        """Dial directly when possible, else through a relay.

        A process returning the established :class:`Connection` (which
        has ``relay`` set when circuit-switched).
        """
        target = self.network.host(target_id)
        if target is not None and cold_dialable(target, self.network.sim.now):
            connection = yield self.network.dial(src, target_id, traverse=False)
            return connection
        last_error: Exception | None = None
        for relay_id in self.relays_for(target_id):
            relay = self.network.host(relay_id)
            if relay is None or not relay.reachable:
                continue
            try:
                connection = yield from self._dial_through(src, relay, target_id)
            except Exception as exc:  # noqa: BLE001 - try next relay
                last_error = exc
                continue
            return connection
        raise DialError(
            f"{target_id} is unreachable and has no usable relay ({last_error})"
        )

    def _dial_through(
        self, src: SimHost, relay: SimHost, target_id: PeerId
    ) -> Generator:
        target = self.network.host(target_id)
        if target is None or not target.online:
            raise DialError(f"{target_id} is offline")
        service = self._relays[relay.peer_id]
        if not service.has_reservation(target_id):
            raise DialError(f"{target_id} holds no reservation at {relay.peer_id}")
        # Establish src -> relay, then the relay bridges to the target
        # over the target's long-lived reservation connection. Cost:
        # one real handshake plus a stop-protocol round trip.
        yield self.network.dial(src, relay.peer_id, traverse=False)
        if self._severed(relay, target):
            # The relay's leg to the target crosses an active cut: the
            # stop-protocol request never arrives.
            raise PartitionError(
                f"partition severs circuit {relay.peer_id} -> {target_id}"
            )
        bridge_rtt = 2 * (
            self.network.latency.one_way(
                src.region, src.peer_class, relay.region, relay.peer_class,
                self.network.rng,
            )
            + self.network.latency.one_way(
                relay.region, relay.peer_class, target.region, target.peer_class,
                self.network.rng,
            )
        )
        done: Future = Future()

        def establish() -> None:
            if not target.online or not src.online:
                done.fail(DialError(f"{target_id} went away during circuit setup"))
                return
            if self._severed(src, relay) or self._severed(relay, target):
                # A partition activated while the circuit was being set
                # up: the in-flight bridge dies at the fault boundary.
                done.fail(
                    PartitionError(
                        f"partition severs circuit setup to {target_id}"
                    )
                )
                return
            connection = Connection(
                src.peer_id, target_id, Transport.TCP, bridge_rtt,
                self.network.sim.now, relay=relay.peer_id,
            )
            back = Connection(
                target_id, src.peer_id, Transport.TCP, bridge_rtt,
                self.network.sim.now, relay=relay.peer_id,
            )
            src.connections[target_id] = connection
            target.connections[src.peer_id] = back
            for observer in src.on_connection:
                observer(connection)
            for observer in target.on_connection:
                observer(back)
            done.resolve(connection)

        self.network.sim.schedule(bridge_rtt, establish)
        connection = yield done
        return connection

    # -- DCUtR --------------------------------------------------------------

    def hole_punch(self, src: SimHost, target_id: PeerId) -> Generator:
        """Attempt a direct-connection upgrade over a relayed connection.

        Returns True when the connection was upgraded (both sides now
        talk directly); the relayed connection remains in place on
        failure.
        """
        connection = src.connections.get(target_id)
        if connection is None or connection.closed or connection.relay is None:
            raise DialError("hole punching requires a live relayed connection")
        target = self.network.host(target_id)
        if target is None:
            raise DialError(f"unknown peer {target_id}")
        relay = self.network.host(connection.relay)
        self.punches_attempted += 1
        # DCUtR: exchange observed addresses and timing over the relay
        # (one relayed round trip), then simultaneous-open.
        yield connection.rtt_s
        if relay is not None and (
            self._severed(src, relay) or self._severed(relay, target)
        ):
            # The coordination messages ride the relayed connection; an
            # active partition on either hop kills them in flight.
            self.network.disconnect(src, target_id)
            raise PartitionError(
                f"partition severs hole-punch coordination to {target_id}"
            )
        direct_rtt = 2 * self.network.latency.one_way(
            src.region, src.peer_class, target.region, target.peer_class,
            self.network.rng,
        )
        yield direct_rtt  # the punch attempt itself
        if self._severed(src, target):
            # The simultaneous open crosses the cut directly; both
            # sides' packets die there and the relay circuit stays up.
            return False
        if not self._simultaneous_open(src, target, connection.relay):
            return False
        self.punches_succeeded += 1
        src.connections[target_id] = Connection(
            src.peer_id, target_id, Transport.TCP, direct_rtt, self.network.sim.now
        )
        target.connections[src.peer_id] = Connection(
            target_id, src.peer_id, Transport.TCP, direct_rtt, self.network.sim.now
        )
        return True

    def _observed_port(self, host: SimHost, relay_id: PeerId | None) -> int:
        """The external endpoint ``host``'s DCUtR peer learns about it:
        its listen port when directly bound, else the port its NAT box
        shows the relay (refreshed by the coordination traffic)."""
        if host.nat is None:
            return host.listen_port
        relay = self.network.host(relay_id) if relay_id is not None else None
        relay_port = relay.listen_port if relay is not None else DEFAULT_LISTEN_PORT
        relay_peer = relay.peer_id if relay is not None else host.peer_id
        now = self.network.sim.now
        port = host.nat.external_port_toward(relay_peer, relay_port, now)
        if port is None:
            port = host.nat.map_outbound(relay_peer, relay_port, now)
        return port

    def _simultaneous_open(
        self, src: SimHost, target: SimHost, relay_id: PeerId | None
    ) -> bool:
        """The deterministic DCUtR outcome.

        Each side fires an outbound flow at the *observed* endpoint of
        the other (binding its own NAT mapping in the process); the
        punch lands iff both sides then admit the other side's actual
        source port. Cone NATs reuse their WAN port, so observed ==
        actual and the mappings line up; a symmetric NAT allocates a
        fresh port per destination, so its peer aimed at a stale
        endpoint — only an address-restricted (or looser) peer still
        admits the flow. A boxless side admits anything unless it is
        statically ``nat_private``.
        """
        now = self.network.sim.now
        src_observed = self._observed_port(src, relay_id)
        dst_observed = self._observed_port(target, relay_id)
        src_actual = (
            src.nat.map_outbound(target.peer_id, dst_observed, now)
            if src.nat is not None
            else src.listen_port
        )
        dst_actual = (
            target.nat.map_outbound(src.peer_id, src_observed, now)
            if target.nat is not None
            else target.listen_port
        )
        into_target = (
            not target.nat_private
            if target.nat is None
            else target.nat.allows_inbound(src.peer_id, src_actual, now)
        )
        into_src = (
            not src.nat_private
            if src.nat is None
            else src.nat.allows_inbound(target.peer_id, dst_actual, now)
        )
        return into_target and into_src


def cold_dialable(host: SimHost, now: float) -> bool:
    """Whether a peer that has never seen us can dial ``host`` directly
    — the property the crawler measures and AutoNAT classifies."""
    if not host.reachable:
        return False
    return host.nat is None or host.nat.admits_stranger(now)


class NatTraversal:
    """The dial chain real nodes run: direct -> relay -> hole-punch.

    Installed on a network via :meth:`SimNetwork.install_traversal`;
    protocol dials (``traverse=True``) then route through
    :meth:`dial`, which tries a direct connection for cold-dialable
    targets, falls back to a relay circuit over the target's
    reservations, and — when both endpoints speak DCUtR — attempts the
    hole-punch upgrade so follow-on traffic stops paying the relay tax.
    """

    def __init__(self, network: SimNetwork, dialer: CircuitDialer) -> None:
        self.network = network
        self.dialer = dialer
        self.relay_dials = 0
        self.upgrades_succeeded = 0

    def dial(self, src: SimHost, target_id: PeerId) -> Future:
        """Entry point used by :meth:`SimNetwork.dial`; returns a
        Future resolving to the best :class:`Connection` achieved."""
        return self.network.sim.spawn(
            self._dial(src, target_id), name="nat-traversal"
        ).future

    def _dial(self, src: SimHost, target_id: PeerId) -> Generator:
        connection = yield from self.dialer.dial(src, target_id)
        if connection.relay is None:
            return connection
        self.relay_dials += 1
        target = self.network.host(target_id)
        if src.dcutr and target is not None and target.dcutr:
            try:
                upgraded = yield from self.dialer.hole_punch(src, target_id)
            except (DialError, PartitionError):
                upgraded = False
            if upgraded:
                self.upgrades_succeeded += 1
                connection = src.connections[target_id]
        return connection
