"""Hosts, connections, and RPC delivery.

A :class:`SimHost` is one network endpoint: it has a PeerID, a region,
a quality class, a set of supported transports, NAT status, and an
online flag driven by the churn process. A :class:`SimNetwork` routes
dials and RPCs between hosts, applying the latency, handshake, timeout
and bandwidth models.

Failure semantics (what makes the simulation faithful):

- dialing an offline or NAT'ed peer blocks for the transport's dial
  timeout and then fails (the 5 s / 45 s spikes of Figure 9c);
- an RPC to a peer that goes offline in flight never completes —
  callers must protect themselves with ``with_timeout`` exactly as the
  real implementation does;
- block transfers pay size/bandwidth in addition to propagation delay.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    DialError,
    FaultInjectionError,
    PartitionError,
    SimulationError,
    TransportTimeoutError,
)
from repro.multiformats.peerid import PeerId
from repro.obs import NULL_TRACER, Observability
from repro.simnet.faults import FaultInjector, FaultKind
from repro.simnet.latency import LatencyModel, PeerClass, Region
from repro.simnet.sim import Future, Simulator
from repro.simnet.transport import (
    Transport,
    dial_timeout,
    handshake_time,
    pick_transport,
)

if TYPE_CHECKING:
    from repro.simnet.nat import NatBox

#: (sender PeerId, payload) -> (response payload, response size bytes)
RpcHandler = Callable[[PeerId, Any], tuple[Any, int]]

_DEFAULT_TRANSPORTS = frozenset({Transport.TCP, Transport.QUIC})

#: The port every host listens on (go-ipfs' default swarm port). NAT
#: boxes translate outbound flows onto their own external ports.
DEFAULT_LISTEN_PORT = 4001


@dataclass
class Connection:
    """An established transport connection between two peers.

    ``relay`` is set for circuit-switched connections (see
    :mod:`repro.simnet.relay`): traffic then pays both hops.
    """

    local: PeerId
    remote: PeerId
    transport: Transport
    rtt_s: float
    opened_at: float
    closed: bool = False
    relay: PeerId | None = None


@dataclass
class NetworkStats:
    """Counters a network accumulates (used by experiment reports).

    Invariants (asserted by ``tests/simnet/test_stats_invariants.py``,
    holding whenever dialers stay online):

    - ``dials_attempted == dials_succeeded + dials_failed``
    - ``rpcs_completed + rpcs_timed_out <= rpcs_sent``
    - ``bytes_transferred > 0`` iff ``rpcs_completed > 0``
    """

    dials_attempted: int = 0
    dials_succeeded: int = 0
    dials_failed: int = 0
    #: RPC attempts issued, counted at :meth:`SimNetwork.rpc` — a
    #: request whose dial fails still counts as sent.
    rpcs_sent: int = 0
    #: RPCs whose reply reached a caller that was still waiting; a
    #: reply arriving after the caller's timeout is *not* a completion.
    rpcs_completed: int = 0
    bytes_transferred: int = 0
    #: RPCs whose caller-side timeout expired (counted by the protocol
    #: layers that own the timeout, e.g. the DHT walk).
    rpcs_timed_out: int = 0
    #: re-attempts made under a :class:`~repro.utils.retry.RetryPolicy`
    retries_attempted: int = 0
    #: faults the installed :class:`~repro.simnet.faults.FaultInjector`
    #: applied to this network's dials and RPCs
    faults_injected: int = 0


class SimHost:
    """One simulated endpoint.

    Protocol layers (DHT, Bitswap) attach RPC handlers with
    :meth:`register_handler` and use the network's ``dial``/``rpc``.
    """

    def __init__(
        self,
        peer_id: PeerId,
        region: Region = Region.EU,
        peer_class: PeerClass = PeerClass.DATACENTER,
        transports: frozenset[Transport] = _DEFAULT_TRANSPORTS,
        nat_private: bool = False,
        online: bool = True,
    ) -> None:
        self.peer_id = peer_id
        self.region = region
        self.peer_class = peer_class
        self.transports = transports
        self.nat_private = nat_private
        self.online = online
        #: optional NAT state machine (:mod:`repro.simnet.nat`); ``None``
        #: means the host is bound directly to a public address.
        self.nat: NatBox | None = None
        self.listen_port = DEFAULT_LISTEN_PORT
        #: whether this host speaks DCUtR (hole-punch upgrades)
        self.dcutr = False
        #: identify facts, set by whoever builds the host: is this a DHT
        #: server (only those enter routing tables), and its agent string
        self.dht_server = False
        self.agent_version = "unknown"
        #: optional hook (compact worlds: one shared by all their hosts)
        #: called with this host and the method name on a
        #: :meth:`handler_for` miss; it may attach the protocol's stack
        #: (which registers its handlers), or return a handler for this
        #: one call that nothing keeps
        self.attach_protocol: Callable[[SimHost, str], RpcHandler | None] | None = None
        self.network: SimNetwork | None = None
        self.connections: dict[PeerId, Connection] = {}
        #: access-link serialization: times until which this host's
        #: uplink / downlink are busy with earlier transfers. Parallel
        #: block fetches share the link instead of each enjoying the
        #: full bandwidth.
        self.tx_free_at = 0.0
        self.rx_free_at = 0.0
        self._handlers: dict[str, RpcHandler] = {}
        #: observers notified when a connection opens (AutoNAT, metrics)
        self.on_connection: list[Callable[[Connection], None]] = []
        #: observers notified when this host goes offline/online
        self.on_status_change: list[Callable[[bool], None]] = []

    # -- protocol plumbing ------------------------------------------------

    def register_handler(self, method: str, handler: RpcHandler) -> None:
        if method in self._handlers:
            raise SimulationError(f"duplicate handler for {method!r}")
        self._handlers[method] = handler

    def unregister_handler(self, method: str) -> None:
        """Drop ``method``'s handler, so the stack that attaches next can
        register its own (a compact world hands a peer's FIND_NODE from
        its table-only answer to the DHT node that adopts the table)."""
        del self._handlers[method]

    def handler_for(self, method: str) -> RpcHandler:
        handler = self._handlers.get(method)
        if handler is None and self.attach_protocol is not None:
            handler = self.attach_protocol(self, method) or self._handlers.get(method)
        if handler is None:
            raise SimulationError(f"{self.peer_id} has no handler for {method!r}")
        return handler

    @property
    def reachable(self) -> bool:
        """Whether inbound dials can reach this host right now."""
        return self.online and not self.nat_private

    def connected_peers(self) -> list[PeerId]:
        """Peers with a live connection (Bitswap's opportunistic set)."""
        return [pid for pid, conn in self.connections.items() if not conn.closed]

    def is_connected(self, peer_id: PeerId) -> bool:
        conn = self.connections.get(peer_id)
        return conn is not None and not conn.closed

    # -- lifecycle ---------------------------------------------------------

    def set_online(self, online: bool) -> None:
        """Go online/offline; going offline drops all connections."""
        if online == self.online:
            return
        self.online = online
        if not online and self.network is not None:
            for remote in list(self.connections):
                self.network.disconnect(self, remote)
        for observer in self.on_status_change:
            observer(online)


class SimNetwork:
    """Routes dials and RPCs between registered hosts."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        latency: LatencyModel | None = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.latency = latency if latency is not None else LatencyModel()
        self.hosts: dict[PeerId, SimHost] = {}
        self.stats = NetworkStats()
        #: optional chaos layer; ``None`` means no fault evaluation at
        #: all (the default — seeded runs stay byte-identical).
        self.faults: FaultInjector | None = None
        #: tracing/metrics; the null tracer records nothing, and every
        #: protocol layer above reads its tracer from here.
        self.obs: Observability | None = None
        self.tracer = NULL_TRACER
        #: optional NAT traversal chain (direct -> relay -> hole-punch,
        #: see :class:`repro.simnet.relay.NatTraversal`); ``None`` means
        #: every dial is a plain direct dial (the default).
        self.traversal: Any | None = None
        #: optional lazy-materialization hook (compact worlds, see
        #: :mod:`repro.simnet.compact`): called with a PeerId on a
        #: ``hosts`` miss, it may build + register the host on demand
        #: and return it (or ``None`` for a genuinely unknown peer).
        #: ``None`` (the default) keeps lookups exactly as before.
        self.host_resolver: Callable[[PeerId], SimHost | None] | None = None

    def install_faults(self, injector: FaultInjector | None) -> None:
        """Attach (or remove, with ``None``) a fault injector."""
        self.faults = injector

    def install_traversal(self, traversal: Any | None) -> None:
        """Attach (or remove, with ``None``) a NAT traversal chain.

        With a traversal installed, protocol dials (``traverse=True``,
        the default) attempt direct -> relay -> hole-punch; measurement
        dials opt out with ``traverse=False`` to observe raw
        reachability exactly as the crawler does.
        """
        self.traversal = traversal

    def install_observability(self, obs: Observability | None) -> None:
        """Attach (or remove, with ``None``) tracing and metrics.

        Binds the tracer's clock to this network's simulator. Tracing
        only *reads* simulation state, so installing it never changes
        experiment results — only whether they are recorded.
        """
        self.obs = obs
        if obs is None:
            self.tracer = NULL_TRACER
        else:
            obs.tracer.bind_clock(lambda: self.sim.now)
            self.tracer = obs.tracer

    # -- membership ---------------------------------------------------------

    def register(self, host: SimHost) -> None:
        if host.peer_id in self.hosts:
            raise SimulationError(f"duplicate host registration: {host.peer_id}")
        host.network = self
        self.hosts[host.peer_id] = host

    def host(self, peer_id: PeerId) -> SimHost | None:
        host = self.hosts.get(peer_id)
        if host is None and self.host_resolver is not None:
            host = self.host_resolver(peer_id)
        return host

    # -- dialing -------------------------------------------------------------

    def dial(
        self,
        src: SimHost,
        target_id: PeerId,
        from_observer: bool = False,
        traverse: bool = True,
    ) -> Future:
        """Establish a connection; resolves to a :class:`Connection`.

        Reuses an existing live connection immediately. Fails with
        :class:`TransportTimeoutError` after the transport's dial
        timeout when the target is offline, NAT'ed, or unknown, and
        with :class:`DialError` when no transport is shared.

        ``from_observer`` marks an AutoNAT dial-back: it arrives from a
        fresh observer endpoint the target's NAT has never seen, so
        admission uses the cold-dial rule. ``traverse`` (default) lets
        an installed :meth:`traversal <install_traversal>` chain upgrade
        the dial through relays and hole-punching; measurement dials
        pass ``traverse=False`` to see raw reachability.

        Every early-exit failure still counts one attempted and one
        failed dial, so failure-rate reports see all outcomes.
        """
        existing = src.connections.get(target_id)
        if existing is not None and not existing.closed:
            return Future.resolved(existing)
        if traverse and not from_observer and self.traversal is not None:
            return self.traversal.dial(src, target_id)
        future = self._dial_uncached(src, target_id, from_observer=from_observer)
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "simnet.dial", src=str(src.peer_id), dst=str(target_id)
            )

            def finish(settled: Future) -> None:
                if settled.failed:
                    span.end(status="error",
                             error=type(settled.exception()).__name__)
                else:
                    span.end(transport=settled.result().transport.value)
                    if self.obs is not None:
                        self.obs.metrics.histogram(
                            "simnet.dial.latency_s"
                        ).observe(span.duration)

            future.add_callback(finish)
        return future

    def _dial_uncached(
        self, src: SimHost, target_id: PeerId, from_observer: bool = False
    ) -> Future:
        self.stats.dials_attempted += 1
        if not src.online:
            self.stats.dials_failed += 1
            return Future.failed_with(DialError("dialer is offline"))
        future: Future = Future()
        target = self.hosts.get(target_id)
        if target is None and self.host_resolver is not None:
            target = self.host_resolver(target_id)

        listener_transports = (
            target.transports if target is not None else _DEFAULT_TRANSPORTS
        )
        transport = pick_transport(src.transports, listener_transports, self.rng)
        if transport is None:
            self.stats.dials_failed += 1
            return Future.failed_with(DialError("no shared transport"))

        # The outbound SYN traverses the dialer's own NAT first, binding
        # (or refreshing) a mapping toward the target; this is what the
        # target's box sees as our source endpoint.
        src_port = src.listen_port
        if src.nat is not None:
            dst_port = (
                target.listen_port if target is not None else DEFAULT_LISTEN_PORT
            )
            src_port = src.nat.map_outbound(target_id, dst_port, self.sim.now)

        if (
            target is not None
            and self.faults is not None
            and self.faults.severed(src, target.region, self.sim.now)
        ):
            # A partition manifests as an unanswered handshake: the
            # dialer burns the transport timeout before giving up.
            self.stats.faults_injected += 1
            timeout = dial_timeout(transport)

            def cut() -> None:
                if not src.online:
                    return
                self.stats.dials_failed += 1
                future.fail(
                    PartitionError(
                        f"partition severs {src.peer_id} -> {target_id}"
                    )
                )

            self.sim.schedule(timeout, cut)
            return future

        # Admission: the listener must be online and directly bound, or
        # its NAT box must let this source endpoint through. For hosts
        # without a box this is exactly ``target.reachable``, and the
        # accept-probability draw below fires iff it did before, so
        # NAT-free worlds consume the shared RNG identically.
        admitted = target is not None and target.reachable
        if admitted and target.nat is not None:
            if from_observer:
                admitted = target.nat.admits_stranger(self.sim.now)
            else:
                admitted = target.nat.allows_inbound(
                    src.peer_id, src_port, self.sim.now
                )
        refused = (
            admitted
            and self.rng.random()
            >= self.latency.class_profile(target.peer_class).accept_probability
        )
        if not admitted or refused:
            timeout = dial_timeout(transport)

            def fail() -> None:
                # The dialer may itself have churned offline during the
                # wait; mirror establish() and leave the future alone
                # (its teardown already dropped the pending dial).
                if not src.online:
                    return
                self.stats.dials_failed += 1
                future.fail(TransportTimeoutError(target_id, timeout, transport))

            self.sim.schedule(timeout, fail)
            return future

        rtt = 2 * self.latency.one_way(
            src.region, src.peer_class, target.region, target.peer_class, self.rng
        )
        delay = handshake_time(transport, rtt)

        def establish() -> None:
            # The target may have churned offline during the handshake.
            if not src.online or not target.reachable:
                self.stats.dials_failed += 1
                future.fail(DialError(f"{target_id} went away during handshake"))
                return
            conn = Connection(src.peer_id, target_id, transport, rtt, self.sim.now)
            src.connections[target_id] = conn
            back = Connection(target_id, src.peer_id, transport, rtt, self.sim.now)
            target.connections[src.peer_id] = back
            self.stats.dials_succeeded += 1
            for observer in src.on_connection:
                observer(conn)
            for observer in target.on_connection:
                observer(back)
            future.resolve(conn)

        self.sim.schedule(delay, establish)
        return future

    def disconnect(self, src: SimHost, target_id: PeerId) -> None:
        """Tear down the connection in both directions (if present)."""
        conn = src.connections.pop(target_id, None)
        if conn is not None:
            conn.closed = True
        target = self.hosts.get(target_id)
        if target is not None:
            back = target.connections.pop(src.peer_id, None)
            if back is not None:
                back.closed = True

    # -- RPC -------------------------------------------------------------------

    def rpc(
        self,
        src: SimHost,
        target_id: PeerId,
        method: str,
        payload: Any,
        request_size: int = 256,
        auto_dial: bool = True,
    ) -> Future:
        """Send a request and resolve with the handler's response.

        Dials first when not connected (``auto_dial``). The response
        future *never settles* if the target churns offline mid-flight;
        protocol code wraps calls in ``with_timeout`` as go-ipfs does.

        Counts one ``rpcs_sent`` per call — including attempts whose
        dial fails — so completion/timeout tallies are always a subset
        of the sends they refer to.
        """
        self.stats.rpcs_sent += 1
        future: Future = Future()
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "simnet.rpc", method=method, src=str(src.peer_id),
                dst=str(target_id),
            )

            def finish(settled: Future) -> None:
                if settled.failed:
                    span.end(status="error",
                             error=type(settled.exception()).__name__)
                else:
                    span.end()
                    if self.obs is not None:
                        self.obs.metrics.histogram(
                            "simnet.rpc.latency_s"
                        ).observe(span.duration)

            # A lost RPC never settles this future; its span then stays
            # open and is exported as unfinished — that open interval
            # *is* the loss, so nothing closes it artificially.
            future.add_callback(finish)

        exchange = _Exchange(self, src, target_id, method, payload, request_size, future)
        if src.is_connected(target_id):
            exchange.send()
        elif auto_dial:
            self.dial(src, target_id).add_callback(exchange.dialed)
        else:
            future.fail(DialError(f"not connected to {target_id}"))
        return future

    def _one_way_between(self, src: SimHost, dst: SimHost) -> float:
        """One-way latency, honouring circuit relays: a relayed
        connection pays src->relay plus relay->dst."""
        connection = src.connections.get(dst.peer_id)
        if connection is not None and not connection.closed and connection.relay:
            relay = self.hosts.get(connection.relay)
            if relay is not None:
                return self.latency.one_way(
                    src.region, src.peer_class, relay.region, relay.peer_class,
                    self.rng,
                ) + self.latency.one_way(
                    relay.region, relay.peer_class, dst.region, dst.peer_class,
                    self.rng,
                )
        return self.latency.one_way(
            src.region, src.peer_class, dst.region, dst.peer_class, self.rng
        )

    def _occupy_link(self, sender: SimHost, receiver: SimHost, size: int) -> float:
        """Queueing delay + transmission time for one transfer.

        Serializes transfers on the sender's uplink and the receiver's
        downlink: concurrent block fetches from one peer share its
        bandwidth rather than each getting the full rate.
        """
        now = self.sim.now
        transmission = self.latency.transfer_time(
            size, sender.peer_class, receiver.peer_class, self.rng
        )
        start = max(now, sender.tx_free_at, receiver.rx_free_at)
        finish = start + transmission
        sender.tx_free_at = finish
        receiver.rx_free_at = finish
        return finish - now


class _Exchange:
    """One RPC on the wire: its request, its target and the caller's
    future. The three scheduled hops are its bound methods — the request
    reaches the target (:meth:`deliver`), the target answers after its
    processing delay (:meth:`respond`), the answer reaches the caller
    (:meth:`complete`) — so an RPC allocates this one object instead of
    a closure per hop. Nothing but its pending event (or the dial it
    waits on) refers to it: once the last hop has run, it and what it
    carries are garbage.
    """

    __slots__ = (
        "net", "src", "target_id", "method", "payload", "request_size",
        "future", "target", "fault", "response",
    )

    def __init__(
        self,
        net: SimNetwork,
        src: SimHost,
        target_id: PeerId,
        method: str,
        payload: Any,
        request_size: int,
        future: Future,
    ) -> None:
        self.net = net
        self.src = src
        self.target_id = target_id
        self.method = method
        self.payload = payload
        self.request_size = request_size
        self.future = future
        #: set by :meth:`send` before any hop is scheduled
        self.target: SimHost | None = None
        self.fault: FaultKind | None = None
        #: the handler's answer, carried from :meth:`respond` to
        #: :meth:`complete`
        self.response: Any = None

    def dialed(self, dial_future: Future) -> None:
        """The auto-dial settled: send over it, or fail with it."""
        if dial_future.failed:
            self.future.fail(dial_future.exception())  # type: ignore[arg-type]
            return
        self.send()

    def send(self) -> None:
        net = self.net
        src = self.src
        target_id = self.target_id
        future = self.future
        target = net.hosts.get(target_id)
        if target is None and net.host_resolver is not None:
            target = net.host_resolver(target_id)
        if target is None:
            future.fail(DialError(f"unknown peer {target_id}"))
            return
        self.target = target

        # Outbound traffic keeps the sender's NAT mapping warm: an
        # active RPC stream is what holds a binding open past its TTL.
        if src.nat is not None:
            src.nat.map_outbound(target_id, target.listen_port, net.sim.now)

        fault = None
        faults = net.faults
        if faults is not None:
            if faults.severed(src, target.region, net.sim.now):
                # The partition reset the connection under us.
                net.stats.faults_injected += 1
                net.disconnect(src, target_id)
                future.fail(
                    PartitionError(f"partition severs RPC {src.peer_id} -> {target_id}")
                )
                return
            fault = self.fault = faults.rpc_fault(target, net.sim.now, self.method)
            if fault is not None:
                net.stats.faults_injected += 1

        upstream = net._one_way_between(src, target) + net._occupy_link(
            src, target, self.request_size
        )
        if fault in (FaultKind.LOSS, FaultKind.BLACKHOLE):
            # The request (or its answer) vanishes: the future never
            # settles, exactly like an RPC to a churned peer — the
            # caller's timeout is what recovers.
            return
        if fault is FaultKind.RESET:
            net.sim.schedule(upstream, self.reset)
            return
        net.sim.schedule(upstream, self.deliver)

    def reset(self) -> None:
        if not self.src.online:
            return
        self.net.disconnect(self.src, self.target_id)
        self.future.fail(
            FaultInjectionError(f"connection to {self.target_id} reset mid-RPC")
        )

    def _severed(self, endpoint: SimHost, toward: Region) -> bool:
        """A partition that activated while this RPC was on the wire:
        traffic already in flight dies at the fault boundary exactly like
        a freshly-issued RPC, instead of slipping through a cut that tore
        its connection down. Called only while a fault injector is
        installed."""
        net = self.net
        future = self.future
        if future.done or not net.faults.severed(endpoint, toward, net.sim.now):
            return False
        net.stats.faults_injected += 1
        net.disconnect(self.src, self.target_id)
        future.fail(
            PartitionError(
                f"partition severs in-flight RPC {self.src.peer_id} -> {self.target_id}"
            )
        )
        return True

    def deliver(self) -> None:
        target = self.target
        if not target.online:
            return  # request lost; caller's timeout handles it
        net = self.net
        faults = net.faults
        if faults is not None and self._severed(self.src, target.region):
            return  # the request never crosses the new cut
        processing = net.latency.processing_delay(target.peer_class, net.rng)
        if faults is not None:
            processing *= faults.processing_factor(target, net.sim.now)
        net.sim.schedule(processing, self.respond)

    def respond(self) -> None:
        target = self.target
        if not target.online:
            return
        src = self.src
        if self.fault is FaultKind.MALFORMED:
            response, response_size = None, 16
        else:
            try:
                response, response_size = target.handler_for(self.method)(
                    src.peer_id, self.payload
                )
            except SimulationError:
                raise
            except Exception as exc:  # noqa: BLE001 - remote handler fault
                self.future.fail(exc)
                return
        net = self.net
        downstream = net._one_way_between(target, src) + net._occupy_link(
            target, src, response_size
        )
        net.stats.bytes_transferred += self.request_size + response_size
        self.response = response
        net.sim.schedule(downstream, self.complete)

    def complete(self) -> None:
        src = self.src
        if not src.online:
            return
        future = self.future
        if future.done:
            # The caller's timeout already abandoned this RPC (see
            # with_timeout); a late reply is not a completion.
            return
        net = self.net
        if net.faults is not None and self._severed(self.target, src.region):
            return  # the response dies crossing back over the cut
        net.stats.rpcs_completed += 1
        future.resolve(self.response)
