"""The IPFS node: publication and retrieval flows (Figure 3).

Publication (Section 3.1): import content → Merkle-DAG + root CID →
DHT walk to the 20 closest peers → fire-and-forget ADD_PROVIDER batch.

Retrieval (Section 3.2), four steps with measured phases:

1. *Content discovery* — opportunistic Bitswap over existing
   connections (1 s window), falling back to a DHT provider walk;
2. *Peer discovery* — address book hit, else a second DHT walk for the
   provider's peer record;
3. *Peer routing* — dial the provider;
4. *Content exchange* — Bitswap session fetches the DAG and the bytes
   are verified block by block.

Every receipt carries the per-phase timings the paper's Figures 9 and
10 are built from.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections.abc import Generator
from dataclasses import dataclass

from repro.bitswap.engine import BitswapEngine
from repro.bitswap.session import BitswapSession
from repro.blockstore.pinning import PinningBlockstore
from repro.crypto.keys import KeyPair, generate_keypair
from repro.dht.dht_node import DhtNode
from repro.errors import PeerNotFoundError, ProviderNotFoundError, RetrievalError
from repro.merkledag.builder import DagBuilder, ImportResult
from repro.merkledag.reader import DagReader
from repro.multiformats.cid import Cid
from repro.multiformats.multiaddr import Multiaddr, Protocol
from repro.multiformats.peerid import PeerId
from repro.node.addressbook import AddressBook
from repro.node.config import NodeConfig
from repro.resilience import Resilience, hedged_call
from repro.resilience.core import FALLBACK_WINDOW_S
from repro.simnet.latency import PeerClass, Region
from repro.simnet.nat import NatBox
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Future, Simulator, any_of
from repro.simnet.transport import Transport


@dataclass(frozen=True)
class PublishReceipt:
    """Timing breakdown of one publication (Figures 9a-9c)."""

    cid: Cid
    walk_duration: float
    rpc_batch_duration: float
    total_duration: float
    peers_stored: int
    peers_targeted: int
    walk_rpcs: int


@dataclass(frozen=True)
class RetrievalReceipt:
    """Timing breakdown of one retrieval (Figures 9d-9f, 10).

    ``discovery_duration`` covers the Bitswap window plus any DHT
    provider walk; ``peer_walk_duration`` the peer-record walk (0 on an
    address-book hit); ``dial_duration`` peer routing;
    ``fetch_duration`` the content exchange.
    """

    cid: Cid
    provider: PeerId
    via_bitswap: bool
    bitswap_window: float
    provider_walk_duration: float
    peer_walk_duration: float
    dial_duration: float
    fetch_duration: float
    total_duration: float
    bytes_fetched: int
    #: the provider was found by the degraded-mode Bitswap broadcast
    #: after the DHT walk exhausted (resilience fallbacks only).
    via_fallback: bool = False

    @property
    def discovery_duration(self) -> float:
        """Total content-discovery time (window + both walks)."""
        return self.bitswap_window + self.provider_walk_duration + self.peer_walk_duration

    @property
    def dht_walks_duration(self) -> float:
        """The two DHT walks combined (what Figure 9e plots)."""
        return self.provider_walk_duration + self.peer_walk_duration


@functools.cache
def synthesize_multiaddr(peer_id: PeerId) -> Multiaddr:
    """A deterministic, syntactically valid address for a simulated peer.

    A pure function of an immutable id, computed once per peer: every
    address book that learns the peer shares the one ``Multiaddr``.
    """
    digest = hashlib.sha256(b"addr" + peer_id.to_bytes()).digest()
    octets = (digest[0] % 223 + 1, digest[1], digest[2], digest[3] % 254 + 1)
    return Multiaddr.build(
        (Protocol.IP4, "%d.%d.%d.%d" % octets),
        (Protocol.TCP, "4001"),
    ).with_peer_id(peer_id.encode())


class IpfsNode:
    """A full IPFS node over the simulated network."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        rng: random.Random,
        region: Region = Region.EU,
        peer_class: PeerClass = PeerClass.DATACENTER,
        nat_private: bool = False,
        dht_server: bool | None = None,
        config: NodeConfig | None = None,
        keypair: KeyPair | None = None,
        transports: frozenset[Transport] = frozenset({Transport.TCP, Transport.QUIC}),
        nat: NatBox | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.rng = rng
        self.config = config if config is not None else NodeConfig()
        self.keypair = keypair if keypair is not None else generate_keypair(rng)
        self.host = SimHost(
            self.keypair.peer_id,
            region=region,
            peer_class=peer_class,
            nat_private=nat_private,
            transports=transports,
        )
        if nat is not None:
            # A node behind an emergent NAT box: online and admitted
            # per the box's rules, speaking DCUtR for upgrades.
            self.host.nat = nat
            self.host.dcutr = True
        network.register(self.host)
        # NAT'ed nodes default to DHT clients (the AutoNAT outcome);
        # an emergent box likewise keeps the node a client.
        server = (
            dht_server
            if dht_server is not None
            else not nat_private and nat is None
        )
        self.resilience = Resilience(self.config.protection, sim, network)
        self.dht = DhtNode(sim, network, self.host, rng, server=server,
                           lookup_config=self.config.lookup,
                           resilience=self.resilience)
        self.blockstore = PinningBlockstore()
        self.bitswap = BitswapEngine(sim, network, self.host, self.blockstore)
        self.address_book = AddressBook()
        self.reader = DagReader(self.blockstore)
        self.published: set[Cid] = set()
        self.addresses = (synthesize_multiaddr(self.peer_id),)
        self.dht.announce_addresses = self.addresses
        # Learn addresses of whoever we exchange traffic with.
        self.host.on_connection.append(self._remember_peer)

    # ------------------------------------------------------------------

    @property
    def peer_id(self) -> PeerId:
        """This node's stable identity (hash of its public key)."""
        return self.host.peer_id

    def _remember_peer(self, connection) -> None:
        self.address_book.record(
            connection.remote, (synthesize_multiaddr(connection.remote),)
        )

    def dial(self, peer_id: PeerId) -> Future:
        """Connect to ``peer_id`` under the rung's dial schedule.

        Failed handshakes are re-dialed (the bare rung's two immediate
        attempts are go-ipfs walking the peer's other addresses), and on
        the top rung the outcome feeds the peer's breaker.
        """
        res = self.resilience
        future = res.call(
            res.dial_policy, self.dht.retry_jitter, peer_id,
            lambda _attempt: self.network.dial(self.host, peer_id),
        )
        res.judge(peer_id, future)
        return future

    # -- publication path (Section 3.1) -----------------------------------

    def add_bytes(self, data: bytes, pin: bool = True) -> ImportResult:
        """Import content locally; nothing touches the network yet."""
        builder = DagBuilder(self.blockstore)
        result = builder.add_bytes(data)
        if pin:
            self.blockstore.pin(result.root)
        return result

    def publish(self, cid: Cid) -> Generator:
        """Announce ``cid`` to the DHT; returns a :class:`PublishReceipt`."""
        if not self.blockstore.has(cid):
            raise RetrievalError(f"cannot publish content we do not hold: {cid}")
        with self.network.tracer.span("node.publish", cid=str(cid)) as span:
            result = yield from self.dht.provide(cid)
            self.published.add(cid)
            span.set_attrs(
                peers_stored=result["peers_stored"],
                peers_targeted=result["peers_targeted"],
            )
            return PublishReceipt(
                cid=cid,
                walk_duration=result["walk_duration"],
                rpc_batch_duration=result["rpc_batch_duration"],
                total_duration=result["total_duration"],
                peers_stored=result["peers_stored"],
                peers_targeted=result["peers_targeted"],
                walk_rpcs=result["walk_stats"].rpcs_sent,
            )

    def publish_peer_record(self) -> Generator:
        """Announce our PeerID -> Multiaddress mapping (Section 3.1)."""
        return self.dht.publish_peer_record(self.addresses)

    def add_directory(self, entries: dict[str, bytes], pin: bool = True) -> Cid:
        """Import several named files and a directory committing to
        them; returns the directory's root CID (``ipfs add -r``)."""
        from repro.merkledag.unixfs import Directory

        cids = {name: self.add_bytes(data, pin=False).root
                for name, data in entries.items()}
        directory = Directory(self.blockstore)
        root = directory.build(cids)
        if pin:
            self.blockstore.pin(root)
        return root

    def list_directory(self, cid: Cid) -> dict[str, Cid]:
        """Entries of a locally-held directory (``ipfs ls``)."""
        from repro.merkledag.unixfs import Directory

        directory = Directory(self.blockstore)
        return {entry.name: entry.cid for entry in directory.list_entries(cid)}

    def add_and_publish(self, data: bytes) -> Generator:
        """Convenience: import then publish; returns (root, receipt)."""
        result = self.add_bytes(data)
        receipt = yield from self.publish(result.root)
        return result.root, receipt

    def start_republisher(self) -> None:
        """Re-provide all published CIDs every 12 h (Section 3.1)."""

        def republish_loop() -> Generator:
            while True:
                yield self.config.republish_interval_s
                if not self.host.online:
                    continue
                for cid in list(self.published):
                    try:
                        yield from self.dht.provide(cid)
                    except Exception:  # noqa: BLE001 - keep the loop alive
                        continue

        self.sim.spawn(republish_loop(), name="republisher")

    # -- retrieval path (Section 3.2) ----------------------------------------

    def retrieve(self, cid: Cid, recursive: bool = True) -> Generator:
        """Fetch the content behind ``cid``; returns a receipt.

        Follows the full pipeline of Figure 3, measuring every phase.
        ``recursive=False`` fetches only the root block (shallow path
        resolution, as a gateway does while walking ``/ipfs/<cid>/a/b``
        paths). With ``config.parallel_discovery`` the DHT walk starts
        alongside the Bitswap window instead of after it (the
        Section 6.2 proposal).
        """
        tracer = self.network.tracer
        start = self.sim.now
        with tracer.span("node.retrieve", cid=str(cid)) as root_span:
            with tracer.span("retrieve.discover"):
                if self.config.parallel_discovery:
                    provider, alternates, timings = yield from self._discover_parallel(cid)
                else:
                    provider, alternates, timings = yield from self._discover_sequential(cid)
            bitswap_window, provider_walk, via_bitswap, via_fallback = timings

            # Peer discovery: address book, then the address hint a
            # GET_PROVIDERS response may have attached (go-ipfs providers
            # self-report addresses with a 30 min TTL), else the second
            # DHT walk.
            peer_walk = 0.0
            if not via_bitswap and not self.host.is_connected(provider):
                breakers = self.resilience.breakers
                if self.address_book.lookup(provider, breakers=breakers) is None:
                    hint = (
                        self.dht.address_hints.pop(provider, None)
                        if self.config.provider_addr_hints
                        else None
                    )
                    if hint is not None:
                        self.address_book.record(provider, hint.addresses)
                    else:
                        with tracer.span("retrieve.peer_discovery"):
                            walk_start = self.sim.now
                            record, _ = yield from self.dht.find_peer(provider)
                            peer_walk = self.sim.now - walk_start
                            if record is None:
                                raise PeerNotFoundError(
                                    f"no peer record for {provider}"
                                )
                            self.address_book.record(provider, record.addresses)

            # Peer routing: connect to the provider.
            dial_start = self.sim.now
            with tracer.span("retrieve.dial"):
                if not self.host.is_connected(provider):
                    if self.resilience.enabled and alternates:
                        provider = yield from self._dial_hedged(
                            provider, alternates[0]
                        )
                    else:
                        yield self.dial(provider)
            dial_duration = self.sim.now - dial_start

            # Content exchange.
            fetch_start = self.sim.now
            session = BitswapSession(self.bitswap, [provider], self.resilience)
            with tracer.span("retrieve.fetch"):
                if recursive:
                    yield from session.fetch_dag(cid)
                else:
                    yield from session.fetch_one(cid)
            fetch_duration = self.sim.now - fetch_start

            root_span.set_attrs(
                provider=str(provider),
                via_bitswap=via_bitswap,
                bytes=session.bytes_fetched,
            )
            return RetrievalReceipt(
                cid=cid,
                provider=provider,
                via_bitswap=via_bitswap,
                bitswap_window=bitswap_window,
                provider_walk_duration=provider_walk,
                peer_walk_duration=peer_walk,
                dial_duration=dial_duration,
                fetch_duration=fetch_duration,
                total_duration=self.sim.now - start,
                bytes_fetched=session.bytes_fetched,
                via_fallback=via_fallback,
            )

    def _discover_sequential(self, cid: Cid) -> Generator:
        """Bitswap window first, DHT walk only on a miss (the default).

        Returns ``(provider, alternate_providers, timings)`` where the
        alternates are further providers the same GET_PROVIDERS
        response carried — hedged dials race the first of them against
        the primary.
        """
        window_start = self.sim.now
        peer = yield from self.bitswap.discover_connected(cid)
        bitswap_window = self.sim.now - window_start
        if peer is not None:
            return peer, [], (bitswap_window, 0.0, True, False)
        walk_start = self.sim.now
        records, _ = yield from self.dht.find_providers(cid)
        provider_walk = self.sim.now - walk_start
        if not records:
            if self.resilience.enabled:
                peer = yield from self._fallback_discover(cid)
                if peer is not None:
                    return peer, [], (
                        bitswap_window, self.sim.now - walk_start, True, True
                    )
            raise ProviderNotFoundError(f"no provider record found for {cid}")
        alternates = [record.provider for record in records[1:]]
        return records[0].provider, alternates, (
            bitswap_window, provider_walk, False, False
        )

    def _discover_parallel(self, cid: Cid) -> Generator:
        """Race the Bitswap window against the DHT walk (Section 6.2)."""
        start = self.sim.now
        bitswap_process = self.sim.spawn(
            self.bitswap.discover_connected(cid)
        )
        walk_process = self.sim.spawn(self.dht.find_providers(cid))

        def bitswap_hit_only() -> Future:
            """Bitswap's future, filtered to settle only on a hit."""
            filtered: Future = Future()

            def on_done(future: Future) -> None:
                if not future.failed and future.result() is not None:
                    filtered.resolve(future.result())

            bitswap_process.future.add_callback(on_done)
            return filtered

        index, value = yield any_of([bitswap_hit_only(), walk_process.future])
        elapsed = self.sim.now - start
        if index == 0:
            return value, [], (elapsed, 0.0, True, False)
        records, _ = value
        if records:
            alternates = [record.provider for record in records[1:]]
            return records[0].provider, alternates, (0.0, elapsed, False, False)
        # The walk exhausted without providers; give Bitswap its window.
        peer = yield bitswap_process.future
        if peer is not None:
            return peer, [], (self.sim.now - start, 0.0, True, False)
        if self.resilience.enabled:
            peer = yield from self._fallback_discover(cid)
            if peer is not None:
                return peer, [], (self.sim.now - start, 0.0, True, True)
        raise ProviderNotFoundError(f"no provider record found for {cid}")

    def _fallback_discover(self, cid: Cid) -> Generator:
        """Degraded mode: broadcast a want over current connections.

        The DHT walk exhausted without a provider record — under heavy
        churn the record holders may all be gone. Before giving up, ask
        every currently-connected peer directly (a second, wider
        Bitswap round beyond the initial 1 s window; go-ipfs keeps
        wants pending on all sessions similarly). Returns the first
        peer claiming the block, or None.
        """
        res = self.resilience
        res.count_fallback_broadcast()
        if self.network.tracer.enabled:
            self.network.tracer.event(
                "resilience.fallback", cid=str(cid),
                connected=len(self.host.connections),
            )
        peer = yield from self.bitswap.discover_connected(cid, FALLBACK_WINDOW_S)
        if peer is not None:
            res.count_fallback_hit()
        return peer

    def _dial_hedged(self, primary: PeerId, backup: PeerId) -> Generator:
        """Race the primary provider's dial against the next-best one.

        The hedge launches only after the primary dial has been out for
        the adaptive hedge delay. Returns whichever provider's dial won
        (the caller fetches from that provider).
        """
        res = self.resilience
        remote = self.network.host(primary)
        delay = res.hedge_delay_s(remote.region if remote is not None else None)
        outcome = yield from hedged_call(
            self.sim,
            functools.partial(self.dial, primary),
            functools.partial(self.dial, backup),
            delay,
        )
        if outcome.hedged:
            res.count_hedge_launched()
            if outcome.winner == 1:
                res.count_hedge_win()
                return backup
            res.count_hedge_loss()
        return primary

    def cat(self, cid: Cid) -> bytes:
        """Reassemble locally-held content (after :meth:`retrieve`)."""
        return self.reader.cat(cid)

    def retrieve_bytes(self, cid: Cid) -> Generator:
        """Retrieve then reassemble; returns ``(data, receipt)``."""
        receipt = yield from self.retrieve(cid)
        return self.cat(cid), receipt

    # -- maintenance -------------------------------------------------------

    def become_provider(self, cid: Cid) -> Generator:
        """Announce content we fetched (Section 3.1: any peer that
        retrieves data can become a provider itself)."""
        if not self.reader.has_complete_dag(cid):
            raise RetrievalError(f"cannot provide incomplete DAG: {cid}")
        return (yield from self.publish(cid))

    def disconnect_all(self) -> None:
        """Drop every connection (the experiment harness does this
        between retrievals so Bitswap cannot short-circuit the DHT,
        Section 4.3)."""
        for remote in list(self.host.connections):
            self.network.disconnect(self.host, remote)
