"""The DHT node: server-side RPC handlers plus client-side walk entry
points, attached to one :class:`~repro.simnet.network.SimHost`.

A node runs in one of two modes (Section 2.3):

- **server** — publicly reachable; answers RPCs, stores records, and is
  eligible for other peers' routing tables;
- **client** — NAT'ed or otherwise unreachable; issues lookups but
  stores nothing and never enters routing tables.

Mode is set by whoever builds the node, not by AutoNAT at join time:
:class:`~repro.node.host.IpfsNode` makes NAT'ed hosts clients unless
told otherwise, and the world builder sets each host's ``dht_server``
from its population tag (``ScenarioConfig.nat_peers_in_dht`` keeps
never-reachable peers as stale server entries, as crawls observe).
:func:`repro.simnet.nat.autonat_check` is the dial-back check itself.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Generator

from repro.dht import rpc
from repro.dht.keyspace import key_for_cid, key_for_peer
from repro.dht.lookup import (
    RPC_TIMEOUT_S,
    LookupConfig,
    find_peer_record,
    find_providers,
    find_value,
    get_closest_peers,
)
from repro.dht.provider_store import PeerRecordStore, ProviderStore
from repro.dht.records import PeerRecord, ProviderRecord
from repro.dht.routing_table import K_BUCKET_SIZE, RoutingTable
from repro.errors import PublishError
from repro.multiformats.cid import Cid
from repro.multiformats.multiaddr import Multiaddr
from repro.multiformats.peerid import PeerId
from repro.resilience import Resilience
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Future, Simulator, TimeoutError_, all_of, with_timeout
from repro.utils.retry import JitterStreams

#: How long a record holder trusts a provider's self-reported address
#: (go-ipfs peerstore provider-address TTL is 30 minutes).
PROVIDER_ADDR_TTL_S = 30 * 60.0


def learn_about(network: SimNetwork, table: RoutingTable, sender: PeerId) -> None:
    """Offer an RPC sender to ``table`` if its host is a DHT server."""
    remote = network.host(sender)
    if remote is not None and remote.dht_server:
        table.add(sender)


def answer_find_node(
    network: SimNetwork,
    table: RoutingTable,
    sender: PeerId,
    request: rpc.FindNodeRequest,
) -> tuple[rpc.FindNodeResponse, int]:
    """A server's FIND_NODE answer from ``table``: learn the sender,
    then return the k closest peers to the target. The one
    implementation: :meth:`DhtNode._on_find_node` calls it, and so does
    a compact world's peer that has a routing table but no node yet
    (:class:`~repro.simnet.compact.CompactWorld`)."""
    learn_about(network, table, sender)
    response = rpc.FindNodeResponse(
        tuple(table.closest(request.target_key, K_BUCKET_SIZE))
    )
    return response, response.wire_size()


class DhtNode:
    """Kademlia DHT participation for one host."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        host: SimHost,
        rng: random.Random | Callable[[], random.Random],
        server: bool = True,
        lookup_config: LookupConfig | None = None,
        resilience: Resilience | None = None,
        routing_table: RoutingTable | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        #: a stream, or a factory for one, called on first read of `rng`
        self._rng = rng
        self.server = server
        self.config = lookup_config if lookup_config is not None else LookupConfig()
        self.resilience = (
            resilience if resilience is not None else Resilience("bare", sim, network)
        )
        # A compact world's staged table is adopted, not rebuilt; either
        # way the node's rung sets its eviction threshold and breakers.
        if routing_table is None:
            routing_table = RoutingTable(host.peer_id)
        routing_table.failure_threshold = self.resilience.eviction_threshold
        routing_table.breakers = self.resilience.breakers
        self.routing_table = routing_table
        #: per-remote-peer RNG streams for retry backoff jitter, so one
        #: incident failing many RPCs at once cannot re-fire them in
        #: lockstep (see :class:`~repro.utils.retry.JitterStreams`).
        self.retry_jitter = JitterStreams(host.peer_id)
        self.provider_store = ProviderStore()
        self.peer_record_store = PeerRecordStore()
        #: addresses self-reported by providers in ADD_PROVIDER, kept
        #: for PROVIDER_ADDR_TTL_S and attached to GET_PROVIDERS
        #: responses (saves requesters the peer-discovery walk while
        #: fresh, exactly as go-ipfs's peerstore does).
        self._provider_addrs: dict[PeerId, PeerRecord] = {}
        #: address hints this node collected from provider walks.
        self.address_hints: dict[PeerId, PeerRecord] = {}
        #: our own announced addresses (set by the node layer).
        self.announce_addresses: tuple[Multiaddr, ...] = ()
        #: opaque validated values (IPNS records); key -> value bytes.
        self.value_store: dict[bytes, bytes] = {}
        #: validator deciding whether a PUT_VALUE is accepted and which
        #: of two candidate values is fresher; installed by the IPNS
        #: layer (None accepts everything, last write wins).
        self.value_validator = None
        # Mark the host so remote handlers know whether to add us to
        # their routing tables (the real network learns this via the
        # libp2p identify protocol).
        host.dht_server = server
        if server:
            self._register_handlers()

    @property
    def rng(self) -> random.Random:
        rng = self._rng
        if not isinstance(rng, random.Random):
            rng = self._rng = rng()
        return rng

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        self.host.register_handler(rpc.FIND_NODE, self._on_find_node)
        self.host.register_handler(rpc.ADD_PROVIDER, self._on_add_provider)
        self.host.register_handler(rpc.GET_PROVIDERS, self._on_get_providers)
        self.host.register_handler(rpc.PUT_PEER_RECORD, self._on_put_peer_record)
        self.host.register_handler(rpc.GET_PEER_RECORD, self._on_get_peer_record)
        self.host.register_handler(rpc.PUT_VALUE, self._on_put_value)
        self.host.register_handler(rpc.GET_VALUE, self._on_get_value)

    def _learn_about(self, sender: PeerId) -> None:
        """Add an RPC sender to our routing table if it is a server."""
        learn_about(self.network, self.routing_table, sender)

    def _closer_peers(self, target_key: bytes) -> tuple[PeerId, ...]:
        return tuple(self.routing_table.closest(target_key, K_BUCKET_SIZE))

    def _on_find_node(self, sender: PeerId, request: rpc.FindNodeRequest):
        return answer_find_node(self.network, self.routing_table, sender, request)

    def _on_add_provider(self, sender: PeerId, request: rpc.AddProviderRequest):
        self._learn_about(sender)
        self.provider_store.add(request.record)
        if request.addresses:
            self._provider_addrs[request.record.provider] = PeerRecord(
                request.record.provider, tuple(request.addresses), self.sim.now
            )
            self._prune_provider_addrs()
        return True, 16

    def _prune_provider_addrs(self) -> None:
        """Drop provider addresses past their TTL.

        GET_PROVIDERS already filters expired entries at read time, but
        without this sweep the cache grows without bound on long-lived
        record holders (every provider that ever announced stays in the
        dict forever). Pruning on insert keeps the cache proportional to
        the number of providers active within one TTL.
        """
        now = self.sim.now
        expired = [
            peer_id
            for peer_id, cached in self._provider_addrs.items()
            if now - cached.published_at >= PROVIDER_ADDR_TTL_S
        ]
        for peer_id in expired:
            del self._provider_addrs[peer_id]

    def _on_get_providers(self, sender: PeerId, request: rpc.GetProvidersRequest):
        self._learn_about(sender)
        providers = tuple(self.provider_store.providers_for(request.cid, self.sim.now))
        addresses = tuple(
            cached
            for record in providers
            if (cached := self._provider_addrs.get(record.provider)) is not None
            and self.sim.now - cached.published_at < PROVIDER_ADDR_TTL_S
        )
        response = rpc.GetProvidersResponse(
            providers, self._closer_peers(request.cid_key), addresses
        )
        return response, response.wire_size()

    def _on_put_peer_record(self, sender: PeerId, request: rpc.PutPeerRecordRequest):
        self._learn_about(sender)
        self.peer_record_store.put(request.record)
        return True, 16

    def _on_get_peer_record(self, sender: PeerId, request: rpc.GetPeerRecordRequest):
        self._learn_about(sender)
        record = self.peer_record_store.get(request.peer_id, self.sim.now)
        response = rpc.GetPeerRecordResponse(record, self._closer_peers(request.peer_key))
        return response, response.wire_size()

    def _on_put_value(self, sender: PeerId, request: rpc.PutValueRequest):
        self._learn_about(sender)
        accepted = True
        if self.value_validator is not None:
            existing = self.value_store.get(request.key)
            accepted = self.value_validator(request.key, request.value, existing)
        if accepted:
            self.value_store[request.key] = request.value
        return accepted, 16

    def _on_get_value(self, sender: PeerId, request: rpc.GetValueRequest):
        self._learn_about(sender)
        response = rpc.GetValueResponse(
            self.value_store.get(request.key), self._closer_peers(request.key)
        )
        return response, response.wire_size()

    # ------------------------------------------------------------------
    # client side: walks and publication
    # ------------------------------------------------------------------

    def bootstrap(self, seeds: list[PeerId]) -> None:
        """Seed the routing table with the canonical bootstrap peers."""
        for peer_id in seeds:
            remote = self.network.host(peer_id)
            if remote is not None and remote.dht_server:
                self.routing_table.add(peer_id)

    def _store_rpc(
        self,
        peer_id: PeerId,
        method: str,
        request,
        request_size: int,
        timeout_s: float,
    ) -> Future:
        """One record-store RPC, re-attempted under the rung's store
        schedule.

        On the ``bare`` rung this is exactly the timeout-wrapped RPC the
        fire-and-forget publisher always sent.
        """

        tracer = self.network.tracer
        span = None
        if tracer.enabled:
            span = tracer.start_span("dht.store", method=method, peer=str(peer_id))

        def attempt(_attempt: int) -> Future:
            return with_timeout(
                self.sim,
                self.network.rpc(
                    self.host, peer_id, method, request, request_size=request_size
                ),
                timeout_s,
            )

        res = self.resilience
        future = res.call(res.store_policy, self.retry_jitter, peer_id, attempt)
        res.judge(peer_id, future)
        if span is not None:
            def finish(settled: Future) -> None:
                if settled.failed:
                    span.end(status="error",
                             error=type(settled.exception()).__name__)
                else:
                    span.end()

            future.add_callback(finish)
        return future

    def _count_store_outcomes(self, results: list) -> int:
        """Tally stats for a store batch; returns the success count."""
        self.network.stats.rpcs_timed_out += sum(
            1 for result in results if isinstance(result, TimeoutError_)
        )
        return sum(1 for result in results if not isinstance(result, BaseException))

    def walk_closest(self, target_key: bytes) -> Generator:
        """DHT walk finding the k closest peers to ``target_key``.

        Returns ``(peers, LookupStats)``. This is the expensive walk of
        the publication path (Figure 9b): it only terminates once the
        k closest candidates have all been queried.
        """
        return get_closest_peers(self, target_key)

    def provide(self, cid: Cid) -> Generator:
        """Publish a provider record to the k closest peers (Section 3.1).

        Returns a :class:`ProvideResult`-like dict with the walk stats
        and the RPC batch duration. The store RPCs are sent in a batch
        and awaited together, but failures are ignored ("fire and
        forget"): the publisher does not retry or abort on unresponsive
        peers.
        """
        tracer = self.network.tracer
        with tracer.span("dht.provide", cid=str(cid)) as provide_span:
            key = key_for_cid(cid)
            walk_start = self.sim.now
            closest, stats = yield from get_closest_peers(
                self, key, k=self.config.store_k
            )
            walk_duration = self.sim.now - walk_start
            if not closest:
                raise PublishError(f"no peers found to store provider record for {cid}")
            record = ProviderRecord(cid, self.host.peer_id, self.sim.now)
            request = rpc.AddProviderRequest(record, self.announce_addresses)
            # go-ipfs's connection manager trims the dozens of connections a
            # walk opens, so the store RPCs mostly re-dial their targets —
            # that re-dial is where Figure 9c's 5 s / 45 s timeout spikes
            # come from (Section 6.1).
            for peer_id in closest:
                self.network.disconnect(self.host, peer_id)
            rpc_start = self.sim.now
            # The store RPCs run without the walk's tight per-query
            # deadline: a WebSocket-only target can burn its whole 45 s
            # handshake timeout here (Figure 9c's second spike).
            with tracer.span("dht.store_batch", targets=len(closest)) as batch_span:
                futures = [
                    self._store_rpc(
                        peer_id, rpc.ADD_PROVIDER, request,
                        request_size=rpc.PROVIDER_RECORD_SIZE, timeout_s=60.0,
                    )
                    for peer_id in closest
                ]
                results = yield all_of(futures)
                succeeded = self._count_store_outcomes(results)
                batch_span.set_attrs(stored=succeeded)
            rpc_duration = self.sim.now - rpc_start
            provide_span.set_attrs(
                peers_stored=succeeded, peers_targeted=len(closest)
            )
            return {
                "cid": cid,
                "peers_stored": succeeded,
                "peers_targeted": len(closest),
                "walk_duration": walk_duration,
                "rpc_batch_duration": rpc_duration,
                "total_duration": self.sim.now - walk_start,
                "walk_stats": stats,
            }

    def publish_peer_record(self, addresses: tuple[Multiaddr, ...]) -> Generator:
        """Publish our PeerID -> addresses mapping (Section 3.1)."""
        with self.network.tracer.span("dht.put_peer_record") as span:
            record = PeerRecord(self.host.peer_id, addresses, self.sim.now)
            key = key_for_peer(self.host.peer_id)
            closest, stats = yield from get_closest_peers(
                self, key, k=self.config.store_k
            )
            futures = [
                self._store_rpc(
                    peer_id, rpc.PUT_PEER_RECORD, rpc.PutPeerRecordRequest(record),
                    request_size=rpc.PEER_ENTRY_SIZE, timeout_s=RPC_TIMEOUT_S,
                )
                for peer_id in closest
            ]
            results = yield all_of(futures)
            succeeded = self._count_store_outcomes(results)
            span.set_attrs(peers_stored=succeeded, peers_targeted=len(closest))
            return {"peers_stored": succeeded, "walk_stats": stats}

    def find_providers(self, cid: Cid, max_providers: int = 1) -> Generator:
        """Content discovery walk; returns ``(records, LookupStats)``."""
        return find_providers(self, cid, max_providers)

    def find_peer(self, peer_id: PeerId) -> Generator:
        """Peer discovery walk; returns ``(PeerRecord | None, stats)``."""
        return find_peer_record(self, peer_id)

    def put_value(self, key: bytes, value: bytes) -> Generator:
        """Store an opaque value on the k closest peers (IPNS publish)."""
        with self.network.tracer.span("dht.put_value") as span:
            closest, stats = yield from get_closest_peers(
                self, key, k=self.config.store_k
            )
            futures = [
                self._store_rpc(
                    peer_id, rpc.PUT_VALUE, rpc.PutValueRequest(key, value),
                    request_size=64 + len(value), timeout_s=RPC_TIMEOUT_S,
                )
                for peer_id in closest
            ]
            results = yield all_of(futures)
            self._count_store_outcomes(results)
            stored = sum(
                1
                for result in results
                if not isinstance(result, BaseException) and result
            )
            span.set_attrs(peers_stored=stored, peers_targeted=len(closest))
            return {"peers_stored": stored, "walk_stats": stats}

    def get_value(self, key: bytes) -> Generator:
        """Resolve an opaque value; returns ``(value_or_None, stats)``."""
        return find_value(self, key)
