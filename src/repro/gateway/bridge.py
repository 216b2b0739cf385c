"""Gateway bridged onto a live simulated IPFS network.

The gateway day behind Table 5 / Figure 11
(:mod:`repro.gateway.replay`'s model backend) samples its non-cached
latency from a fitted distribution (fast, good at that scale). This bridge
instead wires the gateway's miss path to a real
:class:`~repro.node.host.IpfsNode` doing full DHT discovery + Bitswap
fetches against the simulated world — the actual architecture of
Section 3.4: "on one side is a DHT Server node, and on the other side
is an nginx HTTP web server".

The bridge comes in two rungs. The stock bridge (``overload=None``)
sends every miss upstream on its own. An
:class:`~repro.gateway.overload.OverloadConfig` makes it overload-safe
all at once: concurrent misses for one CID coalesce into a single
upstream retrieval, the number of in-flight misses is bounded, excess
misses queue with a deadline and are shed with 503-equivalents (logged
under :attr:`CacheTier.SHED`), and a saturated queue triggers brownout
— stale entries are served without revalidation and recursive path
resolution is refused.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.bitswap.session import BitswapSession
from repro.errors import OverloadError, RetrievalError
from repro.gateway.cache import ObjectCache
from repro.gateway.gateway import node_store_latency
from repro.gateway.logs import AccessLogEntry, CacheTier
from repro.gateway.overload import (
    DEFAULT_SIZE_HINT,
    MissGate,
    OverloadConfig,
    OverloadStats,
    ProviderHintCache,
)
from repro.multiformats.cid import Cid
from repro.multiformats.peerid import PeerId
from repro.node.host import IpfsNode, RetrievalReceipt, synthesize_multiaddr
from repro.simnet.sim import Future
from repro.utils.retry import retry


@dataclass(frozen=True)
class BridgedResponse:
    """What the bridge returns for one GET."""

    cid: Cid
    tier: CacheTier
    latency: float
    size: int
    #: served from a cache entry past its TTL because the upstream
    #: revalidation failed (degraded mode; the ``resilient`` rung only).
    degraded: bool = False
    #: turned away by admission control (a 503; nothing was served).
    shed: bool = False
    #: this miss joined an already-in-flight retrieval for the CID.
    coalesced: bool = False


class GatewayBridge:
    """An HTTP entry point backed by a co-located IPFS node.

    With a ``cache_ttl_s``, nginx cache entries older than the TTL are
    revalidated upstream; when the revalidation fails and
    ``serve_stale`` is on (it defaults to on when the bridge node runs
    the ``resilient`` protection rung) the stale bytes are served with
    ``degraded=True`` instead of surfacing the error — nginx's
    ``proxy_cache_use_stale``. Without a TTL (the default) entries
    never go stale and the path is byte-identical to the stock bridge.

    ``overload=None`` is the stock bridge; an :class:`OverloadConfig`
    turns on single-flight coalescing, admission control, the miss
    queue and brownout together (see :mod:`repro.gateway.overload`).
    ``provider_hints`` is an optional shared :class:`ProviderHintCache`
    letting this bridge skip DHT walks for content a sibling gateway
    already located.
    """

    def __init__(
        self,
        node: IpfsNode,
        cache_capacity_bytes: int,
        cache_ttl_s: float | None = None,
        serve_stale: bool | None = None,
        overload: OverloadConfig | None = None,
        provider_hints: ProviderHintCache | None = None,
    ) -> None:
        self.node = node
        self._cached_at: dict[Cid, float] = {}
        # Evicted objects must drop their timestamps too, or the side
        # table grows with every distinct CID ever cached (the leak a
        # full-day replay of 274 k objects turns into real memory).
        self.web_cache = ObjectCache(
            cache_capacity_bytes, on_evict=self._forget_cached_at
        )
        self.cache_ttl_s = cache_ttl_s
        self.serve_stale = (
            serve_stale if serve_stale is not None else node.resilience.enabled
        )
        self.overload = overload
        self.provider_hints = provider_hints
        self.overload_stats = OverloadStats()
        self._gate = (
            None if overload is None
            else MissGate(node.sim, overload, self.overload_stats)
        )
        #: in-flight single-flight retrievals, keyed by CID.
        self._inflight: dict[Cid, Future] = {}
        #: upstream retrievals launched per CID (duplicate-suppression
        #: accounting for the flash-crowd experiment).
        self.upstream_launches: dict[Cid, int] = {}
        #: degraded responses served from stale cache entries.
        self.stale_served = 0
        self.log: list[AccessLogEntry] = []

    # -- bookkeeping -------------------------------------------------------

    def _forget_cached_at(self, cid: Cid) -> None:
        self._cached_at.pop(cid, None)

    def _note_cached(self, cid: Cid, size: int) -> None:
        """Insert into the web cache, stamping the TTL clock only for
        objects the cache actually accepted (oversized ones are
        declined and must not leave a dangling timestamp)."""
        self.web_cache.insert(cid, size)
        if cid in self.web_cache:
            self._cached_at[cid] = self.node.sim.now

    def _count_launch(self, cid: Cid) -> None:
        self.upstream_launches[cid] = self.upstream_launches.get(cid, 0) + 1

    @property
    def duplicate_launches(self) -> int:
        """Upstream retrievals beyond the first per CID (0 = perfect
        single-flight suppression)."""
        return sum(count - 1 for count in self.upstream_launches.values())

    @property
    def in_brownout(self) -> bool:
        return self._gate is not None and self._gate.in_brownout

    # -- upstream paths ----------------------------------------------------

    def _fetch_from_hint(self, cid: Cid, provider: PeerId) -> Generator:
        """Fetch straight from a known provider: dial + Bitswap, no
        DHT walks (the failover fast path fed by the fleet's shared
        hint cache)."""
        node = self.node
        start = node.sim.now
        node.address_book.record(provider, (synthesize_multiaddr(provider),))
        dial_start = node.sim.now
        if not node.host.is_connected(provider):
            yield from retry(
                node.sim,
                node.dht.retry_jitter.for_peer(provider),
                node.resilience.dial_policy,
                lambda _attempt: node.network.dial(node.host, provider),
            )
        dial_duration = node.sim.now - dial_start
        session = BitswapSession(node.bitswap, [provider], node.resilience)
        fetch_start = node.sim.now
        yield from session.fetch_dag(cid)
        return RetrievalReceipt(
            cid=cid,
            provider=provider,
            via_bitswap=False,
            bitswap_window=0.0,
            provider_walk_duration=0.0,
            peer_walk_duration=0.0,
            dial_duration=dial_duration,
            fetch_duration=node.sim.now - fetch_start,
            total_duration=node.sim.now - start,
            bytes_fetched=session.bytes_fetched,
        )

    def _retrieve_upstream_hinted(self, cid: Cid) -> Generator:
        """Upstream retrieval, preferring a shared provider hint."""
        hints = self.provider_hints
        if hints is None:
            receipt = yield from self.node.retrieve(cid)
            return receipt
        provider = hints.get(cid)
        if provider is not None:
            try:
                receipt = yield from self._fetch_from_hint(cid, provider)
            except Exception:
                self.overload_stats.hint_fallbacks += 1
                hints.invalidate(cid)
            else:
                self.overload_stats.hint_fetches += 1
                return receipt
        receipt = yield from self.node.retrieve(cid)
        if isinstance(receipt, RetrievalReceipt):
            hints.put(cid, receipt.provider)
        return receipt

    def _admit(self, size_hint: int | None) -> Generator:
        """Pass admission control. Raises :class:`OverloadError` when
        the request is shed."""
        hint = size_hint if size_hint is not None else DEFAULT_SIZE_HINT
        waiter = self._gate.acquire(hint)
        if waiter is not None:
            yield waiter

    def _single_flight(self, cid: Cid, shared: Future) -> Generator:
        """The one upstream retrieval every coalesced waiter shares.

        Runs as its own spawned process so a waiter abandoning its
        request (client timeout) cannot kill the fetch for the others.
        """
        try:
            receipt = yield from self._retrieve_upstream_hinted(cid)
        except Exception as error:
            self._inflight.pop(cid, None)
            self._gate.release()
            shared.fail(error)
        else:
            self._inflight.pop(cid, None)
            self._gate.release()
            shared.resolve(receipt)

    def _upstream_guarded(self, cid: Cid, size_hint: int | None) -> Generator:
        """Upstream retrieval behind coalescing + admission control
        (the stock bridge goes straight upstream).

        Returns True when this request coalesced onto an existing
        flight. Raises :class:`OverloadError` when shed.
        """
        if self._gate is None:
            self._count_launch(cid)
            yield from self._retrieve_upstream_hinted(cid)
            return False
        inflight = self._inflight.get(cid)
        if inflight is not None:
            self.overload_stats.coalesced_joins += 1
            tracer = self.node.network.tracer
            if tracer.enabled:
                tracer.event("gateway.coalesced", cid=str(cid))
            yield inflight
            return True
        shared: Future = Future()
        self._inflight[cid] = shared
        try:
            yield from self._admit(size_hint)
        except OverloadError as error:
            # Shed while queued for admission: every follower that
            # coalesced onto this flight sheds with the leader.
            self._inflight.pop(cid, None)
            shared.fail(error)
            raise
        self.overload_stats.single_flights += 1
        self._count_launch(cid)
        self.node.sim.spawn(
            self._single_flight(cid, shared), name=f"single-flight:{cid}"
        )
        yield shared
        return False

    # -- serving -----------------------------------------------------------

    def _serve_stale(self, cid: Cid) -> int:
        """Account one degraded stale response; returns the size."""
        size = self.node.reader.total_size(cid)
        self.stale_served += 1
        self.node.resilience.count_stale_served()
        if self.node.network.tracer.enabled:
            self.node.network.tracer.event("gateway.stale_served", cid=str(cid))
        return size

    def get(
        self,
        cid: Cid,
        user: str = "browser",
        country: str = "??",
        size_hint: int | None = None,
    ) -> Generator:
        """Serve ``GET /ipfs/<cid>`` (a process; yields network time).

        nginx cache first; then the node's own store (pinned or
        previously fetched content); then a full network retrieval
        through the bridge node. ``size_hint`` is the expected object
        size admission control budgets the miss queue with (the
        overload path only; defaults to the config's hint).
        """
        start = self.node.sim.now
        degraded = False
        shed = False
        coalesced = False
        with self.node.network.tracer.span("gateway.get", cid=str(cid)) as span:
            cached = bool(self.web_cache.lookup(cid))
            fresh = cached and (
                self.cache_ttl_s is None
                or self.node.sim.now - self._cached_at.get(cid, start)
                <= self.cache_ttl_s
            )
            if fresh:
                size = self.node.reader.total_size(cid)
                tier = CacheTier.NGINX
            elif cached:
                # Stale entry: revalidate upstream; serve the stale
                # bytes in degraded mode if that fails and stale
                # serving is on. Brownout skips the revalidation
                # entirely — stale-but-local beats queueing behind a
                # saturated miss queue.
                if self.in_brownout and self.serve_stale:
                    size = self._serve_stale(cid)
                    tier = CacheTier.NGINX
                    degraded = True
                    self.overload_stats.brownout_stale_served += 1
                else:
                    try:
                        yield from self._upstream_guarded(cid, size_hint)
                    except OverloadError:
                        if self.serve_stale:
                            size = self._serve_stale(cid)
                            tier = CacheTier.NGINX
                            degraded = True
                        else:
                            size = 0
                            tier = CacheTier.SHED
                            shed = True
                    except Exception:
                        if not self.serve_stale:
                            raise
                        size = self._serve_stale(cid)
                        tier = CacheTier.NGINX
                        degraded = True
                    else:
                        size = self.node.reader.total_size(cid)
                        tier = CacheTier.NON_CACHED
                        self._note_cached(cid, size)
            elif self.node.reader.has_complete_dag(cid):
                size = self.node.reader.total_size(cid)
                tier = CacheTier.NODE_STORE
                yield node_store_latency(self.node.rng)
            else:
                try:
                    coalesced = yield from self._upstream_guarded(cid, size_hint)
                except OverloadError:
                    size = 0
                    tier = CacheTier.SHED
                    shed = True
                    if self.node.network.tracer.enabled:
                        self.node.network.tracer.event(
                            "gateway.shed", cid=str(cid)
                        )
                else:
                    size = self.node.reader.total_size(cid)
                    tier = CacheTier.NON_CACHED
                    self._note_cached(cid, size)
            span.set_attrs(tier=tier.name.lower(), size=size)
        latency = self.node.sim.now - start
        entry = AccessLogEntry(
            timestamp=start, user=user, country=country,
            cid_index=hash(cid) & 0x7FFFFFFF, size=size,
            latency=latency, tier=tier, referrer=None,
        )
        self.log.append(entry)
        return BridgedResponse(
            cid, tier, latency, size,
            degraded=degraded, shed=shed, coalesced=coalesced,
        )

    def get_path(self, root: Cid, path: str, **kwargs) -> Generator:
        """Serve ``GET /ipfs/<root>/<path>``: shallow-resolve the
        directories, then fetch the target object.

        During brownout, resolving a path segment that is not already
        local would mean extra upstream fetches for one request — the
        bridge sheds those instead (503), serving plain CID requests
        and already-resolved paths first.
        """
        from repro.merkledag.unixfs import Directory

        start = self.node.sim.now
        current = root
        for segment in [part for part in path.split("/") if part]:
            if not self.node.blockstore.has(current):
                if self.in_brownout:
                    self.overload_stats.brownout_paths_dropped += 1
                    if self.node.network.tracer.enabled:
                        self.node.network.tracer.event(
                            "gateway.path_shed", cid=str(current)
                        )
                    entry = AccessLogEntry(
                        timestamp=start,
                        user=kwargs.get("user", "browser"),
                        country=kwargs.get("country", "??"),
                        cid_index=hash(current) & 0x7FFFFFFF,
                        size=0,
                        latency=self.node.sim.now - start,
                        tier=CacheTier.SHED,
                        referrer=None,
                    )
                    self.log.append(entry)
                    return BridgedResponse(
                        current, CacheTier.SHED,
                        self.node.sim.now - start, 0, shed=True,
                    )
                yield from self.node.retrieve(current, recursive=False)
            directory = Directory(self.node.blockstore)
            entries = {e.name: e.cid for e in directory.list_entries(current)}
            if segment not in entries:
                raise RetrievalError(f"path segment not found: {segment!r}")
            current = entries[segment]
        response = yield from self.get(current, **kwargs)
        return response

    def pin(self, cid: Cid) -> None:
        """Pin content into the bridge node's store (the Web3/NFT
        Storage arrangement of Section 3.4)."""
        self.node.blockstore.pin(cid)
