"""Multi-round iterative DHT walks (Section 3.2).

A walk keeps a shortlist of candidates ordered by XOR distance to the
target, queries up to α = 3 of them concurrently, merges the closer
peers each response reveals, and terminates depending on the walk kind:

- *closest-peers* walk (publication, Figure 9b): ends when the k = 20
  closest known candidates have all been queried successfully — the
  expensive variant;
- *provider* walk (retrieval, Figure 9e): ends as soon as one response
  carries a provider record;
- *peer-record* walk (peer discovery): ends when the record is found.

Peers that fail to answer within the RPC timeout are marked failed and
evicted from the routing table; their dial timeouts (5 s TCP/QUIC, 45 s
WebSocket) are what drags the publication walk out to tens of seconds
on a network where 45.5 % of advertised peers are unreachable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.dht import rpc
from repro.dht.keyspace import key_for_cid, key_for_peer, key_int_for_peer
from repro.multiformats.cid import Cid
from repro.multiformats.peerid import PeerId
from repro.simnet.sim import Future, TimeoutError_, with_timeout
from repro.utils.retry import retry

if TYPE_CHECKING:
    from repro.dht.dht_node import DhtNode

#: Lookup concurrency (α) from the original Kademlia paper.
ALPHA = 3
#: per-query timeout of a walk hop and of the small record stores.
RPC_TIMEOUT_S = 10.0
#: a walk stops launching new queries after this many.
MAX_RPCS = 150
#: go-libp2p keeps a dial queue ahead of the query slots: candidate
#: connections are opened in the background so dial failures prune
#: the shortlist without blocking one of the α query slots.
DIAL_AHEAD = 3


@dataclass(frozen=True)
class LookupConfig:
    """Tunables of the iterative walk (the ablation benches vary α)."""

    alpha: int = ALPHA
    k: int = 20
    #: replication factor for record *stores* only (provide /
    #: put_value / peer records). ``None`` keeps the paper's k = 20;
    #: a larger value is the hydra-style extra-replication defense —
    #: records land on more peers than a Sybil ring can occupy, at the
    #: cost of a longer store walk. Lookups always use ``k``.
    store_k: int | None = None


@dataclass
class LookupStats:
    """What one walk did (reported by the perf experiment)."""

    rpcs_sent: int = 0
    rpcs_ok: int = 0
    rpcs_failed: int = 0
    peers_discovered: int = 0
    hops: int = 0
    exhausted: bool = False
    #: candidates refused because their circuit breaker was open.
    skipped_breaker: int = 0
    #: hedged duplicates fired / races the hedge won / races it lost.
    hedges_launched: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0


@dataclass(slots=True)
class _Candidate:
    peer_id: PeerId
    distance: int
    depth: int
    # new | inflight | ok | failed | skipped (breaker open) |
    # cancelled (lost a hedge race; not a failure, not a success)
    state: str = "new"


class _Walk:
    """Shared machinery for all three walk kinds."""

    def __init__(
        self,
        node: "DhtNode",
        target_key: bytes,
        kind: str = "closest",
        k: int | None = None,
    ) -> None:
        self.node = node
        self.config = node.config
        self.res = node.resilience
        self.kind = kind
        #: result-set size; ``config.k`` unless the caller overrides it
        #: (the store-replication defense widens closest-peers walks).
        self.k = k if k is not None else self.config.k
        self.target_key = target_key
        self.target_int = int.from_bytes(target_key, "big")
        self.stats = LookupStats()
        self.candidates: dict[PeerId, _Candidate] = {}
        #: every candidate, nearest first (distances are distinct), and
        #: their distances in the same order, which the insert bisects
        self._by_distance: list[_Candidate] = []
        self._distances: list[int] = []
        self._own_key_int = node.routing_table.own_key_int
        #: launch tag -> ``[peer, settled RPC future or None]``, in
        #: launch order
        self.inflight: dict[int, list] = {}
        self._next_tag = 0
        self._dialing: set[PeerId] = set()
        # Hedging state (all dormant unless res.enabled): tags whose
        # hedge timer fired and await a duplicate launch, extra launch
        # budget those grants, original<->hedge tag pairs, which tags
        # are hedge copies, and the future the walk loop sleeps on while
        # it waits: an RPC settling or a hedge timer firing resolves it.
        self._pending_hedges: list[int] = []
        self._hedge_slots = 0
        self._partner: dict[int, int] = {}
        self._hedge_tags: set[int] = set()
        self._wake: Future | None = None
        self._finished = False
        # Seed with a full bucket's worth of candidates even when the
        # walk only needs the k closest (a k=1 walk seeded with one
        # possibly-dead peer would abort instantly).
        seeds = node.routing_table.closest(target_key, max(self.k, 20))
        for peer_id in seeds:
            self._add_candidate(peer_id, depth=0)

    def _add_candidate(self, peer_id: PeerId, depth: int) -> None:
        if peer_id in self.candidates:
            return
        key_int = key_int_for_peer(peer_id)
        if key_int == self._own_key_int:
            return  # the walker itself
        distance = key_int ^ self.target_int
        candidate = self.candidates[peer_id] = _Candidate(peer_id, distance, depth)
        position = bisect_right(self._distances, distance)
        self._distances.insert(position, distance)
        self._by_distance.insert(position, candidate)
        self.stats.peers_discovered += 1

    def _sorted_live(self) -> list[_Candidate]:
        return [
            c for c in self._by_distance if c.state in ("new", "inflight", "ok")
        ]

    def _launch(
        self,
        candidate: _Candidate,
        method: str,
        request: Any,
        size: int,
        as_hedge: bool = False,
    ) -> None:
        candidate.state = "inflight"
        network = self.node.network
        res = self.res
        sim = self.node.sim
        tag = self._next_tag
        self._next_tag += 1
        region = None
        if res.enabled:
            remote = network.host(candidate.peer_id)
            region = remote.region if remote is not None else None
        hop_span = None
        if network.tracer.enabled:
            hop_span = network.tracer.start_span(
                "dht.walk.hop", peer=str(candidate.peer_id),
                depth=candidate.depth,
            )

        def attempt(attempt_index: int) -> Future:
            self.stats.rpcs_sent += 1
            timeout_s = RPC_TIMEOUT_S
            if res.enabled:
                timeout_s = res.rpc_deadline_s(region, timeout_s)
            wrapped = with_timeout(
                sim,
                network.rpc(
                    self.node.host, candidate.peer_id, method, request,
                    request_size=size,
                ),
                timeout_s,
            )
            if res.enabled:
                started = sim.now

                def observe(settled: Future) -> None:
                    if not settled.failed:
                        res.observe_rtt(region, sim.now - started)

                wrapped.add_callback(observe)
            return wrapped

        policy = res.hop_policy
        if policy.enabled:
            def on_retry(attempt_index: int, error: BaseException) -> None:
                network.stats.retries_attempted += 1
                if isinstance(error, TimeoutError_):
                    network.stats.rpcs_timed_out += 1

            future = self.node.sim.spawn(
                retry(
                    self.node.sim,
                    self.node.retry_jitter.for_peer(candidate.peer_id),
                    policy, attempt, on_retry,
                    # Adaptive mode keeps the whole retried hop inside
                    # the fixed budget one un-retried hop used to get.
                    deadline_s=RPC_TIMEOUT_S if res.enabled else None,
                )
            ).future
        else:
            future = attempt(1)
        entry = [candidate.peer_id, None]

        if as_hedge:
            original = self._pending_hedges.pop(0)
            self._partner[original] = tag
            self._partner[tag] = original
            self._hedge_tags.add(tag)
            self.stats.hedges_launched += 1
            res.count_hedge_launched()
        elif res.enabled:
            delay = res.hedge_delay_s(region)

            def maybe_hedge() -> None:
                # Only hedge queries still unanswered after the delay.
                if self._finished or tag not in self.inflight:
                    return
                if tag in self._partner or tag in self._pending_hedges:
                    return
                self._hedge_slots += 1
                self._pending_hedges.append(tag)
                if self._wake is not None:
                    self._wake.resolve(None)

            sim.schedule(delay, maybe_hedge)

        def settle(inner: Future) -> None:
            if hop_span is not None:
                if inner.failed:
                    hop_span.end(status="error",
                                 error=type(inner.exception()).__name__)
                else:
                    hop_span.end()
            entry[1] = inner
            # a cancelled hedge loser left `inflight`: it wakes no one
            if self._wake is not None and tag in self.inflight:
                self._wake.resolve()

        future.add_callback(settle)
        self.inflight[tag] = entry

    def _dial_ahead(self, live: list[_Candidate]) -> None:
        """Pre-dial the next closest candidates in the background.

        A failed background dial marks the candidate failed (and evicts
        it from the routing table) without occupying a query slot —
        go-libp2p's dial-queue behaviour.
        """
        budget = DIAL_AHEAD - len(self._dialing)
        if budget <= 0:
            return
        for candidate in live:
            if budget <= 0:
                break
            if candidate.state != "new" or candidate.peer_id in self._dialing:
                continue
            if self.res.enabled and self.res.is_open(candidate.peer_id):
                continue
            if self.node.host.is_connected(candidate.peer_id):
                continue
            self._dialing.add(candidate.peer_id)
            budget -= 1

            def on_dialed(future: Future, peer_id=candidate.peer_id) -> None:
                self._dialing.discard(peer_id)
                target = self.candidates.get(peer_id)
                if future.failed and target is not None and target.state == "new":
                    target.state = "failed"
                    self.node.routing_table.record_failure(peer_id)
                    self.res.record_failure(peer_id)

            self.node.network.dial(self.node.host, candidate.peer_id).add_callback(
                on_dialed
            )

    def _first_settled(self) -> tuple[int, Future] | None:
        """``(tag, RPC future)`` of the earliest launched query that has
        settled, or None: replies that settle together are taken in
        launch order."""
        for tag, (_, inner) in self.inflight.items():
            if inner is not None:
                return tag, inner
        return None

    def run(
        self,
        make_request: Callable[[], tuple[str, Any, int]],
        handle_response: Callable[[PeerId, Any], bool],
        want_closest: bool,
    ) -> Generator:
        """Drive the walk; ``handle_response`` returns True to finish.

        Returns the sorted list of successfully-queried closest peers
        (meaningful for the closest-peers walk). When tracing is on the
        whole walk is one ``dht.walk`` span with a ``dht.walk.hop``
        child per queried candidate.
        """
        tracer = self.node.network.tracer
        if not tracer.enabled:
            try:
                return (yield from self._run(make_request, handle_response, want_closest))
            finally:
                self._finished = True
        with tracer.span("dht.walk", kind=self.kind) as span:
            try:
                return (yield from self._run(make_request, handle_response, want_closest))
            finally:
                self._finished = True
                span.set_attrs(
                    rpcs=self.stats.rpcs_sent, ok=self.stats.rpcs_ok,
                    failed=self.stats.rpcs_failed, hops=self.stats.hops,
                    exhausted=self.stats.exhausted,
                )

    def _run(
        self,
        make_request: Callable[[], tuple[str, Any, int]],
        handle_response: Callable[[PeerId, Any], bool],
        want_closest: bool,
    ) -> Generator:
        config = self.config
        res = self.res
        while True:
            live = self._sorted_live()
            if want_closest:
                top = live[: self.k]
                if top and all(c.state == "ok" for c in top):
                    return [c.peer_id for c in top]
            # Launch new RPCs from the closest unqueried candidates.
            budget_left = self.stats.rpcs_sent < MAX_RPCS
            if budget_left:
                for candidate in live:
                    if len(self.inflight) >= config.alpha + self._hedge_slots:
                        break
                    if candidate.state != "new":
                        continue
                    if res.enabled and not res.allow(candidate.peer_id):
                        candidate.state = "skipped"
                        self.stats.skipped_breaker += 1
                        continue
                    method, request, size = make_request()
                    self._launch(
                        candidate, method, request, size,
                        as_hedge=bool(self._pending_hedges),
                    )
                self._dial_ahead(live)
            if not self.inflight:
                # Exhausted: nothing in flight and nothing new to ask.
                self.stats.exhausted = True
                done = [c for c in self._sorted_live() if c.state == "ok"]
                return [c.peer_id for c in done[: self.k]]
            settled = self._first_settled()
            if settled is None:
                # Sleep until an RPC settles or a hedge timer fires (so
                # the duplicate launches at once, not on the next reply).
                self._wake = Future()
                yield self._wake
                self._wake = None
                settled = self._first_settled()
                if settled is None:
                    continue  # a hedge timer fired; go launch the duplicate
            tag, inner = settled
            peer_id, _ = self.inflight.pop(tag)
            candidate = self.candidates[peer_id]
            if tag in self._pending_hedges:
                # Settled before its duplicate launched: hedge is moot.
                self._pending_hedges.remove(tag)
                self._hedge_slots -= 1
            partner = self._partner.pop(tag, None)
            if partner is not None:
                self._partner.pop(partner, None)
                self._hedge_slots -= 1
                if not inner.failed and partner in self.inflight:
                    # First success of a hedged pair: cancel the loser.
                    # Its RPC keeps running (cannot be recalled) but its
                    # outcome is ignored — and never charged as a
                    # failure against routing table or breaker.
                    loser_peer, _ = self.inflight.pop(partner)
                    loser = self.candidates[loser_peer]
                    if loser.state == "inflight":
                        loser.state = "cancelled"
                    if tag in self._hedge_tags:
                        self.stats.hedge_wins += 1
                        res.count_hedge_win()
                    else:
                        self.stats.hedge_losses += 1
                        res.count_hedge_loss()
            self._hedge_tags.discard(tag)
            if inner.failed:
                candidate.state = "failed"
                self.stats.rpcs_failed += 1
                if isinstance(inner.exception(), TimeoutError_):
                    self.node.network.stats.rpcs_timed_out += 1
                self.node.routing_table.record_failure(peer_id)
                res.record_failure(peer_id)
                continue
            response = inner.result()
            if response is None:
                # A malformed (fault-injected) reply: the peer answered
                # garbage, which is a failure, not a success.
                candidate.state = "failed"
                self.stats.rpcs_failed += 1
                self.node.routing_table.record_failure(peer_id)
                res.record_failure(peer_id)
                continue
            candidate.state = "ok"
            self.stats.rpcs_ok += 1
            self.stats.hops = max(self.stats.hops, candidate.depth + 1)
            self.node.routing_table.add(peer_id)
            self.node.routing_table.record_success(peer_id)
            res.record_success(peer_id)
            for closer in getattr(response, "closer_peers", ()):
                self._add_candidate(closer, candidate.depth + 1)
            if handle_response(peer_id, response):
                return [c.peer_id for c in self._sorted_live() if c.state == "ok"]


def get_closest_peers(
    node: "DhtNode", target_key: bytes, k: int | None = None
) -> Generator:
    """The closest-peers walk; returns ``(peers, stats)``.

    ``k`` overrides the result-set size (defaults to ``config.k``);
    the store paths pass ``config.store_k`` for extra replication.
    """
    walk = _Walk(node, target_key, kind="closest", k=k)

    def make_request() -> tuple[str, Any, int]:
        return rpc.FIND_NODE, rpc.FindNodeRequest(target_key), 64

    peers = yield from walk.run(make_request, lambda pid, resp: False, want_closest=True)
    return peers, walk.stats


def find_providers(node: "DhtNode", cid: Cid, max_providers: int = 1) -> Generator:
    """The provider walk; returns ``(provider_records, stats)``."""
    key = key_for_cid(cid)
    walk = _Walk(node, key, kind="providers")
    found: list = []
    seen_providers: set[PeerId] = set()

    def make_request() -> tuple[str, Any, int]:
        return rpc.GET_PROVIDERS, rpc.GetProvidersRequest(key, cid), 64

    def handle_response(peer_id: PeerId, response: Any) -> bool:
        for record in getattr(response, "providers", ()):
            if record.provider not in seen_providers:
                seen_providers.add(record.provider)
                found.append(record)
        for peer_record in getattr(response, "provider_addresses", ()):
            node.address_hints[peer_record.peer_id] = peer_record
        return len(found) >= max_providers

    yield from walk.run(make_request, handle_response, want_closest=False)
    return found, walk.stats


def find_peer_record(node: "DhtNode", peer_id: PeerId) -> Generator:
    """The peer-record walk; returns ``(record_or_None, stats)``."""
    key = key_for_peer(peer_id)
    walk = _Walk(node, key, kind="peer_record")
    box: list = []

    def make_request() -> tuple[str, Any, int]:
        return rpc.GET_PEER_RECORD, rpc.GetPeerRecordRequest(key, peer_id), 64

    def handle_response(responder: PeerId, response: Any) -> bool:
        record = getattr(response, "record", None)
        if record is not None:
            box.append(record)
            return True
        return False

    yield from walk.run(make_request, handle_response, want_closest=False)
    return (box[0] if box else None), walk.stats


def find_value(node: "DhtNode", key: bytes) -> Generator:
    """Walk for an opaque stored value; returns ``(value_or_None, stats)``.

    Terminates on the first response carrying a value (go-ipfs applies
    a quorum for IPNS; we return the freshest record the caller's
    validator picks among what a quorum-of-one finds, which preserves
    the resolution path's latency shape).
    """
    walk = _Walk(node, key, kind="value")
    box: list = []

    def make_request() -> tuple[str, Any, int]:
        return rpc.GET_VALUE, rpc.GetValueRequest(key), 64

    def handle_response(responder: PeerId, response: Any) -> bool:
        value = getattr(response, "value", None)
        if value is not None:
            box.append(value)
            return True
        return False

    yield from walk.run(make_request, handle_response, want_closest=False)
    return (box[0] if box else None), walk.stats
