"""Bitswap sessions: multi-block DAG retrieval from known providers.

A session remembers which peers had blocks of the DAG it is fetching
and asks those first — the optimization go-bitswap introduced so that a
single DHT discovery amortizes across a whole file's chunks (cf. de la
Rocha et al., "Accelerating Content Routing with Bitswap").
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.bitswap.engine import BitswapEngine
from repro.errors import RetrievalError
from repro.merkledag.dag import DagNode
from repro.multiformats.cid import Cid
from repro.multiformats.multicodec import CODEC_DAG_PB
from repro.multiformats.peerid import PeerId
from repro.simnet.sim import Future, TimeoutError_, with_timeout
from repro.utils.retry import JitterStreams, retry

if TYPE_CHECKING:
    from repro.resilience import Resilience

#: how long a provider may stay silent on a want before the session
#: re-sends it or moves on.
SILENCE_TIMEOUT_S = 8.0


class BitswapSession:
    """Fetches whole Merkle-DAGs, tracking useful peers.

    Above the ``bare`` rung of the node's ``resilience`` facade the
    session re-broadcasts a want to the same provider after
    :data:`SILENCE_TIMEOUT_S` of no answer (go-bitswap re-sends its
    wantlist on session timeouts) before moving to the next provider;
    on the bare rung (and without a facade) a provider gets exactly one
    chance per block, as the seed behaviour had it.
    """

    def __init__(
        self,
        engine: BitswapEngine,
        providers: list[PeerId],
        resilience: "Resilience | None" = None,
    ) -> None:
        if not providers:
            raise RetrievalError("session needs at least one provider")
        self.engine = engine
        self.providers = list(providers)
        #: the node's :class:`repro.resilience.Resilience`: its rung
        #: picks the re-want schedule, and on the top rung failed
        #: providers feed the breaker and providers with open breakers
        #: are tried last. Block durations are *not* fed to the RTT
        #: estimator (they are bandwidth-bound, which would pollute the
        #: control-plane RTT estimate).
        self.resilience = resilience
        #: per-provider jitter streams so sessions re-wanting after the
        #: same silence window don't back off in lockstep.
        self._jitter = JitterStreams(engine.host.peer_id, "bitswap-jitter")
        self.blocks_fetched = 0
        self.bytes_fetched = 0

    def _silence_timeout(self, peer_id: PeerId) -> float:
        res = self.resilience
        if res is None or not res.enabled:
            return SILENCE_TIMEOUT_S
        remote = self.engine.network.host(peer_id)
        region = remote.region if remote is not None else None
        return res.rpc_deadline_s(region, SILENCE_TIMEOUT_S)

    def _ordered_providers(self) -> list[PeerId]:
        """Session providers, open-breaker peers pushed to the back."""
        providers = list(self.providers)
        res = self.resilience
        if res is not None and res.enabled and len(providers) > 1:
            providers.sort(key=lambda peer_id: res.is_open(peer_id))
        return providers

    def _fetch_from(self, cid: Cid, peer_id: PeerId) -> Generator:
        """Fetch one block from one provider, re-wanting after silence."""
        policy = None if self.resilience is None else self.resilience.want_policy
        if policy is None or not policy.enabled:
            result = yield from self.engine.fetch_block(cid, peer_id)
            return result
        network = self.engine.network

        def attempt(_attempt: int) -> Future:
            process = self.engine.sim.spawn(self.engine.fetch_block(cid, peer_id))
            return with_timeout(
                self.engine.sim, process.future, self._silence_timeout(peer_id)
            )

        def on_retry(_attempt: int, error: BaseException) -> None:
            network.stats.retries_attempted += 1
            if isinstance(error, TimeoutError_):
                network.stats.rpcs_timed_out += 1

        rng = self._jitter.for_peer(peer_id)
        result = yield from retry(self.engine.sim, rng, policy, attempt, on_retry)
        return result

    def _fetch_one(self, cid: Cid) -> Generator:
        """Try each session provider in turn for one block."""
        if self.engine.blockstore.has(cid):
            return self.engine.blockstore.get(cid)
        last_error: Exception | None = None
        res = self.resilience
        for peer_id in self._ordered_providers():
            try:
                result = yield from self._fetch_from(cid, peer_id)
            except Exception as exc:  # noqa: BLE001 - try next provider
                last_error = exc
                if res is not None:
                    res.record_failure(peer_id)
                # Peers that fail stop being preferred for this session.
                if peer_id in self.providers and len(self.providers) > 1:
                    self.providers.remove(peer_id)
                continue
            if res is not None:
                res.record_success(peer_id)
            self.blocks_fetched += 1
            self.bytes_fetched += result.block.size
            return result.block
        raise RetrievalError(f"no session provider could serve {cid}: {last_error}")

    def fetch_one(self, cid: Cid) -> Generator:
        """Fetch a single block (shallow resolution, e.g. one directory
        node during path walking) from the session's providers."""
        return self._fetch_one(cid)

    def fetch_dag(self, root: Cid, window: int = 16) -> Generator:
        """Fetch the complete DAG under ``root`` breadth-first.

        Children of a level are fetched concurrently (``window`` blocks
        in flight), as go-bitswap does once the DAG structure is known.
        Blocks the local store already holds are not re-fetched
        (universal caching from any peer, Section 3.3).
        """
        tracer = self.engine.network.tracer
        if not tracer.enabled:
            return (yield from self._fetch_dag(root, window))
        with tracer.span(
            "bitswap.session", root=str(root), providers=len(self.providers)
        ) as span:
            order = yield from self._fetch_dag(root, window)
            span.set_attrs(blocks=self.blocks_fetched, bytes=self.bytes_fetched)
            return order

    def _fetch_dag(self, root: Cid, window: int) -> Generator:
        from repro.simnet.sim import all_of

        order: list[Cid] = []
        frontier = [root]
        seen: set[Cid] = set()
        while frontier:
            batch = []
            while frontier and len(batch) < window:
                cid = frontier.pop(0)
                if cid not in seen:
                    seen.add(cid)
                    batch.append(cid)
            if not batch:
                continue
            processes = [
                self.engine.sim.spawn(self._fetch_one(cid)) for cid in batch
            ]
            outcomes = yield all_of([process.future for process in processes])
            for cid, outcome in zip(batch, outcomes):
                if isinstance(outcome, BaseException):
                    raise outcome
                order.append(cid)
                if cid.codec == CODEC_DAG_PB:
                    node = DagNode.decode(outcome.data)
                    frontier.extend(link.cid for link in node.links)
        return order
