"""The DHT crawler.

One crawl performs a breadth-first sweep of the DHT-server graph: dial
each discovered peer and, when reachable, enumerate its k-buckets with
bucket-targeted FIND_NODE queries (a key engineered to share exactly
``i`` leading bits with the remote's key lands in its bucket ``i``).
The crawl ends when no query returns a previously-unseen peer — the
procedure of Section 4.1 ("recursively asks peers in the network for
all entries in their k-buckets ... until it finds no new entries").
"""

from __future__ import annotations

import random
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.dht import rpc
from repro.dht.keyspace import KEY_BITS, key_for_peer
from repro.multiformats.peerid import PeerId
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Future, Simulator, all_of, with_timeout


@dataclass
class CrawlResult:
    """What one crawl saw."""

    started_at: float
    finished_at: float = 0.0
    dialable: set[PeerId] = field(default_factory=set)
    undialable: set[PeerId] = field(default_factory=set)
    #: peer -> agent version string (collected post-2021-09-24 upgrade)
    agent_versions: dict[PeerId, str] = field(default_factory=dict)
    rpcs_sent: int = 0

    @property
    def peers_seen(self) -> set[PeerId]:
        return self.dialable | self.undialable

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def dialable_fraction(self) -> float:
        # A crawl visits each peer once, so the two sets are disjoint
        # and their sizes add up to the number of peers seen.
        total = len(self.dialable) + len(self.undialable)
        return len(self.dialable) / total if total else 0.0


def bucket_probe_key(remote_key: bytes, bucket: int, rng: random.Random) -> bytes:
    """A key sharing exactly ``bucket`` leading bits with ``remote_key``.

    FIND_NODE for this key makes the remote answer from its bucket
    ``bucket`` (plus neighbours), which is how Nebula dumps k-buckets
    without a dedicated RPC.
    """
    if not 0 <= bucket < KEY_BITS:
        raise ValueError(f"bucket out of range: {bucket}")
    remote_int = int.from_bytes(remote_key, "big")
    rand_bits = rng.getrandbits(KEY_BITS)
    keep = KEY_BITS - bucket  # bits of remote to keep (from the top)
    mask_top = ((1 << bucket) - 1) << keep
    flip = 1 << (keep - 1)
    probe = (remote_int & mask_top) | (rand_bits & (flip - 1)) | (
        (remote_int & flip) ^ flip
    )
    return probe.to_bytes(KEY_BITS // 8, "big")


class Crawler:
    """Runs crawls from a dedicated host (the paper's German server)."""

    def __init__(
        self,
        sim: Simulator,
        network: SimNetwork,
        host: SimHost,
        rng: random.Random,
        bucket_queries: int = 16,
        rpc_timeout_s: float = 8.0,
        concurrency: int = 64,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.rng = rng
        self.bucket_queries = bucket_queries
        self.rpc_timeout_s = rpc_timeout_s
        self.concurrency = concurrency

    def crawl(self, bootstrap: list[PeerId]) -> Generator:
        """One full sweep; returns a :class:`CrawlResult`."""
        result = CrawlResult(started_at=self.sim.now)
        frontier: list[PeerId] = list(dict.fromkeys(bootstrap))
        queued: set[PeerId] = set(frontier)
        # Finished visits queue up in `done` in completion order and
        # resolve the one future the loop sleeps on, so a completion
        # costs O(1) however many visits are in flight.
        done: list[Future] = []
        wake: Future | None = None
        inflight = 0

        def visit_done(visit: Future) -> None:
            done.append(visit)
            if wake is not None:
                wake.resolve()

        while frontier or inflight:
            while frontier and inflight < self.concurrency:
                inflight += 1
                process = self.sim.spawn(self._visit(frontier.pop(), result))
                process.future.add_callback(visit_done)
            if not done:
                wake = Future()
                yield wake
                wake = None
            for visit in done:
                discovered = [] if visit.failed else visit.result()
                for found in discovered:
                    if found not in queued and found != self.host.peer_id:
                        queued.add(found)
                        frontier.append(found)
            inflight -= len(done)
            done.clear()
        result.finished_at = self.sim.now
        return result

    def _visit(self, peer_id: PeerId, result: CrawlResult) -> Generator:
        """Dial one peer and dump its buckets; returns found PeerIds."""
        try:
            # The crawler measures raw dialability: no relay or
            # hole-punch upgrades, exactly like the paper's crawler.
            yield self.network.dial(self.host, peer_id, traverse=False)
        except Exception:  # noqa: BLE001 - undialable covers all faults
            result.undialable.add(peer_id)
            return []
        result.dialable.add(peer_id)
        remote = self.network.host(peer_id)
        if remote is not None:
            result.agent_versions[peer_id] = remote.agent_version
        remote_key = key_for_peer(peer_id)
        discovered: list[PeerId] = []
        probes = []
        for bucket in range(self.bucket_queries):
            key = bucket_probe_key(remote_key, bucket, self.rng)
            result.rpcs_sent += 1
            probes.append(
                with_timeout(
                    self.sim,
                    self.network.rpc(
                        self.host, peer_id, rpc.FIND_NODE,
                        rpc.FindNodeRequest(key), request_size=64,
                    ),
                    self.rpc_timeout_s,
                )
            )
        responses = yield all_of(probes)
        for response in responses:
            if isinstance(response, BaseException):
                continue
            discovered.extend(response.closer_peers)
        # Done with this peer; keep the network tidy for the next visit.
        self.network.disconnect(self.host, peer_id)
        return discovered
