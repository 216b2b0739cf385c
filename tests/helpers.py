"""Shared test helpers: compact simulated-world builders, the
sub-second shape of the ``figures`` datasets, and the plain references
a world's bucket runs, its churn and the gateway day are held to."""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import groupby
from unittest import mock

from repro.dht.bootstrap import populate_routing_tables
from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import KEY_BITS
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.errors import SimulationError
from repro.experiments import figures
from repro.gateway.gateway import default_upstream_model, node_store_latency
from repro.gateway.logs import CacheTier
from repro.multiformats import multihash
from repro.multiformats.peerid import PeerId
from repro.simnet.churn import ChurnModel
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from repro.workloads.gateway_trace import GatewayRequest


@dataclass
class World:
    """A wired-up simulated network for tests."""

    sim: Simulator
    net: SimNetwork
    nodes: list[DhtNode] = field(default_factory=list)
    rng: random.Random = field(default_factory=lambda: derive_rng(0, "world"))

    def node(self, index: int) -> DhtNode:
        return self.nodes[index]


def build_world(
    n: int = 60,
    seed: int = 1,
    offline_fraction: float = 0.0,
    client_fraction: float = 0.0,
    regions: list[Region] | None = None,
    peer_class: PeerClass = PeerClass.DATACENTER,
    populate: bool = True,
) -> World:
    """Create ``n`` DHT nodes with filled routing tables.

    The first node is always an online server (tests use it as the
    protagonist).
    """
    sim = Simulator()
    rng = derive_rng(seed, "world")
    net = SimNetwork(sim, derive_rng(seed, "net"))
    region_pool = regions if regions is not None else list(Region)
    nodes: list[DhtNode] = []
    for index in range(n):
        peer_id = PeerId.from_public_key(b"world-%d-%d" % (seed, index))
        is_client = index != 0 and rng.random() < client_fraction
        online = index == 0 or rng.random() >= offline_fraction
        host = SimHost(
            peer_id,
            region=rng.choice(region_pool),
            peer_class=peer_class,
            nat_private=is_client,
            online=online,
        )
        net.register(host)
        nodes.append(
            DhtNode(
                sim,
                net,
                host,
                derive_rng(seed, "dht", str(index)),
                server=not is_client,
            )
        )
    world = World(sim, net, nodes, rng)
    if populate:
        populate_routing_tables(nodes, rng)
    return world


def backdrop_node(scenario, index: int) -> DhtNode:
    """Backdrop peer ``index``'s DHT node in a built scenario."""
    return scenario.world.node_at(index)


def materialize_all(world) -> None:
    """Attach every peer's DHT node and Bitswap engine in a compact
    world up front: the eager reference a lazy world must equal."""
    for index in range(world.n):
        world.node_at(index)
        world.engine_at(index)


class SessionProcess:
    """Drives a host's online flag through alternating sessions/gaps,
    one transition at a time on the simulated clock: the churn
    reference a compact world's pre-drawn schedules must equal.

    Starts the host mid-behaviour: with probability
    ``initial_online_probability`` the host begins online; its first
    transition is scheduled from a fresh sample.
    """

    def __init__(
        self,
        sim: Simulator,
        host: SimHost,
        model: ChurnModel,
        rng: random.Random,
        initial_online_probability: float = 0.7,
    ) -> None:
        self._sim = sim
        self._host = host
        self._model = model
        self._rng = rng
        self.sessions_started = 0
        if math.isinf(model.median_session_s):
            host.set_online(True)
            return
        online = rng.random() < initial_online_probability
        host.set_online(online)
        if online:
            self.sessions_started += 1
            self._schedule_offline()
        else:
            self._schedule_online()

    def _schedule_offline(self) -> None:
        delay = self._model.sample_session_length(self._rng)

        def go_offline() -> None:
            self._host.set_online(False)
            self._schedule_online()

        self._sim.schedule(delay, go_offline)

    def _schedule_online(self) -> None:
        delay = self._model.sample_gap_length(self._rng)

        def go_online() -> None:
            self._host.set_online(True)
            self.sessions_started += 1
            self._schedule_offline()

        self._sim.schedule(delay, go_online)


def bucket_runs(
    own_key_int: int,
    keys: Sequence[int],
    entries: Sequence[int],
    lo: int,
    hi: int,
) -> bytes:
    """The bucket runs of the stored entries ``entries[lo:hi]``, by an
    XOR scan of them: the reference the keyspace walk's
    :func:`~repro.dht.bootstrap.table_runs` is held to.

    The entries are ints naming peers, ``keys[e]`` being the DHT key
    int of entry ``e``, stored as a precomputed fill stores them:
    grouped by bucket, each group in least-recently-seen order. The
    result is ``bytes``, the populated bucket indexes in stored order
    followed by each run's length (a bucket holds at most
    ``K_BUCKET_SIZE`` <= 255 entries): with ``lo`` it locates every
    run, so a view over the slice copies nothing. The entries must be
    what replayed ``RoutingTable.add`` calls would keep whole — no
    duplicate, not our own key, at most ``K_BUCKET_SIZE`` per bucket —
    and grouped, or :class:`SimulationError` is raised.
    """
    stored = entries[lo:hi]
    # Each entry's XOR distance length: bucket KEY_BITS - length
    # (length 0 is our own key).
    lengths = list(map(
        int.bit_length, map(own_key_int.__xor__, map(keys.__getitem__, stored))
    ))
    populated = []
    sizes = []
    for length, run in groupby(lengths):
        populated.append(min(KEY_BITS - length, KEY_BITS - 1))
        sizes.append(len(list(run)))
    if (
        len(set(stored)) != len(stored)
        or 0 in lengths
        or len(set(populated)) != len(populated)  # a bucket split in two
        or max(sizes, default=0) > K_BUCKET_SIZE
    ):
        raise SimulationError(
            "a stored fill needs distinct peers other than our own id, "
            f"grouped by bucket, at most {K_BUCKET_SIZE} per bucket"
        )
    return bytes(populated + sizes)


def rng_state_sha256(rng: random.Random) -> str:
    """Digest of a generator's stream position, for literal pins."""
    return hashlib.sha256(repr(rng.getstate()).encode("ascii")).hexdigest()


@contextlib.contextmanager
def counted_digests() -> Iterator[list[int]]:
    """Record the payload size of every sha2-256 multihash digest
    computed inside the block (CID derivation and ``verify`` both go
    through ``multihash._HASHERS``)."""
    name, hasher = multihash._HASHERS[multihash.SHA2_256]
    sizes: list[int] = []

    def counting(data: bytes) -> bytes:
        sizes.append(len(data))
        return hasher(data)

    with mock.patch.dict(multihash._HASHERS, {multihash.SHA2_256: (name, counting)}):
        yield sizes


#: The four datasets of the frozen ``figures`` bench shape, shrunk to
#: well under a second.
TINY_FIGURES = figures.FiguresConfig(
    perf_peers=120, perf_rounds=1, population_peers=800, crawl_peers=40,
    crawl_hours=2.0, gateway_scale=2000,
)


def reference_gateway(
    requests: Iterable[GatewayRequest], capacity_bytes: int, seed: int
) -> list[tuple[CacheTier, float]]:
    """The gateway day served the plain way: ``(tier, latency)`` per
    request from an ``OrderedDict`` LRU in front of the pinned store.

    A hit refreshes recency and costs 0 s; a pinned CID bypasses the
    LRU and draws :func:`node_store_latency`; anything else draws
    :func:`default_upstream_model` and is inserted (an object larger
    than the whole cache is declined), evicting the oldest entries
    while over budget. Each 1800 s window of the day draws from its own
    ``derive_rng(seed, "replay-latency", str(window))`` stream.
    """
    cache: OrderedDict[int, int] = OrderedDict()
    used = 0
    served = []
    window = rng = None
    for request in requests:
        if int(request.timestamp // 1800.0) != window:
            window = int(request.timestamp // 1800.0)
            rng = derive_rng(seed, "replay-latency", str(window))
        cid, size = request.cid_index, request.size
        if cid in cache:
            cache.move_to_end(cid)
            served.append((CacheTier.NGINX, 0.0))
        elif request.pinned:
            served.append((CacheTier.NODE_STORE, node_store_latency(rng)))
        else:
            served.append((CacheTier.NON_CACHED, default_upstream_model(rng)))
            if size <= capacity_bytes:
                cache[cid] = size
                used += size
                while used > capacity_bytes:
                    used -= cache.popitem(last=False)[1]
    return served
