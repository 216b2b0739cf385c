"""Compact worlds: million-peer scenarios without per-peer object graphs.

``build_scenario`` builds a SimHost, a DhtNode with a filled routing
table, a Bitswap engine and a churn process for every backdrop peer:
kilobytes and tens of microseconds each, fine at the 10-50 k scale of
the per-figure experiments and hopeless at the network's real size.

This module builds the *same world* from columnar state:

- peer attributes stay in the arrays of
  :class:`~repro.workloads.compact.CompactPopulation`;
- routing tables are precomputed as flat position arrays by the same
  per-node kernel :func:`~repro.dht.bootstrap.populate_routing_tables`
  uses (:func:`~repro.dht.bootstrap.sample_table_positions`), walking
  one :class:`~repro.dht.bootstrap.KeyspaceTree` per world and
  sampling each bucket from a window of the sorted server order;
- churn schedules are precomputed per peer into one flat delay array
  (the per-peer streams of :class:`~repro.simnet.churn.SessionProcess`,
  drawn ahead of time instead of lazily — same values, same order);
- objects appear in two stages. A dial needs a host: naming a peer
  (``net.host_resolver``, ``host_at``) builds only the ``SimHost``,
  with all that dials, remote handlers, the prober and the crawler
  read (region, class, transports, NAT flag, online bit,
  ``agent_version``, ``dht_server``). An RPC needs a node: the first
  *delivered* ``dht/…`` RPC attaches the ``DhtNode``, whose table reads
  the stored entries until its first write; the first ``bitswap/…`` one
  the ``BitswapEngine`` (the host's ``attach_protocol`` hook). That is
  exact: constructors schedule and draw nothing, tables come from
  build-time arrays, and only a node's own handlers ever mutate it.

Equivalence is not asserted by analogy but *proved* by the differential
harness in ``tests/simnet/test_compact_equivalence.py``: the same
seeded population built both ways yields identical routing tables,
address books, churn transition logs, and a byte-identical protocol
trace.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from array import array
from functools import partial

from repro.bitswap.engine import BitswapEngine
from repro.blockstore.memory import MemoryBlockstore
from repro.dht.bootstrap import STALE_FRACTION, KeyspaceTree, sample_table_positions
from repro.dht.dht_node import DhtNode
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.errors import SimulationError
from repro.multiformats.peerid import PeerId
from repro.simnet.churn import WORLD_INITIAL_ONLINE_PROBABILITY
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator
from repro.simnet.transport import Transport
from repro.utils.rng import _seed_to_bytes, derive_rng
from repro.workloads.compact import REACHABILITY_NAMES, CompactPopulation

#: Churn schedules are pre-drawn out to this horizon (simulated
#: seconds); runs past it leave hosts frozen in their final state and
#: counted in :attr:`CompactWorld.churn_exhausted`, which the graded
#: campaign refuses. The default covers the 12 h crawls twice over.
DEFAULT_CHURN_HORIZON_S = 24 * 3600.0

_ALL_TRANSPORTS = frozenset({Transport.TCP, Transport.QUIC, Transport.WEBSOCKET})
_WS_ONLY = frozenset({Transport.WEBSOCKET})

_REACH_CHURNING = REACHABILITY_NAMES.index("churning")
_REACH_RELIABLE = REACHABILITY_NAMES.index("reliable")
_REACH_NEVER = REACHABILITY_NAMES.index("never")

#: The network runs six canonical bootstrap peers (Section 4.1).
N_BOOTSTRAP = 6


# -- per-peer precompute ------------------------------------------------


def _peer_keys(n: int) -> tuple[list[bytes], list[int]]:
    """PeerID digests and DHT key ints for peers ``0..n`` by formula.

    ``PeerId.from_public_key(b"population-peer-%d" % i)`` is sha256 of
    the key material. Computing it directly skips the PeerId objects
    entirely.
    """
    sha = hashlib.sha256
    digests = [sha(b"population-peer-%d" % index).digest() for index in range(n)]
    return digests, _dht_key_ints(digests)


def _dht_key_ints(digests) -> list[int]:
    """DHT key ints for sha256 PeerID digests: sha256 of the multihash
    encoding (``\\x12\\x20`` + digest), as ``PeerId.dht_key_int``."""
    sha = hashlib.sha256
    return [
        int.from_bytes(sha(b"\x12\x20" + digest).digest(), "big")
        for digest in digests
    ]


def _churn_schedules(
    compact: CompactPopulation,
    seed: int,
    horizon_s: float,
) -> tuple[bytearray, array, array]:
    """Initial online flags, per-peer ``[off, off+1)`` slices and the
    pre-drawn transition delays they index, for every peer.

    Replays :class:`~repro.simnet.churn.SessionProcess` exactly: the
    initial draw, then alternating session/gap samples from the same
    per-peer derived stream. Delays are stored *raw* (not accumulated):
    the churn callback schedules ``delay`` so event times come out of
    the same ``now + delay`` float accumulation ``SessionProcess``'s
    callbacks produce, bit for bit.

    The replay's stdlib calls are written out as the draws they make,
    so no ``random.py`` frame is entered per draw
    (``tests/workloads/test_spelled_draws.py`` holds the spelling, and
    a loop making the calls, to the running interpreter):

    - ``derive_rng(seed, "churn", str(index))`` hashes its constant
      ``seed``/``"churn"`` prefix once per world, then per peer only the
      index, and re-seeds one generator with the result;
    - ``model.sample_session_length(rng)`` / ``sample_gap_length(rng)``
      — ``rng.lognormvariate(log(median), sigma)``, which is
      ``exp(rng.normalvariate(...))`` — is the Kinderman–Monahan loop
      inline, with ``log(median)`` taken once per country's model;
    - a model whose median session is infinite (``SessionProcess``
      holds such a host online and draws nothing more) has no
      parameters, so its peer is handled like a reliable one.
    """
    # Per country code: the lognormvariate arguments (mu, sigma) of a
    # session, then of a gap; None for a model that never ends a session.
    params = [
        None if math.isinf(model.median_session_s) else (
            math.log(model.median_session_s), model.session_sigma,
            math.log(model.median_gap_s), model.gap_sigma,
        )
        for model in compact.churn_models()
    ]
    prefix = hashlib.sha256(_seed_to_bytes(seed) + b"/churn").digest() + b"/"
    # One generator for the world, re-seeded per peer: for an int,
    # ``Random(x)`` and ``Random.seed`` only forward to the C seed
    # (and clear the ``gauss`` cache, which nothing here reads).
    rng = random.Random()
    reseed, rnd = super(random.Random, rng).seed, rng.random
    sha256, log, exp = hashlib.sha256, math.log, math.exp
    magic = random.NV_MAGICCONST
    online = bytearray(len(compact))
    off = array("Q", [0])
    delays = array("d")
    append = delays.append
    reach = compact.peer_reach
    country = compact.peer_country
    for index in range(len(compact)):
        draws = params[country[index]] if reach[index] == _REACH_CHURNING else None
        if draws is None:
            online[index] = reach[index] != _REACH_NEVER
            off.append(len(delays))
            continue
        session_mu, session_sigma, gap_mu, gap_sigma = draws
        # derive_rng(seed, "churn", str(index))
        reseed(int.from_bytes(sha256(prefix + b"%d" % index).digest()[:8], "big"))
        state = rnd() < WORLD_INITIAL_ONLINE_PROBABILITY
        online[index] = state
        elapsed = 0.0
        # One overshoot draw past the horizon: every transition a run
        # bounded by the horizon can execute exists, scheduled exactly
        # when SessionProcess would schedule it.
        while elapsed <= horizon_s:
            # rng.normalvariate(0, 1): Kinderman–Monahan.
            while True:
                u1 = rnd()
                u2 = 1.0 - rnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            # rng.lognormvariate(mu, sigma) is exp(mu + z * sigma)
            if state:
                delay = exp(session_mu + z * session_sigma)
            else:
                delay = exp(gap_mu + z * gap_sigma)
            append(delay)
            elapsed += delay
            state = not state
        off.append(len(delays))
    return online, off, delays


class CompactWorld:
    """A lazily-materialized scenario over a :class:`CompactPopulation`.

    Duck-compatible with :class:`~repro.experiments.scenario.Scenario`
    for the crawl/churn experiment stack (``sim``, ``net``,
    ``bootstrap_ids``, ``country_of``); hosts appear on demand via the
    network's resolver hook.
    """

    def __init__(
        self,
        compact: CompactPopulation,
        config,
        sim: Simulator,
        net: SimNetwork,
    ) -> None:
        self.compact = compact
        self.config = config
        self.seed = config.seed
        self.nat_peers_in_dht = config.nat_peers_in_dht
        self.sim = sim
        self.net = net
        self.n = len(compact)
        self.bootstrap_ids: list[PeerId] = []
        #: materialized state, keyed by peer index / PeerId
        self._hosts: dict[int, SimHost] = {}
        self.nodes: dict[PeerId, DhtNode] = {}
        self.engines: dict[PeerId, BitswapEngine] = {}
        self.materialized = 0
        #: churning peers whose pre-drawn schedule ran out (only
        #: possible when a run outlives the build's churn horizon)
        self.churn_exhausted = 0
        # columnar world state, filled in by build_compact_world
        self._ws = bytearray(self.n)          # WebSocket-only transport flag
        self._online = bytearray(self.n)      # current online state
        self._index: dict[bytes, int] = {}    # PeerID digest -> peer index
        self._server_order = array("i")       # table position -> peer index
        self._table_entries = array("i")      # concatenated table positions
        self._table_off = array("Q", [0])     # per-peer [off, off+1) slices
        self._churn_delays = array("d")       # concatenated raw delays
        self._churn_off = array("Q", [0])
        self._churn_cursor = array("Q")
        # what every attached table's view reads (see `_table_view`)
        self._view_args: tuple | None = None

    def __len__(self) -> int:
        return self.n

    # -- identity ------------------------------------------------------

    def peer_id_at(self, index: int) -> PeerId:
        return self.compact.peer_id_at(index)

    def index_of(self, peer_id: PeerId) -> int | None:
        return self._index.get(peer_id.multihash.digest)

    def country_of(self, peer_id: PeerId) -> str:
        index = self.index_of(peer_id)
        return self.compact.country_at(index) if index is not None else "??"

    def online_at(self, index: int) -> bool:
        return bool(self._online[index])

    def is_materialized(self, index: int) -> bool:
        return self.peer_id_at(index) in self.nodes

    # -- lazy materialization ------------------------------------------

    def host_at(self, index: int) -> SimHost:
        """Stage 1: the bare host, carrying every fact a dial, a remote
        ``_learn_about``, the prober and the crawler read; the protocol
        stack waits for the first delivered RPC (:meth:`_attach`)."""
        host = self._hosts.get(index)
        if host is None:
            compact = self.compact
            reach = compact.peer_reach[index]
            host = SimHost(
                compact.peer_id_at(index),
                region=compact.region_at(index),
                peer_class=compact.peer_class_at(index),
                transports=_WS_ONLY if self._ws[index] else _ALL_TRANSPORTS,
                nat_private=reach == _REACH_NEVER,
                online=bool(self._online[index]),
            )
            host.agent_version = compact.agent_at(index)
            host.dht_server = self.nat_peers_in_dht or reach != _REACH_NEVER
            host.attach_protocol = partial(self._attach, index)
            self.net.register(host)
            self._hosts[index] = host
        return host

    def node_at(self, index: int) -> DhtNode:
        """Stage 2, ``dht/…``: the node and its routing table, a view of
        the stored entries until the node's first write to it."""
        peer_id = self.peer_id_at(index)
        node = self.nodes.get(peer_id)
        if node is None:
            host = self.host_at(index)
            node = DhtNode(
                self.sim, self.net, host,
                partial(derive_rng, self.seed, "dht", str(index)),
                server=host.dht_server,
            )
            # The precomputed fill: the entries, in the insertion
            # (= LRU) order, populate_routing_tables loads into an
            # object world; never our own id, at most K_BUCKET_SIZE per
            # bucket, which is what `view` (and `load`) require.
            node.routing_table.view(self._table_indices(index), *self._table_view())
            self.nodes[peer_id] = node
            self.materialized += 1
        return node

    def engine_at(self, index: int) -> BitswapEngine:
        """Stage 2, ``bitswap/…``: an engine over an empty store."""
        peer_id = self.peer_id_at(index)
        engine = self.engines.get(peer_id)
        if engine is None:
            engine = self.engines[peer_id] = BitswapEngine(
                self.sim, self.net, self.host_at(index), MemoryBlockstore()
            )
        return engine

    def _attach(self, index: int, method: str) -> None:
        """``SimHost.attach_protocol``: build the stack ``method`` speaks."""
        if method.startswith("dht/"):
            self.node_at(index)
        elif method.startswith("bitswap/"):
            self.engine_at(index)

    def materialize_all(self) -> None:
        """Force the full object world (small-n differential tests)."""
        for index in range(self.n):
            self.node_at(index)
            self.engine_at(index)

    def _table_view(self):
        """Every peer's DHT key int and the indices -> ``PeerId``s
        lookup, shared by every table view; derived on the first attach
        (``build`` attaches nothing, so it keeps no key ints)."""
        if self._view_args is None:
            # `_index` was filled in peer-index order
            self._view_args = (_dht_key_ints(self._index), self.compact.peer_ids_at)
        return self._view_args

    def _table_indices(self, index: int) -> array:
        """Peer ``index``'s routing-table entries as peer indices, in
        insertion order."""
        off = self._table_off
        entries = self._table_entries[off[index]:off[index + 1]]
        return array("i", map(self._server_order.__getitem__, entries))

    def table_peer_ids(self, index: int) -> list[PeerId]:
        """Peer ``index``'s routing-table entries, in insertion order,
        without materializing the node."""
        return self.compact.peer_ids_at(self._table_indices(index))

    def _resolve(self, peer_id: PeerId) -> SimHost | None:
        index = self._index.get(peer_id.multihash.digest)
        return None if index is None else self.host_at(index)

    # -- churn ---------------------------------------------------------

    def _start_churn(self) -> None:
        """Schedule every churning peer's first transition, in peer
        order — the same schedule-call order ``build_scenario``'s
        SessionProcess constructions make, so sequence numbers match."""
        schedule = self.sim.schedule
        off = self._churn_off
        delays = self._churn_delays
        fire = self._churn_fire
        for index in range(self.n):
            lo = off[index]
            if off[index + 1] == lo:
                continue
            schedule(delays[lo], partial(fire, index))

    def _churn_fire(self, index: int) -> None:
        # Transitions strictly alternate from the initial state, so the
        # flip needs no parity bookkeeping.
        self._set_online(index, not self._online[index])
        cursor = self._churn_cursor[index] + 1
        self._churn_cursor[index] = cursor
        if cursor < self._churn_off[index + 1]:
            self.sim.schedule(
                self._churn_delays[cursor], partial(self._churn_fire, index)
            )
        else:
            self.churn_exhausted += 1

    def _set_online(self, index: int, online: bool) -> None:
        self._online[index] = 1 if online else 0
        host = self._hosts.get(index)
        if host is not None:
            host.set_online(online)

    # -- routing-table precompute --------------------------------------

    def _fill_tables(self, rng: random.Random, key_ints: list[int]) -> None:
        """Every peer's routing table as positions into the sorted
        server order: :func:`~repro.dht.bootstrap.sample_table_positions`
        per peer (``key_ints[i]`` is peer ``i``'s DHT key) over one
        shared tree, dropped on return, appended to one flat array."""
        reach = self.compact.peer_reach
        in_dht = self.nat_peers_in_dht
        order = sorted(
            (i for i in range(self.n) if in_dht or reach[i] != _REACH_NEVER),
            key=key_ints.__getitem__,
        )
        keys = [key_ints[i] for i in order]
        online = self._online
        live: list[int] = []
        stale: list[int] = []
        for pos, index in enumerate(order):
            (live if online[index] else stale).append(pos)

        entries = self._table_entries
        off = self._table_off
        max_stale = int(K_BUCKET_SIZE * STALE_FRACTION)
        tree = KeyspaceTree(keys, live, stale)
        for own_int in key_ints:
            sample_table_positions(
                entries, own_int, tree, K_BUCKET_SIZE, max_stale, rng
            )
            off.append(len(entries))
        self._server_order = array("i", order)

    # -- accounting ----------------------------------------------------

    def memory_breakdown(self) -> dict[str, int]:
        """Approximate resident bytes per component (bench telemetry)."""
        digest_bytes = sys.getsizeof(b"\x00" * 32) + 28  # key + int value
        return {
            "population": self.compact.nbytes(),
            "tables": self._table_entries.itemsize * len(self._table_entries)
            + self._table_off.itemsize * len(self._table_off)
            + self._server_order.itemsize * len(self._server_order),
            "churn": self._churn_delays.itemsize * len(self._churn_delays)
            + self._churn_off.itemsize * len(self._churn_off)
            + self._churn_cursor.itemsize * len(self._churn_cursor),
            "flags": len(self._ws) + len(self._online),
            "peer_index": sys.getsizeof(self._index)
            + digest_bytes * len(self._index),
        }

    def nbytes(self) -> int:
        """Approximate bytes held by the compact world state."""
        return sum(self.memory_breakdown().values())


def build_compact_world(
    compact: CompactPopulation,
    config,
    *,
    churn_horizon_s: float = DEFAULT_CHURN_HORIZON_S,
) -> CompactWorld:
    """Build the scenario ``build_scenario`` would build, compactly.

    ``config`` is a :class:`~repro.experiments.scenario.ScenarioConfig`
    (NAT worlds are not supported compactly yet — build those with
    ``build_scenario``).
    """
    if config.nat_world is not None:
        raise SimulationError("compact worlds do not support NAT worlds yet")

    n = len(compact)
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(config.seed, "net"))
    world = CompactWorld(compact, config, sim, net)

    # The per-peer transport draw: one uniform per peer from the shared
    # "scenario" stream, in peer order — exactly build_scenario's loop.
    scenario_rng = derive_rng(config.seed, "scenario")
    draw = scenario_rng.random
    ws = world._ws
    for index in range(n):
        if draw() < 0.05:
            ws[index] = 1

    # Identity: PeerID digests + DHT key ints.
    digests, key_ints = _peer_keys(n)
    world._index = {digest: index for index, digest in enumerate(digests)}

    # Churn: initial draws + pre-drawn schedules. The initial draw
    # happens at SessionProcess construction in build_scenario, i.e.
    # *before* table fill — reachability at fill time reflects it.
    if config.with_churn:
        world._online, world._churn_off, world._churn_delays = _churn_schedules(
            compact, config.seed, churn_horizon_s,
        )
    else:
        reach = compact.peer_reach
        for index in range(n):
            world._online[index] = 1 if reach[index] != _REACH_NEVER else 0
        world._churn_off.extend([0] * n)
    world._churn_cursor = array("Q", world._churn_off[:n])
    if config.with_churn:
        world._start_churn()

    # Canonical bootstrap peers: the first reliable peers, as in
    # build_scenario (fall back to the head of the population).
    bootstrap: list[PeerId] = []
    reach = compact.peer_reach
    for index in range(n):
        if reach[index] == _REACH_RELIABLE:
            bootstrap.append(compact.peer_id_at(index))
            if len(bootstrap) == N_BOOTSTRAP:
                break
    if not bootstrap:
        bootstrap = [compact.peer_id_at(i) for i in range(min(n, N_BOOTSTRAP))]
    world.bootstrap_ids = bootstrap

    world._fill_tables(derive_rng(config.seed, "tables"), key_ints)
    net.host_resolver = world._resolve
    return world
