"""The world builder: a seeded population as a simulated network.

:func:`build_compact_world` builds every world the experiments run on
(``build_scenario`` is this builder plus its vantage list) without a
per-peer object graph, from the 10-50 k peers of the per-figure
experiments up to the network's real size:

- peer attributes stay in the arrays of
  :class:`~repro.workloads.compact.CompactPopulation`; a NAT world adds
  two byte columns beside them, each never-reachable peer's drawn NAT
  mode and every peer's DCUtR bit;
- routing tables are precomputed as flat position arrays by the one
  fill every world runs, :func:`~repro.dht.bootstrap.fill_positions`
  (an object world's :func:`~repro.dht.bootstrap.populate_routing_tables`
  runs it too), which walks one
  :class:`~repro.dht.bootstrap.KeyspaceTree` per world and samples
  each bucket from a window of the sorted server order; the vantages'
  DHT nodes, then any Hydra heads, join that one fill after the peers,
  as live servers;
- churn schedules are precomputed per peer into one flat delay array
  (each peer's stream of alternating sessions and gaps, drawn ahead of
  time instead of one transition at a time by a per-peer process — the
  reference in ``tests/helpers.py``; same values, same order); a
  peer whose run outlives the pre-drawn horizon redraws its stream
  further out;
- objects appear in three stages. A dial needs a host: naming a peer
  (``net.host_resolver``, ``host_at``) builds only the ``SimHost``,
  with all that dials, remote handlers, the prober and the crawler
  read (region, class, transports, NAT flag and box, online bit,
  ``agent_version``, ``dht_server``, ``dcutr``). A FIND_NODE needs the
  stored fill: the first *delivered* ``dht/FIND_NODE`` to a DHT server
  keeps only its bucket runs over its slice of the flat table array
  (one ``bytes`` of a few dozen bytes), which the fill's keyspace walk
  derives from window sizes without reading the slice
  (:func:`~repro.dht.bootstrap.table_runs`, on one tree the first
  attach grows). Every FIND_NODE it gets is answered from them by
  :func:`~repro.dht.routing_table.nearest`, the selection
  ``RoutingTable.closest`` makes, naming its peers through one list
  indexed by table position — a crawler's bucket dump never gets
  further. A ``RoutingTable``, a view over the same runs, is built
  only when a write would change them: a FIND_NODE whose sender
  ``learn_about`` would add, or the node. Any other ``dht/…`` RPC
  needs a node: the ``DhtNode`` adopts that table object; the first
  ``bitswap/…`` one attaches the ``BitswapEngine`` (both through
  ``attach_protocol``, one hook that every host of the world shares,
  called with the host and the method; the world finds the peer from
  the host's digest). That is exact: constructors
  schedule and draw nothing, tables come from build-time arrays, and
  only a peer's own handlers ever mutate them. Boxed peers and relays
  are attached at build, where their keepalive mappings and
  reservations are made.

``tests/simnet/test_compact_equivalence.py`` holds a lazily attached
world to one whose every stack was attached up front (and both to a
pinned crawl trace); ``tests/simnet/test_world_build_pins.py`` pins
what the builder builds.
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
from repro.dht import rpc
from repro.dht.bootstrap import STALE_FRACTION, fill_positions, run_tree, table_runs
from repro.dht.dht_node import DhtNode, answer_find_node
from repro.dht.hydra import HydraBooster
from repro.dht.keyspace import KEY_BITS, key_int_for_peer
from repro.dht.routing_table import (
    K_BUCKET_SIZE,
    RoutingTable,
    nearest,
    run_bounds,
    run_takes,
)
from repro.multiformats.peerid import PeerId
from repro.node.host import IpfsNode
from repro.simnet.churn import WORLD_INITIAL_ONLINE_PROBABILITY
from repro.simnet.latency import AWS_REGION_MAP, PeerClass
from repro.simnet.nat import (
    DEFAULT_KEEPALIVE_INTERVAL_S,
    NatBox,
    NatMode,
    seed_keepalive_mapping,
)
from repro.simnet.network import RpcHandler, SimHost, SimNetwork
from repro.simnet.relay import CircuitDialer, NatTraversal
from repro.simnet.sim import Simulator
from repro.simnet.transport import Transport
from repro.utils.columns import index_typecode
from repro.utils.rng import _seed_to_bytes, derive_rng
from repro.workloads.compact import REACHABILITY_NAMES, CompactPopulation

#: Churn schedules are pre-drawn out to this horizon (simulated
#: seconds); a peer whose run outlives it redraws its schedule further
#: out (:meth:`CompactWorld._redrawn_delay`). The default covers the
#: 12 h crawls twice over.
DEFAULT_CHURN_HORIZON_S = 24 * 3600.0

_ALL_TRANSPORTS = frozenset({Transport.TCP, Transport.QUIC, Transport.WEBSOCKET})
_WS_ONLY = frozenset({Transport.WEBSOCKET})

_REACH_CHURNING = REACHABILITY_NAMES.index("churning")
_REACH_RELIABLE = REACHABILITY_NAMES.index("reliable")
_REACH_NEVER = REACHABILITY_NAMES.index("never")

#: The network runs six canonical bootstrap peers (Section 4.1).
N_BOOTSTRAP = 6

#: How many reliable public peers act as circuit relays in a NAT world.
N_RELAYS = 4

#: NAT-mode column codes: the index into this tuple, 0 (public) unboxed.
_NAT_MODES = tuple(NatMode)

#: How many Hydra booster heads (Section 8) a world hosts: spawned
#: after the vantages and filled with them as live servers. The
#: ``ablation.hydra`` knock-out patches it for one build; 0 builds none.
HYDRA_HEADS = 0


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


def _churn_drawer(compact: CompactPopulation, seed: int):
    """``draw(index, horizon_s)``: peer ``index``'s churn as
    the reference churn process (``tests/helpers.py``) draws it — ``None`` for
    a peer that never churns, else its initial online state and its
    transition delays out to one overshoot draw past ``horizon_s``.

    The initial draw, then alternating session/gap samples from the
    per-peer derived stream; a redraw to a further horizon repeats the
    shorter one draw for draw. Delays are *raw* (not accumulated): the
    churn callback schedules ``delay`` so event times come out of the
    same ``now + delay`` float accumulation the reference process's
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
    - a model whose median session is infinite (the reference process
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
    reach = compact.peer_reach
    country = compact.peer_country

    def draw(index: int, horizon_s: float) -> tuple[bool, list[float]] | None:
        params_of = params[country[index]] if reach[index] == _REACH_CHURNING else None
        if params_of is None:
            return None
        session_mu, session_sigma, gap_mu, gap_sigma = params_of
        # derive_rng(seed, "churn", str(index))
        reseed(int.from_bytes(sha256(prefix + b"%d" % index).digest()[:8], "big"))
        initial = state = rnd() < WORLD_INITIAL_ONLINE_PROBABILITY
        delays: list[float] = []
        append = delays.append
        elapsed = 0.0
        # One overshoot draw past the horizon: every transition a run
        # bounded by the horizon can execute exists, scheduled exactly
        # when the reference process would schedule it.
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
        return initial, delays

    return draw


def _churn_schedules(
    compact: CompactPopulation,
    seed: int,
    horizon_s: float,
) -> tuple[bytearray, array, array]:
    """Initial online flags, per-peer ``[off, off+1)`` slices and the
    pre-drawn transition delays they index, for every peer: one
    :func:`_churn_drawer` call per peer."""
    draw = _churn_drawer(compact, seed)
    online = bytearray(len(compact))
    off = array("I", [0])
    delays = array("d")
    reach = compact.peer_reach
    for index in range(len(compact)):
        drawn = draw(index, horizon_s)
        if drawn is None:
            online[index] = reach[index] != _REACH_NEVER
        else:
            online[index], peer_delays = drawn
            delays.extend(peer_delays)
        off.append(len(delays))
    return online, off, delays


class CompactWorld:
    """A lazily-materialized world over a :class:`CompactPopulation`.

    Peers are indices ``0..n``; the vantages (full
    :class:`~repro.node.host.IpfsNode` objects, ``vantage``), then any
    ``hydra`` heads, follow them as ``n, n+1, ...`` in routing-table
    entries. Serves the crawl/churn experiment stack directly (``sim``, ``net``,
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
        #: every host's ``attach_protocol``: one bound method, not one
        #: per host
        self._attach_hook = self._attach
        #: each table-stage peer's bucket runs (see `_runs_at`)
        self._runs: dict[int, bytes] = {}
        #: every routing-table object: a node's, or a written-to peer's
        self._tables: dict[int, RoutingTable] = {}
        self.nodes: dict[PeerId, DhtNode] = {}
        self.engines: dict[PeerId, BitswapEngine] = {}
        #: peers whose DHT state (runs, maybe a table and a node) has
        #: attached
        self.materialized = 0
        #: the always-on datacenter nodes, by AWS region name
        self.vantage: dict[str, IpfsNode] = {}
        #: the world's Hydra booster (``HYDRA_HEADS`` heads), if any
        self.hydra: HydraBooster | None = None
        #: the NAT traversal layer (a world with at least one box)
        self.circuit_dialer: CircuitDialer | None = None
        self.traversal: NatTraversal | None = None
        # columnar world state, filled in by build_compact_world
        self._ws = bytearray(self.n)          # WebSocket-only transport flag
        self._online = bytearray(self.n)      # current online state
        # NAT world only (empty otherwise): each peer's NatMode code
        # (0: no box) and DCUtR bit
        self._nat_mode = bytearray()
        self._dcutr = bytearray()
        self._index: dict[bytes, int] = {}    # PeerID digest -> peer index
        # index columns, each as narrow as its bound allows
        # (`index_typecode`); `_fill_tables` sizes the first two
        self._server_order = array("H")       # table position -> peer index
        self._table_entries = array("H")      # concatenated table positions
        self._table_off = array("I", [0])     # per-peer [off, off+1) slices
        self._churn_delays = array("d")       # concatenated raw delays
        self._churn_off = array("I", [0])
        self._churn_cursor = array("I")
        # schedules redrawn past the build's horizon, by peer index
        self._churn_redrawn: dict[int, list[float]] = {}
        self._churn_draw = None
        # routing-table entries -> PeerIds, vantages and heads (indices >= n) included
        self._ids_at = compact.peer_ids_at
        self._all_ids: list[PeerId] = []
        # what every table-stage peer reads (see `_table_view`)
        self._view_args: tuple | None = None
        self._own_keys: list[int] = []
        # the keyspace tree `_runs_at` walks, grown from the first attach
        self._run_tree = None
        # table position -> PeerId, each named on first use (`_peers_at`)
        self._named: list[PeerId | None] = []

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
        """Whether peer ``index``'s DHT state has attached."""
        return index in self._runs

    # -- lazy materialization ------------------------------------------

    def host_at(self, index: int) -> SimHost:
        """Stage 1: the bare host, carrying every fact a dial, a remote
        ``_learn_about``, the prober and the crawler read; the protocol
        state waits for the first delivered RPC (:meth:`_attach`)."""
        host = self._hosts.get(index)
        if host is None:
            compact = self.compact
            reach = compact.peer_reach[index]
            mode = self._nat_mode[index] if self._nat_mode else 0
            host = SimHost(
                compact.peer_id_at(index),
                region=compact.region_at(index),
                peer_class=compact.peer_class_at(index),
                transports=_WS_ONLY if self._ws[index] else _ALL_TRANSPORTS,
                nat_private=reach == _REACH_NEVER and not mode,
                online=bool(self._online[index]),
            )
            if mode:
                host.nat = NatBox(
                    _NAT_MODES[mode],
                    mapping_ttl_s=self.config.nat_world.mapping_ttl_s,
                    keepalive_interval_s=DEFAULT_KEEPALIVE_INTERVAL_S,
                    port_base=1024 + 64 * index,
                )
            if self._dcutr:
                host.dcutr = self._dcutr[index] == 1
            host.agent_version = compact.agent_at(index)
            host.dht_server = self.nat_peers_in_dht or reach != _REACH_NEVER
            host.attach_protocol = self._attach_hook
            self.net.register(host)
            self._hosts[index] = host
        return host

    def _runs_at(self, index: int) -> bytes:
        """Stage 2: peer ``index``'s bucket runs over its slice of the
        stored fill, derived by the fill's own keyspace walk
        (:func:`~repro.dht.bootstrap.table_runs`), as an object world's
        tables are."""
        runs = self._runs.get(index)
        if runs is None:
            self._table_view()
            runs = self._runs[index] = table_runs(self._own_keys[index], self._run_tree)
            self.materialized += 1
        return runs

    def _table_at(self, index: int) -> RoutingTable:
        """Peer ``index``'s routing table, a view over its runs until
        its first write (the bare default: eviction on the first
        failure, no breakers)."""
        table = self._tables.get(index)
        if table is None:
            runs = self._runs_at(index)
            table = self._tables[index] = RoutingTable(self.peer_id_at(index))
            table.view(*self._table_view(), self._table_off[index], runs)
        return table

    def node_at(self, index: int) -> DhtNode:
        """Stage 3, ``dht/…``: the node, over the peer's one table."""
        peer_id = self.peer_id_at(index)
        node = self.nodes.get(peer_id)
        if node is None:
            host = self.host_at(index)
            if index in self._tables:
                # the table-only FIND_NODE answer makes way for the node's
                host.unregister_handler(rpc.FIND_NODE)
            node = DhtNode(
                self.sim, self.net, host,
                partial(derive_rng, self.seed, "dht", str(index)),
                server=host.dht_server, routing_table=self._table_at(index),
            )
            self.nodes[peer_id] = node
        return node

    def engine_at(self, index: int) -> BitswapEngine:
        """Stage 3, ``bitswap/…``: an engine over an empty store."""
        peer_id = self.peer_id_at(index)
        engine = self.engines.get(peer_id)
        if engine is None:
            engine = self.engines[peer_id] = BitswapEngine(
                self.sim, self.net, self.host_at(index), MemoryBlockstore()
            )
        return engine

    def _attach(self, host: SimHost, method: str) -> RpcHandler | None:
        """``SimHost.attach_protocol``, one hook for every host: build
        what ``method`` needs on the peer whose digest names ``host``. A
        DHT server answers FIND_NODE from its runs alone, through a
        handler it does not keep."""
        index = self._index[host.peer_id.multihash.digest]
        if method == rpc.FIND_NODE and host.dht_server:
            self._runs_at(index)
            return partial(self._find_node, index)
        if method.startswith("dht/"):
            self.node_at(index)
        elif method.startswith("bitswap/"):
            self.engine_at(index)
        return None

    def _find_node(
        self, index: int, sender: PeerId, request: rpc.FindNodeRequest
    ) -> tuple[rpc.FindNodeResponse, int]:
        """A table-stage peer's FIND_NODE answer: ``answer_find_node``'s,
        read from the runs. A sender ``learn_about`` would write into
        them first attaches the table, which takes this and every later
        FIND_NODE."""
        view = (*self._table_view(), self._table_off[index], self._runs[index])
        own = self._own_keys[index]
        remote = self.net.host(sender)
        if remote is not None and remote.dht_server:
            key_int = key_int_for_peer(sender)
            distance = own ^ key_int
            bounds = run_bounds(view, min(KEY_BITS - distance.bit_length(), KEY_BITS - 1))
            if distance and (bounds is None or run_takes(view, bounds, key_int)):
                handler = partial(answer_find_node, self.net, self._table_at(index))
                self._hosts[index].register_handler(rpc.FIND_NODE, handler)
                return handler(sender, request)
        response = rpc.FindNodeResponse(
            tuple(nearest(own, request.target_key, K_BUCKET_SIZE, {}, view))
        )
        return response, response.wire_size()

    def _table_view(self) -> tuple:
        """What every run view reads: the flat table array, each stored
        position's DHT key int and the positions -> ``PeerId``s lookup;
        derived on the first attach, with every peer's own key int, the
        tree the runs are walked on and the empty position -> ``PeerId``
        list (``build`` attaches nothing, so it keeps none of them)."""
        if self._view_args is None:
            # `_index` was filled in peer-index order
            keys = _dht_key_ints(self._index)
            keys += [peer_id.dht_key_int() for peer_id in self._all_ids[self.n:]]
            self._own_keys = keys
            server_keys = [keys[index] for index in self._server_order]
            self._run_tree = run_tree(server_keys)
            self._named = [None] * len(server_keys)
            self._view_args = (self._table_entries, server_keys, self._peers_at)
        return self._view_args

    def _peers_at(self, positions) -> list[PeerId]:
        """The ``PeerId``s at stored positions of the server order: the
        very objects ``_ids_at`` returns, kept by position once named."""
        named = self._named
        return [named[position] or self._name(position) for position in positions]

    def _name(self, position: int) -> PeerId:
        (peer_id,) = self._ids_at((self._server_order[position],))
        self._named[position] = peer_id
        return peer_id

    def _table_indices(self, index: int) -> array:
        """Peer ``index``'s routing-table entries as peer indices, in
        insertion order (``n + j``: the ``j``-th vantage or head)."""
        off = self._table_off
        entries = self._table_entries[off[index]:off[index + 1]]
        return array("i", map(self._server_order.__getitem__, entries))

    def table_peer_ids(self, index: int) -> list[PeerId]:
        """Peer ``index``'s routing-table entries, in insertion order,
        without materializing the node."""
        return self._ids_at(self._table_indices(index))

    def _extra_ids_at(self, indices) -> list[PeerId]:
        """``_ids_at`` of a world with vantages or heads: every peer's
        PeerId, then theirs, named at build."""
        return list(map(self._all_ids.__getitem__, indices))

    def _resolve(self, peer_id: PeerId) -> SimHost | None:
        index = self._index.get(peer_id.multihash.digest)
        return None if index is None else self.host_at(index)

    # -- churn ---------------------------------------------------------

    def _start_churn(self) -> None:
        """Schedule every churning peer's first transition, in peer
        order — the schedule-call order of one reference process per peer
        started in peer order, so sequence numbers match."""
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
            delay = self._churn_delays[cursor]
        else:
            delay = self._redrawn_delay(index, cursor - self._churn_off[index])
        self.sim.schedule(delay, partial(self._churn_fire, index))

    def _redrawn_delay(self, index: int, k: int) -> float:
        """Delay ``k`` of peer ``index``'s schedule, past the pre-drawn
        horizon: the peer's stream redrawn out to twice the current
        time. ``now`` is the sum of the first ``k`` delays, so the
        redraw holds delay ``k``; its prefix is the pre-drawn schedule,
        draw for draw."""
        delays = self._churn_redrawn.get(index)
        if delays is None or k >= len(delays):
            if self._churn_draw is None:
                self._churn_draw = _churn_drawer(self.compact, self.seed)
            _, delays = self._churn_draw(index, 2 * self.sim.now)
            self._churn_redrawn[index] = delays
        return delays[k]

    def _set_online(self, index: int, online: bool) -> None:
        self._online[index] = 1 if online else 0
        host = self._hosts.get(index)
        if host is not None:
            host.set_online(online)

    # -- NAT traversal -------------------------------------------------

    def _install_traversal(self, reliable: list[int]) -> None:
        """Attach the boxed peers and the relays (the first
        ``N_RELAYS`` unboxed ``reliable`` peers), in peer order, and at
        t = 0 give each boxed peer the bootstrap keepalive that holds
        its box's mapping open and reservations with two relays."""
        boxed = [index for index, mode in enumerate(self._nat_mode) if mode]
        relays = [index for index in reliable if not self._nat_mode[index]][:N_RELAYS]
        for index in sorted({*boxed, *relays}):
            self.host_at(index)
        dialer = CircuitDialer(self.net)
        for index in relays:
            # reservation slots scale with the population
            dialer.enable_relay(self.host_at(index), capacity=self.n)
        relay_ids = dialer.relay_ids()
        bootstrap = self.bootstrap_ids
        for index in boxed:
            host = self.host_at(index)
            seed_keepalive_mapping(host, bootstrap[index % len(bootstrap)])
            for k in range(min(2, len(relay_ids))):
                dialer.reserve(host, relay_ids[(index + k) % len(relay_ids)])
        self.circuit_dialer = dialer
        self.traversal = NatTraversal(self.net, dialer)
        self.net.install_traversal(self.traversal)

    # -- routing-table precompute --------------------------------------

    def _fill_tables(self, rng: random.Random, key_ints: list[int], extra: list[DhtNode]) -> None:
        """Every peer's routing table, then every ``extra`` node's (the
        vantages', then any Hydra heads'), as positions into the sorted
        server order: one :func:`~repro.dht.bootstrap.fill_positions`
        (``key_ints[i]`` is node ``i``'s DHT key), whose flat array and
        offsets the world keeps. The ``extra`` nodes are live servers;
        their tables stay dict tables, which a run writes to throughout,
        filled by :meth:`~repro.dht.routing_table.RoutingTable.add` over
        their stored entries in order."""
        n = self.n
        reach = self.compact.peer_reach
        in_dht = self.nat_peers_in_dht
        servers = [i for i in range(n) if in_dht or reach[i] != _REACH_NEVER]
        servers += range(n, len(key_ints))
        online = self._online + b"\x01" * (len(key_ints) - n)
        # read here, so that `figures.patched("STALE_FRACTION", ...)`
        # reaches the fill
        max_stale = int(K_BUCKET_SIZE * STALE_FRACTION)
        order, _, self._table_entries, self._table_off = fill_positions(
            key_ints, servers, online, max_stale, rng
        )
        self._server_order = array(index_typecode(len(key_ints)), order)
        for j, node in enumerate(extra):
            for peer_id in self._ids_at(self._table_indices(n + j)):
                node.routing_table.add(peer_id)

    # -- accounting ----------------------------------------------------

    def nbytes(self) -> int:
        """Approximate bytes held by the compact world state: the
        population, table and churn arrays, the flag columns and the
        PeerID digest index."""
        digest_bytes = sys.getsizeof(b"\x00" * 32) + 28  # key + int value
        arrays = (
            self._table_entries, self._table_off, self._server_order,
            self._churn_delays, self._churn_off, self._churn_cursor,
        )
        return (
            self.compact.nbytes()
            + sum(column.itemsize * len(column) for column in arrays)
            + len(self._ws) + len(self._online) + len(self._nat_mode) + len(self._dcutr)
            + sys.getsizeof(self._index) + digest_bytes * len(self._index)
        )


def build_compact_world(
    compact: CompactPopulation,
    config,
    *,
    vantage_regions: list[str] | None = None,
    churn_horizon_s: float = DEFAULT_CHURN_HORIZON_S,
) -> CompactWorld:
    """Build ``compact`` as a simulated network.

    ``config`` is a :class:`~repro.experiments.scenario.ScenarioConfig`.
    ``vantage_regions`` adds one always-on datacenter IpfsNode per AWS
    region named (each also publishes no peer record yet — experiments
    do that explicitly, as go-ipfs does on startup).
    """
    n = len(compact)
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(config.seed, "net"))
    world = CompactWorld(compact, config, sim, net)
    reach = compact.peer_reach

    # A small slice of peers is reachable over WebSocket only; dial
    # timeouts against the unreachable ones produce the 45 s spike of
    # Figure 9c. One uniform per peer from the shared "scenario"
    # stream, in peer order.
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
    # happens before table fill — reachability at fill time reflects it.
    if config.with_churn:
        world._online, world._churn_off, world._churn_delays = _churn_schedules(
            compact, config.seed, churn_horizon_s,
        )
    else:
        for index in range(n):
            world._online[index] = 1 if reach[index] != _REACH_NEVER else 0
        world._churn_off.extend([0] * n)
    world._churn_cursor = world._churn_off[:n]
    if config.with_churn:
        world._start_churn()

    # A NAT world builds the never-reachable cohort live behind NAT
    # boxes, the mode drawn from each peer's own derived stream (the
    # shared streams are untouched); a drawn "public" mode keeps the
    # peer statically NAT-flagged, which is what makes an all-public
    # mix byte-identical to no NAT world. Public peers always speak
    # DCUtR; the adoption knob only throttles the boxed side.
    nat_world = config.nat_world
    if nat_world is not None:
        world._nat_mode = bytearray(n)
        world._dcutr = bytearray(b"\x01") * n
        modes, weights = zip(*nat_world.mix)
        for index in range(n):
            if reach[index] != _REACH_NEVER or sum(weights) <= 0:
                continue
            nat_rng = derive_rng(config.seed, "nat", str(index))
            mode = _NAT_MODES.index(NatMode(nat_rng.choices(modes, weights)[0]))
            if mode:
                world._nat_mode[index] = mode
                world._dcutr[index] = nat_rng.random() < nat_world.punch_adoption
                world._online[index] = 1

    # Canonical bootstrap peers: the most reliable datacenter nodes, the
    # first reliable peers (else the head of the population).
    reliable = [index for index in range(n) if reach[index] == _REACH_RELIABLE]
    reliable = reliable or list(range(n))
    world.bootstrap_ids = [compact.peer_id_at(i) for i in reliable[:N_BOOTSTRAP]]

    for name in vantage_regions or []:
        node = IpfsNode(
            sim, net,
            derive_rng(config.seed, "vantage", name),
            region=AWS_REGION_MAP[name],
            peer_class=PeerClass.DATACENTER,
            config=config.node_config,
            transports=_ALL_TRANSPORTS,
        )
        if nat_world is not None:
            node.host.dcutr = True
        world.vantage[name] = node
    extra = [node.dht for node in world.vantage.values()]
    if HYDRA_HEADS:
        world.hydra = HydraBooster(sim, net)
        world.hydra.spawn_heads(HYDRA_HEADS, derive_rng(config.seed, "heads"))
        extra += world.hydra.heads
    if extra:
        world._all_ids = compact.peer_ids_at(range(n))
        world._all_ids += [node.host.peer_id for node in extra]
        world._ids_at = world._extra_ids_at
        key_ints += [peer_id.dht_key_int() for peer_id in world._all_ids[n:]]

    # The NAT traversal layer: only when at least one box exists. An
    # enabled-but-idle NAT world installs nothing, so the dial path —
    # and the golden trace — is untouched.
    if any(world._nat_mode):
        world._install_traversal(reliable)

    world._fill_tables(derive_rng(config.seed, "tables"), key_ints, extra)
    net.host_resolver = world._resolve
    return world
