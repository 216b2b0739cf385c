"""Three-stage materialization of compact worlds.

A dial needs a host, a FIND_NODE the stored fill, any other RPC a
stack: ``CompactWorld.host_at`` (and the network's resolver) build only
the ``SimHost``; the first *delivered* ``dht/FIND_NODE`` to a DHT server
keeps only its bucket runs, answered through the one closest-k
selection, and a ``RoutingTable`` over them appears only when a write
changes them; the ``DhtNode`` (adopting that table) and the Bitswap
engine attach with the first delivered RPC of any other method of
their protocol. These tests pin what exists after each kind of touch,
and that a late-attached peer answers exactly like an eager one.
"""

from __future__ import annotations

import operator
import tracemalloc

import pytest

from repro.bitswap.messages import WANT_HAVE, HaveResponse, WantHaveRequest
from repro.dht import rpc
from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import key_for_peer
from repro.dht.records import ProviderRecord
from repro.dht.routing_table import RoutingTable
from repro.errors import SimulationError, TransportTimeoutError
from repro.experiments.deployment import CrawlCampaignConfig, run_crawl_timeseries
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import AWS_REGIONS, ScenarioConfig, build_scenario
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
from repro.resilience import Resilience
from repro.simnet.compact import build_compact_world
from repro.simnet.network import SimHost
from repro.simnet.transport import Transport
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig, generate_population
from tests.helpers import materialize_all

N_PEERS = 200
SEED = 42
ALL_TRANSPORTS = frozenset({Transport.TCP, Transport.QUIC, Transport.WEBSOCKET})


def _world(n_peers=N_PEERS, **config):
    compact = generate_compact_population(
        PopulationConfig(n_peers=n_peers), derive_rng(SEED, "population")
    )
    world = build_compact_world(compact, ScenarioConfig(seed=SEED, **config))
    client = SimHost(
        PeerId.from_public_key(b"lazy-attach-client"), transports=ALL_TRANSPORTS
    )
    world.net.register(client)
    return world, client


def _first(world, reachability: str, online: bool) -> int:
    return next(
        i for i in range(world.n)
        if world.compact.reachability_at(i) == reachability
        and world.online_at(i) == online
    )


def _dial(world, client, index):
    future = world.net.dial(client, world.peer_id_at(index))
    world.sim.run(until=world.sim.now + 120.0)
    return future


def _find_node(world, client, index):
    peer_id = world.peer_id_at(index)
    future = world.net.rpc(
        client, peer_id, rpc.FIND_NODE,
        rpc.FindNodeRequest(key_for_peer(peer_id)), request_size=64,
    )
    world.sim.run(until=world.sim.now + 120.0)
    return future


@pytest.mark.parametrize("reachability", ["never", "churning"])
def test_failed_dial_builds_a_host_and_nothing_else(reachability):
    world, client = _world()
    index = _first(world, reachability, online=False)
    peer_id = world.peer_id_at(index)

    future = _dial(world, client, index)

    assert isinstance(future.exception(), TransportTimeoutError)
    assert world.materialized == 0
    assert world.nodes == {} and world.engines == {}
    assert not world.is_materialized(index)
    host = world.net.hosts[peer_id]
    assert host is world.host_at(index)
    assert host.transports in (ALL_TRANSPORTS, frozenset({Transport.WEBSOCKET}))
    assert host.agent_version == world.compact.agent_at(index) != "unknown"
    # never-reachable peers are DHT servers too (stale table entries)
    assert host.dht_server is True
    assert host.nat_private == (reachability == "never")


def test_unmaterialized_world_bytes_per_peer():
    # Population plus world at 2 000 peers, measured on CPython 3.11.7:
    # 1 345.1 B/peer retained under tracemalloc (every allocation the
    # build keeps: arrays, the digest index, the scheduled churn) and
    # 632.2 B/peer by the world's own nbytes() accounting, with the
    # routing-table positions in 2 bytes and the offsets in 4 (1 663.8
    # and 948.0 B/peer at 4 and 8). The bounds are 1.33x those, so a
    # per-peer object that creeps back into the build fails the first
    # and an array that grows per peer, or widens, fails the second.
    n_peers = 2000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        compact = generate_compact_population(
            PopulationConfig(n_peers=n_peers), derive_rng(SEED, "population")
        )
        world = build_compact_world(compact, ScenarioConfig(seed=SEED))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert world.materialized == 0
    assert retained / n_peers <= 1790
    assert world.nbytes() / n_peers <= 841


@pytest.mark.parametrize("sender", ["client", "dht-server"])
def test_attached_node_bytes(sender):
    # Bytes kept per attached peer at 2 000 peers after one FIND_NODE
    # to each of the first 50 reliable peers: the bucket runs (no
    # table: a FIND_NODE that writes nothing keeps only the runs), the
    # answers' PeerIds, the dial's connections and the per-peer key
    # ints, the run tree and the position -> PeerId list of the first
    # attach. A DHT-server sender is also offered to
    # the answering peer: a full bucket turns it away, a refresh or a
    # free slot takes it in, and either is a write that attaches a
    # table over the runs, copying the one bucket it changes. Measured
    # on CPython 3.11.7: 8 757 B/peer from a client and 8 779 B/peer
    # from a DHT server (two tables written); 8 150 and 8 170-8 215
    # B/peer (the spread is the hash seed) when the runs came from an
    # XOR scan of the stored entries, with no tree and no position
    # list; 9 113 and 9 147 B/peer with a per-host attach hook
    # and an unslotted Multihash, 10 107 and 10 211 B/peer when every
    # FIND_NODE attached a table view, 12 511 and 12 182 B/peer when it
    # attached a whole DhtNode. The bound allows 1.33x the client
    # figure, so a table, a per-host hook or a per-entry object that
    # creeps back into the attach fails here; a node that creeps back
    # fails the ``nodes`` check.
    world, client = _world(n_peers=2000, with_churn=False)
    client.dht_server = sender == "dht-server"
    reliable = [
        index for index in range(world.n)
        if world.compact.reachability_at(index) == "reliable"
    ][:50]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for index in reliable:
            _find_node(world, client, index)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert world.materialized == len(reliable) == 50
    assert world.nodes == {}
    assert (world._tables == {}) == (sender == "client")
    assert kept / world.materialized <= 10_840


@pytest.mark.parametrize("vantages", [[], ["eu_central_1"]])
def test_answers_name_peers_by_table_position(vantages):
    """A table-stage answer names its peers through one list indexed
    by table position, filled on first use with the very ``PeerId``
    objects the population memo holds (or ``_all_ids``, in a world
    with vantages); the build names none of them."""
    compact = generate_compact_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(SEED, "population")
    )
    world = build_compact_world(
        compact, ScenarioConfig(seed=SEED, with_churn=False), vantage_regions=vantages
    )
    assert world._named == [] and world._run_tree is None
    client = SimHost(PeerId.from_public_key(b"lazy-attach-client"), transports=ALL_TRANSPORTS)
    world.net.register(client)
    reliable = [
        index for index in range(world.n)
        if world.compact.reachability_at(index) == "reliable"
    ][:5]
    answers = [_find_node(world, client, index).result().closer_peers for index in reliable]
    owner = world._all_ids if vantages else compact._peer_ids
    named = [
        (position, peer_id) for position, peer_id in enumerate(world._named)
        if peer_id is not None
    ]
    assert len(world._named) == len(world._server_order)
    assert {peer_id for _, peer_id in named} == {p for answer in answers for p in answer}
    for position, peer_id in named:
        assert peer_id is owner[world._server_order[position]]
    positions = range(0, len(world._server_order), 7)
    expected = world._ids_at(world._server_order[position] for position in positions)
    assert all(map(operator.is_, world._peers_at(positions), expected))


def test_client_mode_is_a_host_fact():
    world, _client = _world(nat_peers_in_dht=False)
    assert world.host_at(_first(world, "never", False)).dht_server is False
    assert world.host_at(_first(world, "reliable", True)).dht_server is True
    assert world.materialized == 0


def test_stackless_hosts_answer_identify_questions():
    """``bootstrap`` and ``_learn_about`` ask the *host* whether a peer
    is a DHT server — no node has to exist on the peer asked about."""
    world, client = _world(nat_peers_in_dht=False)
    walker = DhtNode(world.sim, world.net, client, derive_rng(SEED, "walker"))
    walker.bootstrap(world.bootstrap_ids)
    assert set(walker.routing_table.peers()) == set(world.bootstrap_ids)

    server = world.peer_id_at(_first(world, "churning", False))
    nat_client = world.peer_id_at(_first(world, "never", False))
    walker._learn_about(server)
    walker._learn_about(nat_client)
    assert server in walker.routing_table
    assert nat_client not in walker.routing_table
    assert world.materialized == 0 and len(world.net.hosts) > 2


def test_first_delivered_rpc_attaches_exactly_one_node():
    world, client = _world(with_churn=False)
    index = _first(world, "reliable", True)
    peer_id = world.peer_id_at(index)

    assert not _dial(world, client, index).failed
    assert world.materialized == 0, "a successful dial is still only a host"

    future = _find_node(world, client, index)
    assert world.materialized == 1
    assert world.is_materialized(index)
    assert world.nodes == {}, "a FIND_NODE attaches the runs, not a node"
    assert world.engines == {}, "a crawled peer never gets a Bitswap engine"
    # the client is no DHT server, so the answer learned nobody new and
    # no table object was built: the peer keeps its runs alone
    assert world._tables == {}
    runs = world._runs[index]
    assert sum(runs[len(runs) // 2:]) == len(world.table_peer_ids(index)) > 0
    assert len(runs) < 64, "a few dozen bytes"
    assert world.host_at(index)._handlers == {}, "the answer keeps no handler"

    # ... and the answer, and when it arrives, match an eager world's.
    eager, eager_client = _world(with_churn=False)
    materialize_all(eager)
    assert eager.materialized == N_PEERS and len(eager.engines) == N_PEERS
    _dial(eager, eager_client, index)
    eager_future = _find_node(eager, eager_client, index)
    assert future.result() == eager_future.result()
    assert future.result().closer_peers
    assert world.net.stats == eager.net.stats
    assert world.sim.events_processed == eager.sim.events_processed


def test_engine_waits_for_bitswap():
    world, client = _world(with_churn=False)
    index = _first(world, "reliable", True)
    peer_id = world.peer_id_at(index)
    _find_node(world, client, index)
    assert world.engines == {} and world.nodes == {}

    cid = make_cid(b"nobody has this")
    future = world.net.rpc(client, peer_id, WANT_HAVE, WantHaveRequest((cid,)))
    world.sim.run(until=world.sim.now + 120.0)
    assert future.result() == HaveResponse((), (cid,))
    assert list(world.engines) == [peer_id]
    assert world.engines[peer_id] is world.engine_at(index)

    # engine_at alone builds host + engine, never DHT state
    other = next(i for i in range(world.n) if i != index)
    world.engine_at(other)
    assert len(world.engines) == 2
    assert world.materialized == 1 and world.nodes == {}
    assert world.is_materialized(index) and not world.is_materialized(other)


def test_crawler_traffic_attaches_tables_only():
    """A crawl campaign sends nothing but FIND_NODEs from a DHT client:
    every peer it reaches answers from its stored runs, no table or
    node is built, and the run equals one over a world whose every
    stack was attached up front, event for event."""
    runs = {}
    for arm in ("lazy", "eager"):
        world, _client = _world()
        if arm == "eager":
            materialize_all(world)
        results = run_crawl_timeseries(world, CrawlCampaignConfig(duration_s=1800.0))
        runs[arm] = (
            results.crawls, results.timeseries(), results.sessions,
            world.net.stats, world.sim.events_processed,
        )
        if arm == "lazy":
            assert 0 < world.materialized < N_PEERS
            assert world._tables == {} and world.nodes == {} and world.engines == {}
            assert world.materialized == sum(map(world.is_materialized, range(N_PEERS)))
    assert runs["lazy"][0][0].rpcs_sent > 0
    assert runs["lazy"] == runs["eager"]


def test_every_host_shares_one_attach_hook():
    """The hook is the world's, not the host's: after a crawl's
    FIND_NODEs every named host holds the same object, which finds the
    peer from the host it is handed."""
    world, _client = _world()
    run_crawl_timeseries(world, CrawlCampaignConfig(duration_s=1800.0))
    hosts = [world.host_at(index) for index in range(N_PEERS)]
    assert world.materialized > 0
    hooks = {id(host.attach_protocol) for host in hosts}
    assert len(hooks) == 1
    assert hosts[0].attach_protocol is hosts[-1].attach_protocol


def test_node_adopts_the_staged_table():
    """A FIND_NODE from a DHT server writes the sender into the staged
    table (one copied bucket); the ADD_PROVIDER after it attaches the
    node over that same table object, bucket and all, counted once."""
    world, client = _world(with_churn=False)
    client.dht_server = True
    for index in range(world.n):
        if not world.online_at(index):
            continue
        _find_node(world, client, index)
        staged = world._tables.get(index)
        if staged is not None:
            assert client.peer_id in staged
            break
    else:
        pytest.fail("no online peer's table took the DHT-server sender in")
    assert staged.copied_buckets == 1
    assert world.nodes == {}
    materialized = world.materialized

    peer_id = world.peer_id_at(index)
    record = ProviderRecord(make_cid(b"adopted"), client.peer_id, world.sim.now)
    future = world.net.rpc(
        client, peer_id, rpc.ADD_PROVIDER, rpc.AddProviderRequest(record, ()),
        request_size=rpc.PROVIDER_RECORD_SIZE,
    )
    world.sim.run(until=world.sim.now + 120.0)
    assert future.result() is True
    assert list(world.nodes) == [peer_id]
    node = world.nodes[peer_id]
    assert node is world.node_at(index)
    assert node.routing_table is staged
    assert node.routing_table.copied_buckets == 1
    assert client.peer_id in node.routing_table
    assert node.routing_table.failure_threshold == 1
    assert node.routing_table.breakers is None
    assert node.provider_store.providers_for(record.cid, world.sim.now) == [record]
    assert world.materialized == materialized
    # later FIND_NODEs reach the node's handler, over the same table
    assert world.host_at(index).handler_for(rpc.FIND_NODE) == node._on_find_node
    assert _find_node(world, client, index).result().closer_peers


def test_a_table_attaches_exactly_where_a_write_lands():
    """From a DHT-server sender, a peer answering from its runs builds
    its ``RoutingTable`` exactly when ``learn_about`` changes the
    table: the sender's bucket has room, or already holds it. Either
    way it answers as an eager world's node does, again and again."""
    world, client = _world(with_churn=False)
    eager, eager_client = _world(with_churn=False)
    materialize_all(eager)
    client.dht_server = eager_client.dht_server = True
    online = [index for index in range(world.n) if world.online_at(index)][:60]
    for index in online + online[:10]:
        answer = _find_node(world, client, index).result()
        assert answer == _find_node(eager, eager_client, index).result()
        written = eager_client.peer_id in eager.node_at(index).routing_table
        assert (index in world._tables) == written
    assert 0 < len(world._tables) < len(online), "both kinds of answer ran"
    assert world.materialized == len(online) and world.nodes == {}
    assert world.net.stats == eager.net.stats


def test_node_at_builds_one_table_and_keeps_it(monkeypatch):
    """``node_at`` on an untouched peer stages its table and the node
    adopts that object: one ``RoutingTable`` is built, none dropped."""
    world, _client = _world(with_churn=False)
    index = _first(world, "reliable", True)
    built = []
    init = RoutingTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RoutingTable, "__init__", counting_init)
    node = world.node_at(index)
    assert built == [world._tables[index]]
    assert node.routing_table is world._tables[index]
    assert world.materialized == 1 and list(world.nodes.values()) == [node]


def test_an_adopted_table_takes_the_nodes_rung():
    """A table handed to ``DhtNode`` gets the node's eviction threshold
    and breakers, so a non-bare rung keeps them over a staged table."""
    world, client = _world(with_churn=False)
    staged = RoutingTable(client.peer_id)
    resilience = Resilience("resilient", world.sim, world.net)
    node = DhtNode(
        world.sim, world.net, client, derive_rng(SEED, "rung"),
        resilience=resilience, routing_table=staged,
    )
    assert node.routing_table is staged
    assert staged.failure_threshold == resilience.eviction_threshold == 3
    assert staged.breakers is resilience.breakers is not None


def test_find_node_to_a_non_server_still_raises():
    world, _client = _world(nat_peers_in_dht=False)
    index = _first(world, "never", False)
    host = world.host_at(index)
    assert host.dht_server is False
    with pytest.raises(SimulationError, match="no handler for 'dht/FIND_NODE'"):
        host.handler_for(rpc.FIND_NODE)
    assert world.node_at(index).server is False


def test_unknown_method_still_raises():
    world, client = _world(with_churn=False)
    index = _first(world, "reliable", True)
    world.net.rpc(client, world.peer_id_at(index), "nope/UNKNOWN", None)
    with pytest.raises(SimulationError, match="no handler for 'nope/UNKNOWN'"):
        world.sim.run(until=120.0)
    assert world.materialized == 0 and world.engines == {}


def test_churn_flip_on_a_stackless_host_drops_connections():
    world, client = _world()
    flipped: list[SimHost] = []
    for index in range(world.n):
        if world.compact.reachability_at(index) != "churning":
            continue
        if not world.online_at(index):
            continue
        host = world.host_at(index)
        host.on_status_change.append(
            lambda online, host=host: flipped.append(host)
        )
        world.net.dial(client, host.peer_id)
    world.sim.run(until=60.0)
    connected = set(client.connected_peers())
    assert connected

    world.sim.run(until=6 * 3600.0)
    dropped = [host for host in flipped if host.peer_id in connected]
    assert dropped, "six hours of churn must take a connected peer offline"
    for host in dropped:
        assert not client.is_connected(host.peer_id)
        assert client.peer_id not in host.connections
    assert world.materialized == 0 and world.nodes == {}


def test_pubget_world_attaches_lazily():
    """The performance experiment's world at the e2e ``pubget`` shape
    (2000 peers, the six vantages): the campaign's walks attach a DHT
    node only where an RPC lands, and no backdrop peer ever gets a
    Bitswap engine — retrievals fetch from the vantages."""
    population = generate_population(
        PopulationConfig(n_peers=2000), derive_rng(SEED, "bench-pop")
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=SEED), vantage_regions=AWS_REGIONS
    )
    results = run_perf_experiment(scenario, PerfConfig(rounds=2, seed=SEED))
    assert results.failures == 0 and results.all_retrievals()
    world = scenario.world
    assert 0 < world.materialized < len(world)
    assert world.engines == {}
