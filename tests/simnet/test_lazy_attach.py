"""Two-stage materialization of compact worlds.

A dial needs a host, an RPC needs a node: ``CompactWorld.host_at`` (and
the network's resolver) build only the ``SimHost``; the DHT node and
the Bitswap engine attach when the first RPC of their protocol is
*delivered*. These tests pin what exists after each kind of touch, and
that a late-attached stack answers exactly like an eager one.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.bitswap.messages import WANT_HAVE, HaveResponse, WantHaveRequest
from repro.dht import rpc
from repro.dht.dht_node import DhtNode
from repro.dht.keyspace import key_for_peer
from repro.errors import SimulationError, TransportTimeoutError
from repro.experiments.perf import PerfConfig, run_perf_experiment
from repro.experiments.scenario import AWS_REGIONS, ScenarioConfig, build_scenario
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
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
    # 1 665.0 B/peer retained under tracemalloc (every allocation the
    # build keeps: arrays, the digest index, the scheduled churn) and
    # 948.0 B/peer by the world's own nbytes() accounting. The bounds
    # allow 0.75x the peers per MiB, so a per-peer object that creeps
    # back into the build fails the first and an array that grows per
    # peer fails the second.
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
    assert retained / n_peers <= 2200
    assert world.nbytes() / n_peers <= 1260


@pytest.mark.parametrize("sender", ["client", "dht-server"])
def test_attached_node_bytes(sender):
    # Bytes kept per attached node at 2 000 peers after one FIND_NODE
    # to each of the first 50 reliable peers: node, table, the answers'
    # PeerIds, the dial's connections and the per-peer key ints of the
    # first attach. A DHT-server sender is also offered to the
    # answering table: a full bucket turns it away, a refresh or a
    # free slot takes it in, and either is a write to a view that
    # copies at most the one bucket it changes. Measured on CPython
    # 3.11.7: 12 547 B/node from a client and 12 257 B/node from a DHT
    # server; 23 017 B/node from a DHT server when the first write
    # turned the whole table into dict buckets, 27 465 B/node when
    # every attach loaded dict buckets. The bound allows 1.33x the
    # client figure, so a per-entry object that creeps back into the
    # attach, or a write that copies more than its bucket, fails here.
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
    assert kept / world.materialized <= 16_500


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
    assert list(world.nodes) == [peer_id]
    assert world.is_materialized(index)
    assert world.engines == {}, "a crawled peer never gets a Bitswap engine"
    node = world.nodes[peer_id]
    assert node is world.node_at(index) and node.host is world.host_at(index)
    # the client is no DHT server, so the handler learned nobody new
    table = world.table_peer_ids(index)
    assert len(node.routing_table) == len(table) > 0
    assert node.routing_table.copied_buckets == 0, "answering FIND_NODE wrote nothing"
    assert set(node.routing_table.peers()) == set(table)

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
    assert world.engines == {}

    cid = make_cid(b"nobody has this")
    future = world.net.rpc(client, peer_id, WANT_HAVE, WantHaveRequest((cid,)))
    world.sim.run(until=world.sim.now + 120.0)
    assert future.result() == HaveResponse((), (cid,))
    assert list(world.engines) == [peer_id]
    assert world.engines[peer_id] is world.engine_at(index)

    # engine_at alone builds host + engine, never a DHT node
    other = next(i for i in range(world.n) if i != index)
    world.engine_at(other)
    assert len(world.engines) == 2
    assert world.materialized == 1 and list(world.nodes) == [peer_id]


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
