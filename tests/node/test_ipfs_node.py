"""Integration tests for the full IpfsNode publication/retrieval flows."""

import pytest

from repro.dht.bootstrap import populate_routing_tables
from repro.errors import ProviderNotFoundError, ReproError, RetrievalError
from repro.merkledag.chunker import DEFAULT_CHUNK_SIZE
from repro.multiformats.cid import make_cid
from repro.node.config import NodeConfig
from repro.node.host import IpfsNode, synthesize_multiaddr
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from tests.helpers import counted_digests


def build_node_world(n=40, seed=30, offline_fraction=0.0, config=None):
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    rng = derive_rng(seed, "world")
    regions = list(Region)
    nodes = []
    for index in range(n):
        node = IpfsNode(
            sim, net, derive_rng(seed, "node", str(index)),
            region=rng.choice(regions), peer_class=PeerClass.DATACENTER,
            config=config,
        )
        if index >= 2 and rng.random() < offline_fraction:
            node.host.online = False
        nodes.append(node)
    populate_routing_tables([node.dht for node in nodes], rng)
    return sim, net, nodes


@pytest.fixture(scope="module")
def world():
    return build_node_world()


class TestPublication:
    def test_add_bytes_is_local_only(self, world):
        sim, net, nodes = world
        before = net.stats.rpcs_sent
        nodes[0].add_bytes(b"local only" * 100)
        assert net.stats.rpcs_sent == before  # nothing touched the network

    def test_publish_stores_records_and_receipt_adds_up(self):
        sim, net, nodes = build_node_world(seed=31)

        def proc():
            return (yield from nodes[0].add_and_publish(b"content" * 1000))

        root, receipt = sim.run_process(proc())
        assert receipt.peers_stored == 20
        assert receipt.total_duration == pytest.approx(
            receipt.walk_duration + receipt.rpc_batch_duration, abs=1e-9
        )
        holders = sum(
            1 for node in nodes if node.dht.provider_store.providers_for(root, sim.now)
        )
        assert holders == 20

    def test_publish_unheld_content_rejected(self, world):
        sim, net, nodes = world
        with pytest.raises(RetrievalError):
            next(nodes[0].publish(make_cid(b"never imported")))

    def test_published_content_is_pinned(self, world):
        sim, net, nodes = world
        result = nodes[1].add_bytes(b"pin me")
        assert nodes[1].blockstore.is_pinned(result.root)

    def test_republisher_refreshes_records(self):
        sim, net, nodes = build_node_world(seed=32)
        publisher = nodes[0]

        def proc():
            return (yield from publisher.add_and_publish(b"refresh me" * 50))

        root, _ = sim.run_process(proc())
        publisher.start_republisher()
        # Run past expiry: without republish the records would be gone.
        sim.run(until=sim.now + 26 * 3600)
        holders = [
            node for node in nodes
            if node.dht.provider_store.providers_for(root, sim.now)
        ]
        assert holders  # records survived 26 h thanks to 12 h republish


class TestRetrieval:
    def _published(self, seed=33, n=40, payload=b"fetch me" * 2000, config=None):
        sim, net, nodes = build_node_world(n=n, seed=seed, config=config)
        publisher = nodes[0]

        def proc():
            yield from publisher.publish_peer_record()
            return (yield from publisher.add_and_publish(payload))

        root, _ = sim.run_process(proc())
        return sim, net, nodes, root, payload

    def test_end_to_end_retrieval(self):
        sim, net, nodes, root, payload = self._published()
        getter = nodes[7]
        getter.disconnect_all()  # as the paper's harness does (Section 4.3)

        def proc():
            return (yield from getter.retrieve_bytes(root))

        data, receipt = sim.run_process(proc())
        assert data == payload
        assert receipt.provider == nodes[0].peer_id
        assert not receipt.via_bitswap
        assert receipt.bitswap_window == pytest.approx(1.0)

    def test_receipt_phases_sum_to_total(self):
        sim, net, nodes, root, payload = self._published(seed=34)

        def proc():
            return (yield from nodes[9].retrieve(root))

        receipt = sim.run_process(proc())
        reconstructed = (
            receipt.bitswap_window
            + receipt.provider_walk_duration
            + receipt.peer_walk_duration
            + receipt.dial_duration
            + receipt.fetch_duration
        )
        assert receipt.total_duration == pytest.approx(reconstructed, abs=1e-9)

    def test_bitswap_shortcut_when_connected_to_holder(self):
        sim, net, nodes, root, payload = self._published(seed=35)
        getter = nodes[11]

        def proc():
            yield net.dial(getter.host, nodes[0].host.peer_id)
            return (yield from getter.retrieve(root))

        receipt = sim.run_process(proc())
        assert receipt.via_bitswap
        assert receipt.provider_walk_duration == 0.0
        assert receipt.total_duration < 1.5  # no DHT walks at all

    def test_disconnect_all_forces_dht_path(self):
        sim, net, nodes, root, payload = self._published(seed=36)
        getter = nodes[13]

        def proc():
            yield net.dial(getter.host, nodes[0].host.peer_id)
            getter.disconnect_all()
            return (yield from getter.retrieve(root))

        receipt = sim.run_process(proc())
        assert not receipt.via_bitswap
        assert receipt.provider_walk_duration > 0

    def test_address_book_hit_skips_peer_walk(self):
        # A large world, so the publisher is not among the provider
        # walk's candidates (in tiny worlds everyone knows everyone and
        # the walk itself connects to the publisher).
        sim, net, nodes, root, payload = self._published(seed=37, n=150)
        getter = nodes[15]
        getter.disconnect_all()
        # Publication dials may have already taught the getter the
        # publisher's address; forget it so the first walk is real.
        getter.address_book.forget(nodes[0].peer_id)

        def proc():
            first = yield from getter.retrieve(root)
            getter.disconnect_all()
            # Wipe local blocks so the second retrieval is real.
            for cid in list(getter.blockstore.cids()):
                getter.blockstore.delete(cid)
            second = yield from getter.retrieve(root)
            return first, second

        first, second = sim.run_process(proc())
        # After the first retrieval the provider's address is cached, so
        # the second retrieval skips peer discovery entirely.
        assert nodes[0].peer_id in getter.address_book
        assert second.peer_walk_duration == 0.0  # address book hit

    def test_block_payloads_are_hashed_once_per_object(self):
        # Import, publish and five retrievals of a 3-block object (two
        # leaves under one root) hash only at import: two leaf CIDs,
        # the root node's CID and the first verify of the root block,
        # which is built from a CID computed beside its bytes. What
        # travels is the publisher's verified object, so no hop hashes.
        sim, net, nodes = build_node_world(seed=45)
        publisher, getters = nodes[0], nodes[5:10]
        payload = derive_rng(45, "payload").randbytes(2 * DEFAULT_CHUNK_SIZE)

        def proc():
            yield from publisher.publish_peer_record()
            root, _ = yield from publisher.add_and_publish(payload)
            fetched = []
            for getter in getters:
                getter.disconnect_all()
                fetched.append((yield from getter.retrieve_bytes(root)))
            return root, fetched

        with counted_digests() as sizes:
            root, fetched = sim.run_process(proc())
        assert len(publisher.reader.all_cids(root)) == 3
        assert all(data == payload for data, _ in fetched)
        assert len(sizes) <= 4, sizes
        assert sizes.count(DEFAULT_CHUNK_SIZE) == 2  # one digest per leaf

    def test_unpublished_content_not_found(self):
        sim, net, nodes = build_node_world(seed=38)

        def proc():
            try:
                yield from nodes[3].retrieve(make_cid(b"phantom"))
            except ProviderNotFoundError:
                return "not found"

        assert sim.run_process(proc()) == "not found"

    def test_retriever_can_become_provider(self):
        sim, net, nodes, root, payload = self._published(seed=39)
        getter = nodes[17]

        def proc():
            yield from getter.retrieve(root)
            yield from getter.become_provider(root)
            return (yield from nodes[19].dht.find_providers(root, max_providers=2))

        records, _ = sim.run_process(proc())
        providers = {record.provider for record in records}
        assert getter.peer_id in providers

    def test_become_provider_requires_complete_dag(self):
        sim, net, nodes = build_node_world(seed=40)
        with pytest.raises(RetrievalError):
            next(nodes[0].become_provider(make_cid(b"incomplete")))

    def test_parallel_discovery_skips_bitswap_wait(self):
        config = NodeConfig(parallel_discovery=True)
        sim, net, nodes, root, payload = self._published(seed=41, config=config)
        getter = nodes[21]
        getter.disconnect_all()

        def proc():
            return (yield from getter.retrieve(root))

        receipt = sim.run_process(proc())
        # The walk won the race; no serialized 1 s window.
        assert receipt.bitswap_window == 0.0
        assert receipt.provider_walk_duration > 0.0

    def test_parallel_discovery_bitswap_still_wins_when_connected(self):
        config = NodeConfig(parallel_discovery=True)
        sim, net, nodes, root, payload = self._published(seed=42, config=config)
        getter = nodes[23]

        def proc():
            yield net.dial(getter.host, nodes[0].host.peer_id)
            return (yield from getter.retrieve(root))

        receipt = sim.run_process(proc())
        assert receipt.via_bitswap


class TestProtection:
    @pytest.mark.parametrize("protection", ["bare", "retry", "resilient"])
    def test_the_node_runs_its_rung(self, protection):
        sim = Simulator()
        node = IpfsNode(
            sim, SimNetwork(sim, derive_rng(5, "net")), derive_rng(5, "node"),
            config=NodeConfig(protection=protection),
        )
        assert node.dht.resilience is node.resilience
        assert node.resilience.enabled == (protection == "resilient")
        assert node.dht.routing_table.failure_threshold == (
            1 if protection == "bare" else 3
        )

    def test_unknown_rung_is_refused(self):
        with pytest.raises(ReproError, match="protection"):
            NodeConfig(protection="hedging")


class TestIdentity:
    def test_peer_id_derived_from_keypair(self, world):
        sim, net, nodes = world
        node = nodes[0]
        assert node.peer_id == node.keypair.peer_id

    def test_synthesized_multiaddr_is_valid_and_stable(self, world):
        sim, net, nodes = world
        a = synthesize_multiaddr(nodes[0].peer_id)
        b = synthesize_multiaddr(nodes[0].peer_id)
        assert a is b  # one address object per peer, shared by every observer
        assert a.peer_id_str() == nodes[0].peer_id.encode()
        assert nodes[0].addresses == (a,)

    def test_nat_node_defaults_to_dht_client(self):
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(50, "net"))
        node = IpfsNode(sim, net, derive_rng(50, "n"), nat_private=True)
        assert not node.dht.server


class TestDirectoryConvenience:
    def test_add_directory_roundtrip(self):
        sim, net, nodes = build_node_world(seed=44, n=10)
        node = nodes[0]
        root = node.add_directory({"a.txt": b"alpha", "b.txt": b"beta"})
        listing = node.list_directory(root)
        assert set(listing) == {"a.txt", "b.txt"}
        assert node.reader.cat(listing["a.txt"]) == b"alpha"
        assert node.blockstore.is_pinned(root)

    def test_add_directory_publishable(self):
        sim, net, nodes = build_node_world(seed=45, n=30)
        publisher, getter = nodes[0], nodes[5]
        root = publisher.add_directory({"file": b"shared" * 100})

        def proc():
            yield from publisher.publish_peer_record()
            yield from publisher.publish(root)
            getter.disconnect_all()
            yield from getter.retrieve(root)
            return getter.list_directory(root)

        listing = sim.run_process(proc())
        assert "file" in listing

    def test_top_level_imports(self):
        import repro

        assert repro.IpfsNode is type(build_node_world(seed=46, n=2)[2][0])
