"""Failure injection: malicious and flaky peers.

The paper's security story rests on self-certification (Section 2.1):
"Peers retrieving the content do not need to trust the new providing
peer but only verify that the data they were served matches the
requested CID." These tests inject misbehaviour and check the system
degrades the way the design promises.
"""


from repro.bitswap.engine import BitswapEngine
from repro.bitswap.messages import WANT_BLOCK, BlockResponse
from repro.bitswap.session import BitswapSession
from repro.blockstore.block import Block
from repro.blockstore.memory import MemoryBlockstore
from repro.errors import RetrievalError
from repro.merkledag.builder import DagBuilder
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
from repro.resilience import Resilience
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator, TimeoutError_, with_timeout
from repro.utils.rng import derive_rng


def make_world(seed=1):
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))

    def engine(name: bytes, malicious=False):
        host = SimHost(PeerId.from_public_key(name))
        net.register(host)
        if malicious:
            # A peer that claims to have everything and serves garbage.
            def forge(sender, request):
                fake = Block(request.cid, b"FORGED GARBAGE BYTES")
                return BlockResponse(fake), len(fake.data)

            host.register_handler(WANT_BLOCK, forge)
            return host
        return BitswapEngine(sim, net, host, MemoryBlockstore())

    return sim, net, engine


class TestForgedBlocks:
    def test_forged_block_rejected(self):
        sim, net, engine = make_world()
        getter = engine(b"getter")
        evil = engine(b"evil", malicious=True)
        cid = make_cid(b"the real content")

        def proc():
            try:
                yield from getter.fetch_block(cid, evil.peer_id)
            except RetrievalError as exc:
                return str(exc)

        message = sim.run_process(proc())
        assert "not matching" in message
        # Nothing unverifiable entered the local store.
        assert not getter.blockstore.has(cid)

    def test_session_falls_back_to_honest_provider(self):
        sim, net, engine = make_world(seed=2)
        getter = engine(b"getter")
        evil = engine(b"evil", malicious=True)
        honest = engine(b"honest")
        block = Block.from_data(b"genuine bytes")
        honest.blockstore.put(block)

        def proc():
            session = BitswapSession(
                getter, [evil.peer_id, honest.host.peer_id],
                Resilience("bare", sim, net),
            )
            got = yield from session.fetch_one(block.cid)
            return got, session.providers

        got, providers = sim.run_process(proc())
        assert got == block
        # The forger was dropped from the session's provider list.
        assert evil.peer_id not in providers


class TestChurnDuringRetrieval:
    def test_provider_dying_mid_fetch_fails_cleanly(self):
        sim, net, engine = make_world(seed=3)
        getter = engine(b"getter")
        provider = engine(b"provider")
        data = derive_rng(3, "d").randbytes(50_000)
        result = DagBuilder(provider.blockstore, chunk_size=4096).add_bytes(data)

        def proc():
            yield net.dial(getter.host, provider.host.peer_id)
            # Kill the provider while blocks are still missing.
            sim.schedule(0.05, lambda: provider.host.set_online(False))
            session = BitswapSession(
                getter, [provider.host.peer_id], Resilience("bare", sim, net)
            )
            try:
                yield with_timeout(
                    sim, sim.spawn(session.fetch_dag(result.root)).future, 30.0
                )
            except (RetrievalError, TimeoutError_):
                return "failed cleanly"

        assert sim.run_process(proc()) == "failed cleanly"

    def test_partial_fetch_leaves_verified_blocks_only(self):
        sim, net, engine = make_world(seed=4)
        getter = engine(b"getter")
        provider = engine(b"provider")
        data = derive_rng(4, "d").randbytes(50_000)
        result = DagBuilder(provider.blockstore, chunk_size=4096).add_bytes(data)

        def proc():
            yield net.dial(getter.host, provider.host.peer_id)
            sim.schedule(0.08, lambda: provider.host.set_online(False))
            session = BitswapSession(
                getter, [provider.host.peer_id], Resilience("bare", sim, net)
            )
            try:
                yield with_timeout(
                    sim, sim.spawn(session.fetch_dag(result.root)).future, 30.0
                )
            except Exception:  # noqa: BLE001
                pass

        sim.run_process(proc())
        for cid in getter.blockstore.cids():
            assert getter.blockstore.get(cid).verify()


class TestDropAttack:
    def test_record_dropping_peers_slow_but_do_not_break_discovery(self):
        """Section 5.1 worries about PeerID-rotating peers 'persistently
        dropping requests'. The walk's timeouts and eviction keep the
        system converging as long as honest peers remain."""
        from tests.helpers import build_world

        world = build_world(n=60, seed=5)
        # 30% of peers silently drop GET_PROVIDERS (handler never
        # answers -> caller's timeout fires).
        from repro.dht import rpc

        dropped = 0
        for node in world.nodes[1::3]:
            original = node.host._handlers[rpc.GET_PROVIDERS]

            def drop(sender, request, original=original):
                raise _SwallowError()

            node.host._handlers[rpc.GET_PROVIDERS] = drop
            dropped += 1
        cid = make_cid(b"resilient content")

        def publish():
            return (yield from world.node(0).provide(cid))

        world.sim.run_process(publish())

        def retrieve():
            return (yield from world.node(20).find_providers(cid))

        records, stats = world.sim.run_process(retrieve())
        assert records  # discovery still succeeds
        assert stats.rpcs_failed >= 0


class _SwallowError(Exception):
    pass


def test_swallow_error_counts_as_failed_rpc():
    # The drop handler surfaces as a failed RPC, not a hang.
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(6, "net"))
    a = SimHost(PeerId.from_public_key(b"a"))
    b = SimHost(PeerId.from_public_key(b"b"))
    net.register(a)
    net.register(b)

    def broken(sender, payload):
        raise _SwallowError()

    b.register_handler("X", broken)

    def proc():
        try:
            yield net.rpc(a, b.peer_id, "X", None)
        except _SwallowError:
            return "surfaced"

    assert sim.run_process(proc()) == "surfaced"
