"""Tests for wantlists, ledgers, and the Bitswap exchange."""

import pytest

from repro.bitswap.engine import BitswapEngine
from repro.bitswap.ledger import LedgerBook
from repro.bitswap.messages import BITSWAP_TIMEOUT_S
from repro.bitswap.session import BitswapSession
from repro.bitswap.wantlist import WantList, WantType
from repro.blockstore.block import Block
from repro.blockstore.memory import MemoryBlockstore
from repro.errors import RetrievalError
from repro.merkledag.builder import DagBuilder
from repro.merkledag.reader import DagReader
from repro.multiformats.cid import make_cid
from repro.multiformats.peerid import PeerId
from repro.resilience import Resilience
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


def make_pair(seed=1):
    """Two connected Bitswap nodes."""
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    engines = []
    for name in (b"alpha", b"beta"):
        host = SimHost(PeerId.from_public_key(name))
        net.register(host)
        engines.append(BitswapEngine(sim, net, host, MemoryBlockstore()))
    a, b = engines

    def connect():
        yield net.dial(a.host, b.host.peer_id)

    sim.run_process(connect())
    return sim, net, a, b


def bare(engine: BitswapEngine) -> Resilience:
    """The go-ipfs v0.10 rung: one want per provider per block."""
    return Resilience("bare", engine.sim, engine.network)


class TestWantList:
    def test_add_and_remove(self):
        wl = WantList()
        cid = make_cid(b"x")
        wl.add(cid)
        assert cid in wl
        wl.remove(cid)
        assert cid not in wl

    def test_block_supersedes_have(self):
        wl = WantList()
        cid = make_cid(b"x")
        wl.add(cid, want_type=WantType.HAVE)
        wl.add(cid, want_type=WantType.BLOCK)
        assert wl.entries()[0].want_type == WantType.BLOCK

    def test_have_does_not_downgrade_block(self):
        wl = WantList()
        cid = make_cid(b"x")
        wl.add(cid, want_type=WantType.BLOCK)
        wl.add(cid, want_type=WantType.HAVE)
        assert wl.entries()[0].want_type == WantType.BLOCK

    def test_priority_ordering(self):
        wl = WantList()
        low, high = make_cid(b"low"), make_cid(b"high")
        wl.add(low, priority=1)
        wl.add(high, priority=9)
        assert wl.cids() == [high, low]

    def test_priority_never_decreases(self):
        wl = WantList()
        cid = make_cid(b"x")
        wl.add(cid, priority=5)
        wl.add(cid, priority=1)
        assert wl.entries()[0].priority == 5


class TestLedger:
    def test_accounting(self):
        book = LedgerBook()
        peer = PeerId.from_public_key(b"p")
        book.record_sent(peer, 100)
        book.record_received(peer, 40)
        ledger = book.ledger_for(peer)
        assert ledger.bytes_sent == 100
        assert ledger.bytes_received == 40
        assert ledger.blocks_sent == 1
        assert ledger.debt_ratio == pytest.approx(100 / 41)

    def test_totals(self):
        book = LedgerBook()
        a, b = PeerId.from_public_key(b"a"), PeerId.from_public_key(b"b")
        book.record_sent(a, 10)
        book.record_sent(b, 20)
        assert book.total_sent() == 30
        assert set(book.partners()) == {a, b}


class TestExchange:
    def test_fetch_block_verifies_and_stores(self):
        sim, net, a, b = make_pair()
        block = Block.from_data(b"the payload")
        b.blockstore.put(block)

        def proc():
            return (yield from a.fetch_block(block.cid, b.host.peer_id))

        result = sim.run_process(proc())
        assert result.block == block
        assert a.blockstore.has(block.cid)
        assert result.duration > 0

    def test_ledgers_updated_on_both_sides(self):
        sim, net, a, b = make_pair()
        block = Block.from_data(b"accounted bytes")
        b.blockstore.put(block)

        def proc():
            return (yield from a.fetch_block(block.cid, b.host.peer_id))

        sim.run_process(proc())
        assert a.ledgers.ledger_for(b.host.peer_id).bytes_received == block.size
        assert b.ledgers.ledger_for(a.host.peer_id).bytes_sent == block.size
        assert b.blocks_served == 1

    def test_fetch_missing_block_raises(self):
        sim, net, a, b = make_pair()

        def proc():
            try:
                yield from a.fetch_block(make_cid(b"nothere"), b.host.peer_id)
            except RetrievalError:
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_wantlist_cleared_after_fetch(self):
        sim, net, a, b = make_pair()
        block = Block.from_data(b"x")
        b.blockstore.put(block)

        def proc():
            yield from a.fetch_block(block.cid, b.host.peer_id)

        sim.run_process(proc())
        assert len(a.wantlist) == 0


class TestOpportunisticDiscovery:
    def test_connected_peer_with_block_found_quickly(self):
        sim, net, a, b = make_pair()
        block = Block.from_data(b"held nearby")
        b.blockstore.put(block)

        def proc():
            start = sim.now
            peer = yield from a.discover_connected(block.cid)
            return peer, sim.now - start

        peer, elapsed = sim.run_process(proc())
        assert peer == b.host.peer_id
        assert elapsed < BITSWAP_TIMEOUT_S  # faster than the window

    def test_no_holder_times_out_at_1s(self):
        sim, net, a, b = make_pair()

        def proc():
            start = sim.now
            peer = yield from a.discover_connected(make_cid(b"unknown"))
            return peer, sim.now - start

        peer, elapsed = sim.run_process(proc())
        assert peer is None
        assert elapsed == pytest.approx(BITSWAP_TIMEOUT_S)

    def test_no_connections_still_burns_the_window(self):
        # Section 3.2 footnote 4: the experiment's retrievals always pay
        # the 1 s window because peers disconnect between rounds.
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(3, "net"))
        host = SimHost(PeerId.from_public_key(b"lonely"))
        net.register(host)
        engine = BitswapEngine(sim, net, host, MemoryBlockstore())

        def proc():
            start = sim.now
            peer = yield from engine.discover_connected(make_cid(b"x"))
            return peer, sim.now - start

        peer, elapsed = sim.run_process(proc())
        assert peer is None
        assert elapsed == pytest.approx(BITSWAP_TIMEOUT_S)

    def test_timeout_constant_matches_paper(self):
        assert BITSWAP_TIMEOUT_S == 1.0


class TestSession:
    def _dag_world(self, payload: bytes, chunk_size=64):
        sim, net, a, b = make_pair()
        result = DagBuilder(b.blockstore, chunk_size=chunk_size).add_bytes(payload)
        return sim, a, b, result.root

    def test_fetch_dag_reassembles(self):
        rng = derive_rng(8, "payload")
        payload = bytes(rng.randrange(256) for _ in range(1000))
        sim, a, b, root = self._dag_world(payload)

        def proc():
            session = BitswapSession(a, [b.host.peer_id], bare(a))
            yield from session.fetch_dag(root)
            return session

        session = sim.run_process(proc())
        assert DagReader(a.blockstore).cat(root) == payload
        assert session.blocks_fetched > 1
        assert session.bytes_fetched > len(payload)

    def test_local_blocks_not_refetched(self):
        payload = b"cached" * 100
        sim, a, b, root = self._dag_world(payload)

        def proc():
            session = BitswapSession(a, [b.host.peer_id], bare(a))
            yield from session.fetch_dag(root)
            second = BitswapSession(a, [b.host.peer_id], bare(a))
            yield from second.fetch_dag(root)
            return second

        second = sim.run_process(proc())
        assert second.blocks_fetched == 0

    def test_failing_provider_falls_through_to_next(self):
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(4, "net"))
        engines = []
        for name in (b"getter", b"empty", b"full"):
            host = SimHost(PeerId.from_public_key(name))
            net.register(host)
            engines.append(BitswapEngine(sim, net, host, MemoryBlockstore()))
        getter, empty, full = engines
        block = Block.from_data(b"somewhere")
        full.blockstore.put(block)

        def proc():
            session = BitswapSession(
                getter, [empty.host.peer_id, full.host.peer_id], bare(getter)
            )
            got = yield from session._fetch_one(block.cid)
            return got

        assert sim.run_process(proc()) == block

    def test_no_providers_rejected(self):
        sim, net, a, b = make_pair()
        with pytest.raises(RetrievalError):
            BitswapSession(a, [], bare(a))

    def test_all_providers_failing_raises(self):
        sim, net, a, b = make_pair()

        def proc():
            session = BitswapSession(a, [b.host.peer_id], bare(a))
            try:
                yield from session.fetch_dag(make_cid(b"void"))
            except RetrievalError:
                return "failed"

        assert sim.run_process(proc()) == "failed"
